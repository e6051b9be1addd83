package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"wavepipe"
	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
)

// jitter is the half-width of the seeded relative perturbation applied to
// element values: every R, C, L, MOSFET W/L and source delay is scaled by a
// factor drawn uniformly from [1-jitter, 1+jitter].
const jitter = 0.10

// topology is one fixed circuit structure the generator perturbs. Values
// change with the seed; the node and device lists never do, so the
// unknown count and the Jacobian pattern are identical across seeds.
type topology struct {
	name  string
	probe string
	tstop float64
	make  func() *circuit.Circuit
	// uniform draws one factor per element kind for the whole deck instead
	// of one per element. The RC ladder and the clock tree need it: the
	// reduction pass lumps only runs of identical ladder segments, and the
	// tree is a matched tree by construction.
	uniform bool
}

// suiteTopology looks a circuit up in the evaluation suite by name.
func suiteTopology(name string) topology {
	for _, b := range circuits.Suite() {
		if b.Name == name {
			return topology{name: b.Name, probe: b.Probe, tstop: b.TStop, make: b.Make,
				uniform: name == "ladder400" || name == "rlctree8"}
		}
	}
	panic("benchmark: unknown suite circuit " + name)
}

// Service-sized topologies: small enough that one job takes milliseconds
// to tens of milliseconds, so the closed loop runs hundreds of jobs.
var (
	svcMesh = topology{name: "grid8", probe: "n4_4", tstop: 40e-9,
		make: func() *circuit.Circuit { return circuits.PowerGridMesh(8, 1.8) }}
	svcInverter = topology{name: "inv12", probe: "out", tstop: 12e-9,
		make: func() *circuit.Circuit { return circuits.InverterChain(12, 1.8) }}
	svcRectifier = topology{name: "rect1k", probe: "outp", tstop: 2e-3,
		make: func() *circuit.Circuit { return circuits.BridgeRectifier(1e3) }}
	svcAmplifier = topology{name: "amp10M", probe: "out", tstop: 1e-6,
		make: func() *circuit.Circuit { return circuits.CSAmplifier(10e6) }}
)

// Deck is one generated netlist: the SPICE text the program receives plus
// what the benchmark needs to check and label its result.
type Deck struct {
	Name  string
	Probe string
	TStop float64
	Text  string
}

// generate renders topology t with the value jitter of (seed, variant) as
// SPICE text. The same (seed, variant) always yields byte-identical text.
func generate(t topology, seed int64, variant int) (Deck, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", t.name, seed, variant)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	draw := func() float64 { return 1 + jitter*(2*rng.Float64()-1) }
	kind := map[string]float64{}
	factor := func(k string) float64 {
		if !t.uniform {
			return draw()
		}
		f, ok := kind[k]
		if !ok {
			f = draw()
			kind[k] = f
		}
		return f
	}
	// One phase shift per deck: sources that share a clock phase in the
	// topology keep sharing it, so the breakpoint count stays fixed.
	phase := draw()

	ckt := t.make()
	for _, d := range ckt.Devices() {
		switch el := d.(type) {
		case *device.Resistor:
			el.R *= factor("R")
		case *device.Capacitor:
			el.C *= factor("C")
		case *device.Inductor:
			el.L *= factor("L")
		case *device.MOSFET:
			el.W *= factor("W")
			el.L *= factor("Lg")
		case *device.MOSFETEKV:
			el.W *= factor("W")
			el.L *= factor("Lg")
		case *device.VSource:
			el.W = shiftPhase(el.W, phase)
		case *device.ISource:
			el.W = shiftPhase(el.W, phase)
		}
	}
	var buf bytes.Buffer
	deck := &wavepipe.Deck{
		Title:   fmt.Sprintf("%s seed=%d variant=%d", t.name, seed, variant),
		Circuit: ckt,
		Tran:    &wavepipe.TranSpec{TStep: t.tstop / 1000, TStop: t.tstop},
	}
	if err := wavepipe.WriteDeck(&buf, deck); err != nil {
		return Deck{}, fmt.Errorf("generate %s: %w", t.name, err)
	}
	return Deck{Name: t.name, Probe: t.probe, TStop: t.tstop, Text: buf.String()}, nil
}

// shiftPhase scales a pulse's delay by f. A sine has no delay to scale, so
// it gets one of up to a tenth of its period.
func shiftPhase(w device.Waveform, f float64) device.Waveform {
	switch s := w.(type) {
	case device.Pulse:
		s.Delay *= f
		return s
	case device.Sin:
		if s.Delay == 0 && s.Freq > 0 {
			frac := (f - (1 - jitter)) / (2 * jitter)
			s.Delay = frac * 0.1 / s.Freq
			return s
		}
		s.Delay *= f
		return s
	}
	return w
}
