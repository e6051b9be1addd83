package ensemble

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
	"wavepipe/internal/faults"
	"wavepipe/internal/transient"
)

// ladderLanes builds k structurally identical RC ladders whose resistors
// are scaled by 1 + spread·i/k (spread 0 makes all lanes identical).
func ladderLanes(k, segments int, spread float64) []Lane {
	lanes := make([]Lane, k)
	for i := range lanes {
		c := circuits.RCLadder(segments)
		scale := 1 + spread*float64(i)/float64(k)
		for _, d := range c.Devices() {
			if r, ok := d.(*device.Resistor); ok {
				r.SetValue(r.Value() * scale)
			}
		}
		lanes[i] = Lane{Name: c.Title, Circ: c}
	}
	return lanes
}

func hostFor(t testing.TB, lanes []Lane) *circuit.System {
	sys, err := lanes[0].Circ.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// Every lane's waveform must be bit-identical to its own independent
// serial run: same accepted times, same sampled values, same counters.
func TestLaneWaveformsMatchSerial(t *testing.T) {
	const k, segs = 5, 24
	base := transient.Options{TStop: 20e-9}

	lanes := ladderLanes(k, segs, 0.8)
	res, err := Run(hostFor(t, lanes), lanes, Options{Base: base, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lanes) != k {
		t.Fatalf("got %d lane results, want %d", len(res.Lanes), k)
	}

	serialLanes := ladderLanes(k, segs, 0.8)
	for i, lr := range res.Lanes {
		if lr.Err != nil {
			t.Fatalf("lane %d failed: %v", i, lr.Err)
		}
		sys, err := serialLanes[i].Circ.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := transient.Run(sys, base)
		if err != nil {
			t.Fatal(err)
		}
		gw, ww := lr.Res.W, want.W
		if gw.Len() != ww.Len() {
			t.Fatalf("lane %d: %d points vs serial %d", i, gw.Len(), ww.Len())
		}
		for p := range gw.Times {
			if gw.Times[p] != ww.Times[p] {
				t.Fatalf("lane %d point %d: t=%g vs serial %g", i, p, gw.Times[p], ww.Times[p])
			}
			for j := range gw.Data[p] {
				if gw.Data[p][j] != ww.Data[p][j] {
					t.Fatalf("lane %d point %d signal %s: %g vs serial %g",
						i, p, gw.Names[j], gw.Data[p][j], ww.Data[p][j])
				}
			}
		}
		if lr.Res.Stats.Points != want.Stats.Points ||
			lr.Res.Stats.Solves != want.Stats.Solves ||
			lr.Res.Stats.NRIters != want.Stats.NRIters ||
			lr.Res.Stats.LTERejects != want.Stats.LTERejects {
			t.Fatalf("lane %d counters diverge: %+v vs serial %+v", i, lr.Res.Stats, want.Stats)
		}
	}
	if res.Rounds == 0 {
		t.Fatal("Rounds not counted")
	}
}

// Identical lanes must produce identical waveforms (one shared device set
// evaluated against per-lane state must not cross-contaminate lanes).
func TestIdenticalLanesAgree(t *testing.T) {
	lanes := ladderLanes(4, 16, 0)
	res, err := Run(hostFor(t, lanes), lanes, Options{Base: transient.Options{TStop: 10e-9}})
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Lanes[0].Res.W
	for i, lr := range res.Lanes[1:] {
		if lr.Err != nil {
			t.Fatalf("lane %d failed: %v", i+1, lr.Err)
		}
		w := lr.Res.W
		if w.Len() != ref.Len() {
			t.Fatalf("lane %d: %d points vs lane 0's %d", i+1, w.Len(), ref.Len())
		}
		for p := range w.Times {
			if w.Times[p] != ref.Times[p] || w.Data[p][0] != ref.Data[p][0] {
				t.Fatalf("lane %d diverged from lane 0 at point %d", i+1, p)
			}
		}
	}
}

// A lane whose Newton solves are sabotaged to the recovery floor must
// retire with an error while the remaining lanes run to completion with
// waveforms unaffected by the dead lane.
func TestFaultedLaneRetiresWithoutStallingGang(t *testing.T) {
	const k = 4
	base := transient.Options{TStop: 10e-9}

	lanes := ladderLanes(k, 16, 0.5)
	lanes[1].Faults = faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence,
		After: 1e-12, // spare the operating point
		Count: 1 << 20,
	})
	res, err := Run(hostFor(t, lanes), lanes, Options{Base: base, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lanes[1].Err == nil {
		t.Fatal("sabotaged lane did not fail")
	}
	if !errors.Is(res.Lanes[1].Err, faults.ErrStepTooSmall) {
		t.Fatalf("lane 1 error = %v, want ErrStepTooSmall", res.Lanes[1].Err)
	}
	if res.Lanes[1].Res == nil {
		t.Fatal("failed lane has no partial result")
	}

	serialLanes := ladderLanes(k, 16, 0.5)
	for _, i := range []int{0, 2, 3} {
		if res.Lanes[i].Err != nil {
			t.Fatalf("healthy lane %d failed: %v", i, res.Lanes[i].Err)
		}
		sys, err := serialLanes[i].Circ.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := transient.Run(sys, base)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Lanes[i].Res.W
		if got.Len() != want.W.Len() {
			t.Fatalf("healthy lane %d: %d points vs serial %d", i, got.Len(), want.W.Len())
		}
		last := got.Len() - 1
		if got.Data[last][0] != want.W.Data[last][0] {
			t.Fatalf("healthy lane %d final sample diverged", i)
		}
	}
}

// ForceGang spawns real worker goroutines even on one CPU; under -race
// this exercises the lockstep rounds for data races. The pool must not
// leak goroutines after Run returns.
func TestLockstepGangRace(t *testing.T) {
	before := runtime.NumGoroutine()
	lanes := ladderLanes(6, 12, 0.6)
	res, err := Run(hostFor(t, lanes), lanes, Options{
		Base:      transient.Options{TStop: 8e-9},
		Workers:   3,
		ForceGang: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range res.Lanes {
		if lr.Err != nil {
			t.Fatalf("lane %d failed: %v", i, lr.Err)
		}
		if v := lr.Res.W.Data[lr.Res.W.Len()-1][0]; math.IsNaN(v) {
			t.Fatalf("lane %d produced NaN", i)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A structurally different lane circuit must be rejected at bind time.
func TestStructuralMismatchRejected(t *testing.T) {
	lanes := ladderLanes(2, 12, 0)
	lanes[1].Circ = circuits.RCLadder(13)
	_, err := Run(hostFor(t, lanes), lanes, Options{Base: transient.Options{TStop: 1e-9}})
	if err == nil {
		t.Fatal("mismatched lane accepted")
	}
}

// Cancellation retires every active lane with a partial result.
func TestCancellationRetiresLanes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := transient.Options{TStop: 10e-9, Ctx: ctx}
	lanes := ladderLanes(3, 12, 0.3)
	res, err := Run(hostFor(t, lanes), lanes, Options{Base: base})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if res == nil {
		t.Fatal("canceled run returned no result")
	}
	for i, lr := range res.Lanes {
		if lr.Err == nil {
			t.Fatalf("lane %d not marked canceled", i)
		}
		if lr.Res == nil {
			t.Fatalf("lane %d has no partial result", i)
		}
	}
}

// Unsupported per-lane options must be rejected loudly.
func TestUnsupportedOptionsRejected(t *testing.T) {
	lanes := ladderLanes(1, 8, 0)
	host := hostFor(t, lanes)
	for name, base := range map[string]transient.Options{
		"bypass":    {TStop: 1e-9, BypassTol: 1e-3},
		"devbypass": {TStop: 1e-9, DeviceBypassTol: 1e-3},
		"no-tstop":  {},
	} {
		if _, err := Run(host, lanes, Options{Base: base}); err == nil {
			t.Fatalf("%s options accepted", name)
		}
	}
}

// BenchmarkEnsembleGrid16 guards the steady-state allocation rate of the
// batch engine: allocations are dominated by per-run setup (workspaces,
// arena, waveforms), so allocs/lane must stay bounded as rounds accumulate.
func BenchmarkEnsembleGrid16(b *testing.B) {
	const k = 8
	lanes := make([]Lane, k)
	for i := range lanes {
		c := circuits.PowerGridMesh(16, 1.8)
		for _, d := range c.Devices() {
			if r, ok := d.(*device.Resistor); ok {
				r.SetValue(r.Value() * (1 + 0.05*float64(i)))
			}
		}
		lanes[i] = Lane{Circ: c}
	}
	sys, err := lanes[0].Circ.Build()
	if err != nil {
		b.Fatal(err)
	}
	base := transient.Options{TStop: 20e-9}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sys, lanes, Options{Base: base, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*k), "allocs/lane")
}
