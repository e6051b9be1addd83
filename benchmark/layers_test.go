package main

import (
	"math"
	"testing"

	"wavepipe"
)

// TestSplitTrace checks the attribution of a serial event stream: phase
// spans inside a solve span come off its self time, phase spans outside any
// solve (the operating point, LTE) count only as phases.
func TestSplitTrace(t *testing.T) {
	ev := func(kind wavepipe.TraceKind, phase wavepipe.TracePhase, end, dur int64) wavepipe.TraceEvent {
		return wavepipe.TraceEvent{Kind: kind, Phase: phase, Wall: end, Dur: dur, Worker: -1}
	}
	evs := []wavepipe.TraceEvent{
		ev(wavepipe.TraceKindPhase, wavepipe.TracePhaseDeviceLoad, 100, 50), // operating point
		ev(wavepipe.TraceKindPhase, wavepipe.TracePhaseDeviceLoad, 220, 10),
		ev(wavepipe.TraceKindPhase, wavepipe.TracePhaseFactor, 240, 20),
		ev(wavepipe.TraceKindPhase, wavepipe.TracePhaseTriSolve, 250, 5),
		ev(wavepipe.TraceKindSolve, 0, 260, 100), // spans [160, 260]
		ev(wavepipe.TraceKindPhase, wavepipe.TracePhaseLTE, 270, 8),
	}
	s := splitTrace(evs)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-15 }
	if !near(s.load, 60e-9) || !near(s.factor, 20e-9) || !near(s.tri, 5e-9) || !near(s.lte, 8e-9) {
		t.Errorf("phases load %g factor %g tri %g lte %g", s.load, s.factor, s.tri, s.lte)
	}
	if !near(s.solveSelf, 65e-9) {
		t.Errorf("solve self time %g, want 65e-9", s.solveSelf)
	}
	if s.loads != 2 || s.factors != 1 {
		t.Errorf("%d loads, %d factors", s.loads, s.factors)
	}
}
