package wavepipe

import (
	"testing"

	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// TestParallelWorkersRaceAndEquivalence runs the truly concurrent worker
// path so the race detector can inspect the sharing discipline: immutable
// history points, per-worker solvers, coordinator-only acceptance. It also
// checks that the concurrent path produces the same waveform as the
// sequential one, which a one-core budget forces.
func TestParallelWorkersRaceAndEquivalence(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward, SchemeCombined} {
		seqRes, err := Run(rectifierSystem(t), Options{
			Base:    transient.Options{TStop: 1e-3, CoreBudget: 1},
			Scheme:  scheme,
			Threads: 4,
		})
		if err != nil {
			t.Fatalf("%v sequential: %v", scheme, err)
		}
		if !seqRes.Stats.PipelineSerialized {
			t.Fatalf("%v: budget 1 under 4 workers did not serialize the pipeline", scheme)
		}
		parRes, err := Run(rectifierSystem(t), Options{
			Base:    transient.Options{TStop: 1e-3},
			Scheme:  scheme,
			Threads: 4,
		})
		if err != nil {
			t.Fatalf("%v parallel: %v", scheme, err)
		}
		if seqRes.Stats.Points != parRes.Stats.Points {
			t.Fatalf("%v: point counts differ: %d vs %d",
				scheme, seqRes.Stats.Points, parRes.Stats.Points)
		}
		dev, err := waveform.Compare(parRes.W, seqRes.W, "out")
		if err != nil {
			t.Fatal(err)
		}
		if dev.Max != 0 {
			t.Fatalf("%v: concurrent path diverges from sequential by %g", scheme, dev.Max)
		}
	}
}
