package transient_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// TestExactReuseTraceReconciliation runs linear suite circuits, where the
// second Newton iteration of a point re-stamps the same matrix, under a
// full trace and the live metrics. Every reuse the solver counts must appear
// as exactly one FlagReused factor span in the replay and in the metrics,
// and reuses must never be counted as refactorizations or bypasses.
func TestExactReuseTraceReconciliation(t *testing.T) {
	for _, name := range []string{"grid16", "ladder400", "rlctree8"} {
		t.Run(name, func(t *testing.T) {
			b := suiteBench(t, name)
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(0)
			m := trace.NewMetrics()
			res, err := transient.Run(sys, transient.Options{
				TStop: b.TStop / 4,
				Trace: trace.New(trace.Multi(rec, m), 0),
			})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.ReusedFactorizations == 0 {
				t.Fatalf("no exact reuse on linear %s (refactors %d, full %d)", name, st.Refactorizations, st.FullFactorizations)
			}
			if st.BypassedFactorizations != 0 {
				t.Fatalf("bypass is off, yet %d bypasses counted", st.BypassedFactorizations)
			}
			c := trace.Replay(rec.Events())
			if c.ReuseHits != st.ReusedFactorizations {
				t.Errorf("trace replays %d reuses, stats say %d", c.ReuseHits, st.ReusedFactorizations)
			}
			if c.BypassHits != 0 {
				t.Errorf("trace replays %d bypasses on a bypass-free run", c.BypassHits)
			}
			var js bytes.Buffer
			if err := m.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			var flat map[string]float64
			if err := json.Unmarshal(js.Bytes(), &flat); err != nil {
				t.Fatal(err)
			}
			if got := flat["wavepipe_lu_reuses_total"]; got != float64(st.ReusedFactorizations) {
				t.Errorf("metrics count %g reuses, stats say %d", got, st.ReusedFactorizations)
			}
		})
	}
}
