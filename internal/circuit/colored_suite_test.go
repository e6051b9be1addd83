package circuit_test

// Suite-wide equivalence: on every benchmark circuit of the evaluation
// suite, the colored direct-stamp assembly must reproduce the serial Load's
// stamps to floating-point reassociation accuracy (rows with three or more
// contributing devices may differ by ~1 ulp), through a pool-attached
// workspace both when its gang degrades to the serial class order and when
// the gang runs concurrently. The gang is 2 wide: at that width every suite
// coloring clears the profitability gate, so every circuit takes the
// colored path.

import (
	"math"
	"runtime"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/sched"
)

func equalUlpScale(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// loadGang runs one Load on a fresh workspace with a 2-wide gang attached.
// With force the gang runs concurrently (sched.ForceGang); without it the
// load runs at GOMAXPROCS=1, where the pool degrades to the class order.
func loadGang(t *testing.T, sys *circuit.System, force bool, x []float64, p circuit.LoadParams) *circuit.Workspace {
	t.Helper()
	if force {
		sched.ForceGang.Store(true)
		defer sched.ForceGang.Store(false)
	} else {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	ws := sys.NewWorkspace()
	ws.SetPool(pool)
	ws.Load(x, p)
	return ws
}

func TestColoredLoadMatchesSerialOnSuite(t *testing.T) {
	const tol = 1e-12
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, sys.N)
			for i := range x {
				// Small, mixed-sign iterate: keeps exponential device models in
				// range while exercising nonlinear stamps.
				x[i] = 0.05 * float64(i%7-3)
			}
			p := circuit.LoadParams{Time: 1e-9, Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1, FirstIter: true}

			serial := sys.NewWorkspace()
			serial.Load(x, p)

			for _, name := range []string{"classorder", "parallel"} {
				ws := loadGang(t, sys, name == "parallel", x, p)
				for i := range serial.F {
					if !equalUlpScale(serial.F[i], ws.F[i], tol) ||
						!equalUlpScale(serial.Q[i], ws.Q[i], tol) ||
						!equalUlpScale(serial.B[i], ws.B[i], tol) {
						t.Fatalf("%s: F/Q/B mismatch at row %d", name, i)
					}
				}
				for i := range serial.M.Values {
					if !equalUlpScale(serial.M.Values[i], ws.M.Values[i], tol) {
						t.Fatalf("%s: Jacobian mismatch at slot %d: %g vs %g",
							name, i, serial.M.Values[i], ws.M.Values[i])
					}
				}
				if serial.Limited != ws.Limited {
					t.Fatalf("%s: limited flag mismatch", name)
				}
			}
		})
	}
}
