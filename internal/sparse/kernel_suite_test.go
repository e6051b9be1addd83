package sparse_test

import (
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/sparse"
)

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%g), reference %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestKernelsMatchReferenceOnSuite assembles every suite circuit's matrix at
// two transient-like operating points, factorizes the first, and refactors
// and solves the second with the production kernels and with the reference
// copies: L, U, the pivots' diagonal and the solutions must agree bit for
// bit.
func TestKernelsMatchReferenceOnSuite(t *testing.T) {
	for _, b := range circuits.Suite() {
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			ws := sys.NewWorkspace()
			x := make([]float64, sys.N)
			for i := range x {
				x[i] = 0.1 * float64(i%7)
			}
			p := circuit.LoadParams{Alpha0: 1 / b.TStop, Gmin: 1e-12, SrcScale: 1, FirstIter: true}
			ws.Load(x, p)
			if err := ws.Solver.Factorize(); err != nil {
				t.Fatal(err)
			}
			st := ws.Solver.FactorState()
			p.Alpha0 *= 3.7
			p.FirstIter = false
			ws.Load(x, p)
			m := ws.Solver.M

			got, err := sparse.RestoreLU(st)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := sparse.RestoreLU(st)
			gotErr := got.Refactor(m)
			wantOK := sparse.RefRefactor(want, m)
			if gotErr != nil || !wantOK {
				t.Fatalf("Refactor err = %v, reference ok = %v", gotErr, wantOK)
			}
			gs, ws2 := got.State(), want.State()
			sameBits(t, "lx", gs.Lx, ws2.Lx)
			sameBits(t, "ux", gs.Ux, ws2.Ux)
			sameBits(t, "ud", gs.Ud, ws2.Ud)

			rhs := make([]float64, sys.N)
			for i := range rhs {
				rhs[i] = math.Sin(float64(i)) + 1e-3*float64(i%3)
			}
			gx := make([]float64, sys.N)
			wx := make([]float64, sys.N)
			got.SolveWith(rhs, gx, make([]float64, sys.N))
			sparse.RefSolveWith(want, rhs, wx, make([]float64, sys.N))
			sameBits(t, "x", gx, wx)
		})
	}
}
