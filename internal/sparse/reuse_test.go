package sparse

import (
	"errors"
	"testing"

	"wavepipe/internal/faults"
)

// factorCounts is the solver's call accounting in one comparable value.
type factorCounts struct{ full, refactor, reused, bypassed int }

func countsOf(s *Solver) factorCounts {
	return factorCounts{s.FullFactorizations, s.Refactorizations, s.ReusedFactorizations, s.BypassedFactorizations}
}

func wantCounts(t *testing.T, s *Solver, step string, want factorCounts) {
	t.Helper()
	if got := countsOf(s); got != want {
		t.Fatalf("%s: counts %+v, want %+v", step, got, want)
	}
}

// TestSolverExactReuse walks the reuse rule: unchanged values after a full
// factorization still refactor, unchanged values after a Refactor keep the
// LU bit for bit, and any changed bit refactors again.
func TestSolverExactReuse(t *testing.T) {
	m := tridiagMatrix(12)
	s := NewSolver(m, OrderMinDegree)
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, s, "first", factorCounts{full: 1})
	// Identical values after a full factorization: a Refactor may round
	// differently from the full elimination, so it still runs.
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, s, "after full", factorCounts{full: 1, refactor: 1})
	before := s.FactorState()
	for _, fresh := range []bool{false, true} {
		var err error
		if fresh {
			err = s.FactorizeFresh()
		} else {
			err = s.Factorize()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !s.LastReused || s.LastBypassed {
			t.Fatalf("fresh=%v: LastReused=%v LastBypassed=%v, want a reuse", fresh, s.LastReused, s.LastBypassed)
		}
	}
	wantCounts(t, s, "reuse", factorCounts{full: 1, refactor: 1, reused: 2})
	after := s.FactorState()
	bitsEqual(t, "lx", after.Lx, before.Lx)
	bitsEqual(t, "ux", after.Ux, before.Ux)
	bitsEqual(t, "ud", after.Ud, before.Ud)

	// One flipped low bit anywhere is a different matrix.
	m.Values[len(m.Values)-1] *= 1 + 1e-15
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	if s.LastReused {
		t.Fatal("changed values reported as a reuse")
	}
	wantCounts(t, s, "changed", factorCounts{full: 1, refactor: 2, reused: 2})

	// A restored factorization carries no snapshot: it refactors first.
	if err := s.RestoreFactor(s.FactorState()); err != nil {
		t.Fatal(err)
	}
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, s, "restored", factorCounts{full: 1, refactor: 3, reused: 2})
}

// TestSolverReusePrecedesBypass: with a bypass tolerance set, identical
// values after a Refactor are an exact reuse, not a stale-LU bypass, so the
// Newton guard has nothing to redo.
func TestSolverReusePrecedesBypass(t *testing.T) {
	m := tridiagMatrix(8)
	s := NewSolver(m, OrderMinDegree)
	s.BypassTol = 1e-3
	for i := 0; i < 2; i++ {
		if err := s.FactorizeFresh(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	if !s.LastReused || s.LastBypassed {
		t.Fatalf("LastReused=%v LastBypassed=%v, want an exact reuse", s.LastReused, s.LastBypassed)
	}
	m.Values[0] *= 1 + 1e-6
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	if s.LastReused || !s.LastBypassed {
		t.Fatalf("LastReused=%v LastBypassed=%v, want a bypass", s.LastReused, s.LastBypassed)
	}
	wantCounts(t, s, "bypass", factorCounts{full: 1, refactor: 1, reused: 1, bypassed: 1})
}

// TestSolverFailedFactorizationDropsLU is the regression for a stale LU
// surviving a failed factorization: a Refactor that hits a degenerate pivot
// followed by a full factorization that finds the matrix singular used to
// leave the half-refactored LU installed next to the old value snapshot, so
// presenting the old values again bypassed (or would reuse) onto garbage.
// Every failure must drop both, and the old values must factorize for real.
func TestSolverFailedFactorizationDropsLU(t *testing.T) {
	d := [][]float64{
		{4, 1},
		{1, 4},
	}
	m := FromDense(d)
	s := NewSolver(m, OrderNatural)
	s.BypassTol = 1e-3
	for i := 0; i < 2; i++ {
		if err := s.FactorizeFresh(); err != nil {
			t.Fatal(err)
		}
	}
	wantCounts(t, s, "setup", factorCounts{full: 1, refactor: 1})
	good := append([]float64(nil), m.Values...)

	// Singular: the stored pivot degenerates and the full factorization
	// finds no pivot either.
	for i := range m.Values {
		m.Values[i] = 0
	}
	if err := s.Factorize(); !errors.Is(err, faults.ErrSingular) {
		t.Fatalf("singular matrix: err = %v, want ErrSingular", err)
	}
	if s.LU() != nil {
		t.Fatal("failed factorization left an LU installed")
	}
	if err := s.Solve([]float64{1, 1}, make([]float64, 2)); err == nil {
		t.Fatal("Solve after a failed factorization must fail")
	}

	copy(m.Values, good)
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	if s.LastBypassed || s.LastReused {
		t.Fatalf("old values after a failure: LastBypassed=%v LastReused=%v, want a real factorization",
			s.LastBypassed, s.LastReused)
	}
	wantCounts(t, s, "recovered", factorCounts{full: 2, refactor: 1})
	x := make([]float64, 2)
	if err := s.Solve([]float64{5, 5}, x); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 1 {
		t.Fatalf("x = %v, want [1 1]", x)
	}
}
