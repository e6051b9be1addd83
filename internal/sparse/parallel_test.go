package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wavepipe/internal/sched"
)

// meshMatrix builds the 5-point Laplacian-like pattern of a side×side power
// grid — the structure with the widest elimination levels in the suite.
func meshMatrix(side int, rng *rand.Rand) *Matrix {
	n := side * side
	b := NewBuilder(n)
	at := func(i, j int) int { return i*side + j }
	type stamp struct {
		slot int
		val  float64
	}
	var stamps []stamp
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			u := at(i, j)
			stamps = append(stamps, stamp{b.Reserve(u, u), 4.1 + 0.1*rng.Float64()})
			if i+1 < side {
				v := at(i+1, j)
				g := -1 - 0.05*rng.Float64()
				stamps = append(stamps, stamp{b.Reserve(u, v), g}, stamp{b.Reserve(v, u), g})
			}
			if j+1 < side {
				v := at(i, j+1)
				g := -1 - 0.05*rng.Float64()
				stamps = append(stamps, stamp{b.Reserve(u, v), g}, stamp{b.Reserve(v, u), g})
			}
		}
	}
	m := b.Compile()
	for _, s := range stamps {
		m.Add(s.slot, s.val)
	}
	return m
}

// tridiagMatrix builds a chain: every elimination level holds one column, so
// the schedule must stay serial.
func tridiagMatrix(n int) *Matrix {
	b := NewBuilder(n)
	var slots []int
	var vals []float64
	for i := 0; i < n; i++ {
		slots = append(slots, b.Reserve(i, i))
		vals = append(vals, 3)
		if i+1 < n {
			slots = append(slots, b.Reserve(i, i+1), b.Reserve(i+1, i))
			vals = append(vals, -1, -1)
		}
	}
	m := b.Compile()
	for k, s := range slots {
		m.Add(s, vals[k])
	}
	return m
}

func forcedPool(t *testing.T, n int) *sched.Pool {
	t.Helper()
	p := sched.NewPool(n)
	if p == nil {
		t.Fatalf("NewPool(%d) = nil", n)
	}
	p.Force = true
	t.Cleanup(p.Close)
	return p
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %x (%g) != serial %x (%g)",
				name, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

// TestRefactorParallelBitIdentical factorizes the same mesh twice, perturbs
// the values, refactors one copy serially and one level-scheduled, and
// demands bitwise-equal factors.
func TestRefactorParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := meshMatrix(24, rng)
	serial, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	pool := forcedPool(t, 4)
	info := par.Schedule(pool.Workers())
	if !info.RefactorParallel {
		t.Fatalf("mesh schedule not parallel: %+v", info)
	}
	for round := 0; round < 5; round++ {
		for i := range m.Values {
			m.Values[i] *= 1 + 0.01*rng.NormFloat64()
		}
		if err := serial.Refactor(m); err != nil {
			t.Fatalf("round %d serial: %v", round, err)
		}
		if err := par.RefactorParallel(m, pool); err != nil {
			t.Fatalf("round %d parallel: %v", round, err)
		}
		bitsEqual(t, "lx", par.lx, serial.lx)
		bitsEqual(t, "ux", par.ux, serial.ux)
		bitsEqual(t, "ud", par.ud, serial.ud)
	}
}

// TestSolveParallelBitIdentical checks the row-oriented level-scheduled
// triangular solves reproduce the serial column sweeps bit for bit,
// including structurally-zero right-hand sides (the skip-on-zero paths).
func TestSolveParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := meshMatrix(24, rng)
	lu, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	pool := forcedPool(t, 4)
	n := m.N()
	scratchS := make([]float64, n)
	scratchP := make([]float64, n)
	xs := make([]float64, n)
	xp := make([]float64, n)
	rhs := make([]float64, n)
	for round := 0; round < 6; round++ {
		for i := range rhs {
			switch {
			case round == 0 && i%3 != 0:
				rhs[i] = 0 // sparse rhs: exercises the zero skips
			case round == 1 && i%2 == 0:
				rhs[i] = math.Copysign(0, -1) // negative zeros must survive
			default:
				rhs[i] = rng.NormFloat64()
			}
		}
		lu.SolveWith(rhs, xs, scratchS)
		lu.SolveParallelWith(rhs, xp, scratchP, pool)
		bitsEqual(t, "x", xp, xs)
	}
	// Aliased solve (b == x), as used by iterative refinement.
	copy(xs, rhs)
	copy(xp, rhs)
	lu.SolveWith(xs, xs, scratchS)
	lu.SolveParallelWith(xp, xp, scratchP, pool)
	bitsEqual(t, "aliased x", xp, xs)
}

// TestSolverSchedBitIdentical runs the whole Solver path (factorize,
// refactor loop, solve with refinement) with and without an attached gang
// and compares every solution bitwise.
func TestSolverSchedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m1 := meshMatrix(24, rng)
	mp := meshMatrix(24, rand.New(rand.NewSource(3))) // identical values: same seed
	for i := range m1.Values {
		if m1.Values[i] != mp.Values[i] {
			t.Fatal("seeded mesh copies differ")
		}
	}
	ss := NewSolver(m1, OrderMinDegree)
	sp := NewSolver(mp, OrderMinDegree)
	sp.Sched = forcedPool(t, 3)
	ss.Refine = true
	sp.Refine = true
	n := m1.N()
	xs := make([]float64, n)
	xp := make([]float64, n)
	rhs := make([]float64, n)
	for round := 0; round < 4; round++ {
		scale := 1 + 0.02*rng.NormFloat64()
		for i := range m1.Values {
			m1.Values[i] *= scale
			mp.Values[i] *= scale
		}
		if err := ss.FactorizeFresh(); err != nil {
			t.Fatal(err)
		}
		if err := sp.FactorizeFresh(); err != nil {
			t.Fatal(err)
		}
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		if err := ss.Solve(rhs, xs); err != nil {
			t.Fatal(err)
		}
		if err := sp.Solve(rhs, xp); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "solver x", xp, xs)
	}
	if sp.Refactorizations == 0 {
		t.Fatal("scheduled solver never took the refactor path")
	}
}

// TestRefactorParallelDetectsDegeneratePivot mirrors the serial degenerate
// pivot test: after zeroing the matrix diagonal region that backed a pivot,
// the parallel refactor must return ErrRefactorPivot and the pool must stay
// usable.
func TestRefactorParallelDetectsDegeneratePivot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := meshMatrix(16, rng)
	lu, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	pool := forcedPool(t, 4)
	// Collapse the values so every stored pivot becomes degenerate relative
	// to its column.
	for i := range m.Values {
		m.Values[i] = 0
	}
	m.Values[0] = 1
	if err := lu.RefactorParallel(m, pool); !errors.Is(err, ErrRefactorPivot) {
		t.Fatalf("err = %v, want ErrRefactorPivot", err)
	}
	// Pool still serviceable after the abandoned gang.
	ok := 0
	pool.Run(func(w int) {
		if w == 0 {
			ok = 1
		}
	})
	if ok != 1 {
		t.Fatal("pool unusable after pivot failure")
	}
}

// TestScheduleGating checks the profitability gates: mesh refactors
// parallelize, the cheaper triangular solves need a much larger pattern,
// and chains stay fully serial (one column per level prices itself out via
// the modeled barrier cost).
func TestScheduleGating(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mesh := meshMatrix(32, rng)
	lum, err := Factorize(mesh, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	mi := lum.Schedule(4)
	t.Logf("mesh 32x32: %+v", mi)
	if !mi.RefactorParallel {
		t.Errorf("mesh refactor gated off: %+v", mi)
	}
	if mi.SolveParallel {
		t.Errorf("mesh 32x32 solve should stay serial at nw=4: %+v", mi)
	}

	big := meshMatrix(48, rng)
	lub, err := Factorize(big, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	bi := lub.Schedule(8)
	t.Logf("mesh 48x48: %+v", bi)
	if !bi.RefactorParallel || !bi.SolveParallel {
		t.Errorf("mesh 48x48 at nw=8 should parallelize both: %+v", bi)
	}

	chain := tridiagMatrix(1024)
	luc, err := Factorize(chain, OrderNatural, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	ci := luc.Schedule(4)
	t.Logf("tridiag 1024: %+v", ci)
	if ci.RefactorParallel || ci.SolveParallel {
		t.Errorf("chain schedule not gated off: %+v", ci)
	}
}
