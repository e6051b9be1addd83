package circuit

import (
	"math"
	"sync"
	"testing"

	"wavepipe/internal/sched"
)

// buildStubChain makes a chain of n stub conductances: device i bridges
// node i and node i+1, so adjacent devices conflict (shared node row) and
// non-adjacent ones do not — a circuit with a known two-colorable core.
func buildStubChain(t *testing.T, n int) (*Circuit, *System) {
	t.Helper()
	c := New("chain")
	nodes := make([]int, n+1)
	nodes[0] = Ground
	for i := 1; i <= n; i++ {
		nodes[i] = c.Node(string(rune('a' + i - 1)))
	}
	for i := 0; i < n; i++ {
		c.Add(&stubDevice{name: "S", p: nodes[i+1], n: nodes[i], g: float64(i%5) + 0.5})
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, sys
}

// TestColoringPartitionsDevices checks the structural invariants of the
// Build-time coloring: every device lands in exactly one class, and no two
// devices of a class share a node (the chain's only conflict source).
func TestColoringPartitionsDevices(t *testing.T) {
	c, sys := buildStubChain(t, 17)
	classes := sys.ColorClasses()
	if len(classes) < 2 {
		t.Fatalf("chain coloring produced %d classes", len(classes))
	}
	seen := make(map[int]bool)
	for _, class := range classes {
		for _, di := range class {
			if seen[di] {
				t.Fatalf("device %d in two classes", di)
			}
			seen[di] = true
		}
	}
	if len(seen) != len(c.devices) {
		t.Fatalf("coloring covers %d of %d devices", len(seen), len(c.devices))
	}
	// Adjacent chain devices conflict on the shared node and must be split.
	color := make([]int, len(c.devices))
	for cc, class := range classes {
		for _, di := range class {
			color[di] = cc
		}
	}
	for di := 1; di < len(c.devices); di++ {
		if color[di] == color[di-1] {
			t.Fatalf("adjacent devices %d and %d share color %d", di-1, di, color[di])
		}
	}
}

// loadSerial runs one plain serial Load on a fresh workspace.
func loadSerial(sys *System, x []float64, p LoadParams) *Workspace {
	ws := sys.NewWorkspace()
	ws.Load(x, p)
	return ws
}

// loadClassOrder runs one colored assembly in class order on the calling
// goroutine — the form a pool-attached load degrades to when its gang
// cannot run concurrently.
func loadClassOrder(sys *System, x []float64, p LoadParams) *Workspace {
	ws := sys.NewWorkspace()
	ws.colorLoadSerial(x, p)
	return ws
}

// gangWorkspace returns a fresh workspace with a gang pool of the given
// width attached; the pool is closed when the test ends.
func gangWorkspace(t *testing.T, sys *System, width int) *Workspace {
	t.Helper()
	pool := sched.NewPool(width)
	t.Cleanup(pool.Close)
	ws := sys.NewWorkspace()
	ws.SetPool(pool)
	return ws
}

// forceGang drives every pool concurrently, even on a single-CPU host,
// until the test ends.
func forceGang(t *testing.T) {
	sched.ForceGang.Store(true)
	t.Cleanup(func() { sched.ForceGang.Store(false) })
}

func assertStampsEqual(t *testing.T, a, b *Workspace, tol float64, what string) {
	t.Helper()
	diff := func(u, v float64) bool {
		scale := math.Max(1, math.Max(math.Abs(u), math.Abs(v)))
		return math.Abs(u-v) > tol*scale
	}
	for i := range a.F {
		if diff(a.F[i], b.F[i]) || diff(a.Q[i], b.Q[i]) || diff(a.B[i], b.B[i]) {
			t.Fatalf("%s: vector mismatch at row %d", what, i)
		}
	}
	for i := range a.M.Values {
		if diff(a.M.Values[i], b.M.Values[i]) {
			t.Fatalf("%s: matrix mismatch at slot %d: %g vs %g", what, i, a.M.Values[i], b.M.Values[i])
		}
	}
	if a.Limited != b.Limited {
		t.Fatalf("%s: limited flag mismatch", what)
	}
}

// TestColoredLoadMatchesSerial compares the colored direct-stamp assembly
// (both the degraded serial-class-order path and the pooled gang path)
// against the plain serial load.
func TestColoredLoadMatchesSerial(t *testing.T) {
	forceGang(t)
	_, sys := buildStubChain(t, 37)
	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.1 * float64(i%7)
	}
	p := LoadParams{Alpha0: 1e3, SrcScale: 0.7, NodeGmin: 1e-6}

	serial := loadSerial(sys, x, p)
	colored := loadClassOrder(sys, x, p)
	parallel := gangWorkspace(t, sys, 4)
	if !parallel.useColored() {
		t.Fatal("chain coloring judged unprofitable at 4 workers")
	}
	parallel.Load(x, p)
	assertStampsEqual(t, serial, colored, 1e-12, "colored vs serial")
	assertStampsEqual(t, serial, parallel, 1e-12, "parallel colored vs serial")

	// The degraded serial-class-order path and the parallel path accumulate
	// each row in the same class order: bit-identical, not just close.
	for i := range colored.M.Values {
		if colored.M.Values[i] != parallel.M.Values[i] {
			t.Fatalf("colored serial/parallel differ at slot %d", i)
		}
	}
	for i := range colored.F {
		if colored.F[i] != parallel.F[i] || colored.Q[i] != parallel.Q[i] || colored.B[i] != parallel.B[i] {
			t.Fatalf("colored serial/parallel vectors differ at row %d", i)
		}
	}
}

// TestColoredDegenerateStaysSerial builds a star: every device ties its own
// node to the shared hub, so all devices conflict, every class is a
// singleton and the estimated class-parallel speedup is 1. A pool-attached
// workspace must stay on the plain serial load (bit-identical stamps), and
// the class-order assembly of that coloring must still be correct.
func TestColoredDegenerateStaysSerial(t *testing.T) {
	forceGang(t)
	c := New("star")
	hub := c.Node("hub")
	for i := 0; i < 12; i++ {
		leaf := c.Node(string(rune('a' + i)))
		c.Add(&stubDevice{name: "S", p: leaf, n: hub, g: 1})
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if est := sys.ColoredSpeedupEstimate(4); est > 1.01 {
		t.Fatalf("star speedup estimate = %g, want ~1", est)
	}
	pooled := gangWorkspace(t, sys, 4)
	if pooled.useColored() {
		t.Fatal("pool-attached workspace chose colored for a degenerate star coloring")
	}
	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.05 * float64(i)
	}
	p := LoadParams{Alpha0: 10, SrcScale: 1}
	pooled.Load(x, p)
	serial := loadSerial(sys, x, p)
	assertStampsEqual(t, serial, pooled, 0, "pool-attached star")
	assertStampsEqual(t, serial, loadClassOrder(sys, x, p), 1e-12, "class-order star")
}

// TestColoredLoadConcurrentWorkspaces drives several workspaces through the
// pooled colored path at once, the sharing pattern of the pipeline engines;
// run under -race this checks the barrier discipline.
func TestColoredLoadConcurrentWorkspaces(t *testing.T) {
	forceGang(t)
	_, sys := buildStubChain(t, 24)
	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.02 * float64(i%11)
	}
	p := LoadParams{Alpha0: 1e6, SrcScale: 1}
	ref := loadSerial(sys, x, p)

	var wg sync.WaitGroup
	results := make([]*Workspace, 6)
	for w := range results {
		results[w] = gangWorkspace(t, sys, 3)
		wg.Add(1)
		go func(ws *Workspace) {
			defer wg.Done()
			for rep := 0; rep < 25; rep++ {
				ws.Load(x, p)
			}
		}(results[w])
	}
	wg.Wait()
	for _, ws := range results {
		assertStampsEqual(t, ref, ws, 1e-12, "concurrent colored load")
	}
}

// TestColoredSpeedupEstimateChain sanity-checks the profitability estimate
// the pool-attached load gates colorings with: a long two-colorable chain
// should parallelize nearly ideally.
func TestColoredSpeedupEstimateChain(t *testing.T) {
	_, sys := buildStubChain(t, 64)
	if est := sys.ColoredSpeedupEstimate(4); est < 2.5 {
		t.Fatalf("chain estimate at 4 workers = %g, want near 4", est)
	}
	if est := sys.ColoredSpeedupEstimate(1); math.Abs(est-1) > 1e-9 {
		t.Fatalf("single-worker estimate = %g, want 1", est)
	}
}
