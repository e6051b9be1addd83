package wavepipe

// Benchmark harness: one testing.B benchmark per evaluation table and
// figure (see DESIGN.md experiment index). Each benchmark simulates a
// representative circuit of the corresponding experiment and reports the
// deterministic critical-path metrics alongside wall time:
//
//	stages  — sequential solve rounds (the multi-core critical-path length)
//	points  — accepted time points
//
// cmd/wavebench regenerates the full tables across the whole suite; these
// benchmarks are the per-experiment entry points for `go test -bench`.

import (
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/integrate"
	"wavepipe/internal/num"
	"wavepipe/internal/sched"
)

// loadOnce assembles the grid system once at a transient-like operating
// point (Alpha0 > 0 engages the reactive stamps).
func loadOnce(b *testing.B, ws *circuit.Workspace, x []float64) {
	b.Helper()
	ws.Load(x, circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1})
}

// benchWindowScale keeps single benchmark iterations in the tens of
// milliseconds so `go test -bench=.` stays practical.
const benchWindowScale = 0.25

func findBenchmark(b *testing.B, name string) (sys *System, opts TranOptions) {
	b.Helper()
	for _, bb := range circuits.Suite() {
		if bb.Name != name {
			continue
		}
		s, err := bb.Make().Build()
		if err != nil {
			b.Fatal(err)
		}
		return s, TranOptions{
			TStop:  bb.TStop * benchWindowScale,
			Record: []string{bb.Probe},
		}
	}
	b.Fatalf("no benchmark circuit %q", name)
	return nil, TranOptions{}
}

func runScheme(b *testing.B, circuitName string, scheme Scheme, threads int) {
	sys, opts := findBenchmark(b, circuitName)
	opts.Scheme = scheme
	opts.Threads = threads
	var last *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunTransient(sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Stats.Stages), "stages")
	b.ReportMetric(float64(last.Stats.Points), "points")
}

// Table 1 is regenerated by construction: building every suite circuit.
func BenchmarkTable1_BuildSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bb := range circuits.Suite() {
			if _, err := bb.Make().Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Table 2: backward pipelining vs serial.
func BenchmarkTable2_Grid16_Serial(b *testing.B) { runScheme(b, "grid16", Serial, 1) }

// Same workload with the incremental assembly engine on: template way
// buffers and bypass journals are allocated once per workspace and reused,
// so the steady-state alloc count must stay within a hair of the plain run.
func BenchmarkTable2_Grid16_Serial_DevBypass(b *testing.B) {
	sys, opts := findBenchmark(b, "grid16")
	opts.Scheme = Serial
	opts.Threads = 1
	opts.DeviceBypass = true
	var last *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunTransient(sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Stats.Stages), "stages")
	b.ReportMetric(float64(last.Stats.LinearStampHits), "linhits")
}
func BenchmarkTable2_Grid16_BWP2(b *testing.B)   { runScheme(b, "grid16", Backward, 2) }
func BenchmarkTable2_Grid16_BWP3(b *testing.B)   { runScheme(b, "grid16", Backward, 3) }
func BenchmarkTable2_Ladder_Serial(b *testing.B) { runScheme(b, "ladder400", Serial, 1) }
func BenchmarkTable2_Ladder_BWP2(b *testing.B)   { runScheme(b, "ladder400", Backward, 2) }
func BenchmarkTable2_Rect1k_Serial(b *testing.B) { runScheme(b, "rect1k", Serial, 1) }
func BenchmarkTable2_Rect1k_BWP2(b *testing.B)   { runScheme(b, "rect1k", Backward, 2) }

// Table 3: forward pipelining vs serial.
func BenchmarkTable3_Rect1k_FWP2(b *testing.B)  { runScheme(b, "rect1k", Forward, 2) }
func BenchmarkTable3_Ring9_Serial(b *testing.B) { runScheme(b, "ring9", Serial, 1) }
func BenchmarkTable3_Ring9_FWP2(b *testing.B)   { runScheme(b, "ring9", Forward, 2) }

// Table 4: combined WavePipe.
func BenchmarkTable4_Grid16_CMB3(b *testing.B)  { runScheme(b, "grid16", Combined, 3) }
func BenchmarkTable4_Grid16_CMB4(b *testing.B)  { runScheme(b, "grid16", Combined, 4) }
func BenchmarkTable4_Nand5_Serial(b *testing.B) { runScheme(b, "nand5", Serial, 1) }
func BenchmarkTable4_Nand5_CMB4(b *testing.B)   { runScheme(b, "nand5", Combined, 4) }

// Figure F1 (step-size trace): serial vs backward on the rectifier, the
// circuit whose trace the figure plots.
func BenchmarkFig1_StepTrace_BWP2(b *testing.B) { runScheme(b, "rect1k", Backward, 2) }

// Figure F2 (accuracy): the comparison cost itself — run both engines and
// compare waveforms.
func BenchmarkFig2_Accuracy_Ring9(b *testing.B) {
	sys, opts := findBenchmark(b, "ring9")
	for i := 0; i < b.N; i++ {
		ref, err := RunTransient(sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		wp := opts
		wp.Scheme = Combined
		wp.Threads = 4
		res, err := RunTransient(sys, wp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Compare(res.W, ref.W, "s0"); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure F3 (scaling): thread sweep on the large grid.
func BenchmarkFig3_Grid24_Serial(b *testing.B) { runScheme(b, "grid24", Serial, 1) }
func BenchmarkFig3_Grid24_BWP2(b *testing.B)   { runScheme(b, "grid24", Backward, 2) }
func BenchmarkFig3_Grid24_BWP4(b *testing.B)   { runScheme(b, "grid24", Backward, 4) }
func BenchmarkFig3_Grid24_CMB4(b *testing.B)   { runScheme(b, "grid24", Combined, 4) }
func BenchmarkFig3_Grid24_FG4(b *testing.B)    { runScheme(b, "grid24", FineGrained, 4) }

// Figure F4 (work overhead): the combined scheme's total work on the RLC
// tree, the highest-point-count circuit.
func BenchmarkFig4_RLCTree_CMB4(b *testing.B) { runScheme(b, "rlctree8", Combined, 4) }

// Ablation A1: backward offset ratio sweep.
func BenchmarkAblationDelta_Small(b *testing.B) {
	sys, opts := findBenchmark(b, "grid16")
	opts.Scheme = Backward
	opts.Threads = 2
	opts.DeltaRatio = 0.05
	for i := 0; i < b.N; i++ {
		if _, err := RunTransient(sys, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDelta_Large(b *testing.B) {
	sys, opts := findBenchmark(b, "grid16")
	opts.Scheme = Backward
	opts.Threads = 2
	opts.DeltaRatio = 0.5
	for i := 0; i < b.N; i++ {
		if _, err := RunTransient(sys, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation A2: growth-cap policy.
func BenchmarkAblationGrowth_PerPoint(b *testing.B) {
	sys, opts := findBenchmark(b, "ladder400")
	opts.Scheme = Combined
	opts.Threads = 4
	opts.AggressiveGrowth = true
	for i := 0; i < b.N; i++ {
		if _, err := RunTransient(sys, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate micro-benchmarks: the sparse kernel dominates per-iteration
// cost; track it separately.
func BenchmarkSparseLUFactorGrid(b *testing.B) {
	sys, _ := findBenchmark(b, "grid24")
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Solver.Factorize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseSolveGrid(b *testing.B) {
	sys, _ := findBenchmark(b, "grid24")
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	if err := ws.Solver.Factorize(); err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, sys.N)
	rhs[0] = 1
	out := make([]float64, sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Solver.Solve(rhs, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceLoadGrid(b *testing.B) {
	sys, _ := findBenchmark(b, "grid24")
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadOnce(b, ws, x)
	}
}

// The same full device load on a pooled gang of width 2 — the one parallel
// load path (the name shares the BenchmarkDeviceLoadGrid prefix so one
// -bench regex covers the family).
func BenchmarkDeviceLoadGridPooled2(b *testing.B) {
	sys, _ := findBenchmark(b, "grid24")
	ws := sys.NewWorkspace()
	attachGang(b, ws, 2)
	x := make([]float64, sys.N)
	loadOnce(b, ws, x) // warm up the gang outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadOnce(b, ws, x)
	}
}

// Level-scheduled sparse kernels: numeric refactorization and triangular
// solve with and without an attached gang. The kernels gate themselves per
// pattern (small or chain-like structures price the per-level barriers out),
// so the pooled variants report what the production path actually runs —
// bit-identical results either way.
func attachGang(b *testing.B, ws *circuit.Workspace, gang int) {
	b.Helper()
	if gang <= 1 {
		return
	}
	pool := sched.NewPool(gang)
	if pool == nil {
		b.Fatalf("NewPool(%d) = nil", gang)
	}
	sched.ForceGang.Store(true) // run the gang even on 1-core hosts
	b.Cleanup(func() {
		sched.ForceGang.Store(false)
		pool.Close()
	})
	ws.SetPool(pool)
}

func benchSparseRefactor(b *testing.B, name string, gang int) {
	sys, _ := findBenchmark(b, name)
	ws := sys.NewWorkspace()
	attachGang(b, ws, gang)
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	if err := ws.Solver.Factorize(); err != nil { // pivot sequence + level schedule
		b.Fatal(err)
	}
	// Alternate one matrix entry between two values: a solver that sees
	// bit-identical values keeps its LU, and this benchmark times the
	// numeric refactorization itself.
	vals := ws.Solver.M.Values
	v0 := vals[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = v0 * (1 + 1e-12*float64(i&1))
		if err := ws.Solver.FactorizeFresh(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSparseSolve(b *testing.B, name string, gang int) {
	sys, _ := findBenchmark(b, name)
	ws := sys.NewWorkspace()
	attachGang(b, ws, gang)
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	if err := ws.Solver.Factorize(); err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, sys.N)
	rhs[0] = 1
	out := make([]float64, sys.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Solver.Solve(rhs, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseRefactor_Grid16_Serial(b *testing.B) { benchSparseRefactor(b, "grid16", 1) }
func BenchmarkSparseRefactor_Grid16_Pool4(b *testing.B)  { benchSparseRefactor(b, "grid16", 4) }
func BenchmarkSparseRefactor_Grid32_Serial(b *testing.B) { benchSparseRefactor(b, "grid32", 1) }
func BenchmarkSparseRefactor_Grid32_Pool4(b *testing.B)  { benchSparseRefactor(b, "grid32", 4) }
func BenchmarkSparseRefactor_Grid32_Pool8(b *testing.B)  { benchSparseRefactor(b, "grid32", 8) }

func BenchmarkSparseSolve_Grid16_Serial(b *testing.B) { benchSparseSolve(b, "grid16", 1) }
func BenchmarkSparseSolve_Grid16_Pool4(b *testing.B)  { benchSparseSolve(b, "grid16", 4) }
func BenchmarkSparseSolve_Grid32_Serial(b *testing.B) { benchSparseSolve(b, "grid32", 1) }
func BenchmarkSparseSolve_Grid32_Pool4(b *testing.B)  { benchSparseSolve(b, "grid32", 4) }
func BenchmarkSparseSolve_Grid32_Pool8(b *testing.B)  { benchSparseSolve(b, "grid32", 8) }

// The RLC tree's factor is very sparse, so its triangular solve is
// dominated by per-column loop overhead rather than multiply-adds.
func BenchmarkSparseSolve_RLCTree8_Serial(b *testing.B) { benchSparseSolve(b, "rlctree8", 1) }

// BenchmarkSparseLTE_RLCTree8 times the per-unknown step-control kernels
// on the RLC tree's unknowns: the Gear-2 truncation-error norm over four
// points and the quadratic predictor over three, on unevenly spaced times.
func BenchmarkSparseLTE_RLCTree8(b *testing.B) {
	sys, _ := findBenchmark(b, "rlctree8")
	ts := []float64{1e-9, 1.3e-9, 1.45e-9, 1.9e-9}
	pts := make([]*integrate.Point, len(ts))
	for j, t := range ts {
		x := make([]float64, sys.N)
		for i := range x {
			x[i] = math.Sin(float64(i)*0.01 + t*1e9)
		}
		pts[j] = &integrate.Point{T: t, X: x}
	}
	hist := [][]float64{pts[1].X, pts[2].X, pts[3].X}
	dst := make([]float64, sys.N)
	tol := num.DefaultTolerances()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = integrate.DerivNorm(pts, 2, tol)
		num.PredictVectorAt(ts[1:], hist, 2.2e-9, dst)
	}
}

// benchSink keeps benchmarked results live.
var benchSink float64
