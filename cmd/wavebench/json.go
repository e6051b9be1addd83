package main

// Machine-readable metrics (-json) and the load-scaling figure: the
// measurements that seed BENCH_*.json perf-trajectory tracking and the
// EXPERIMENTS.md serial-vs-pooled device-load comparison.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"wavepipe"
	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
	"wavepipe/internal/sched"
	wpcore "wavepipe/internal/wavepipe"
)

// benchMetrics is one benchmark's machine-readable record.
type benchMetrics struct {
	Circuit                string  `json:"circuit"`
	Scheme                 string  `json:"scheme"`
	GOMAXPROCS             int     `json:"gomaxprocs"`
	NsPerOp                int64   `json:"ns_per_op"`
	AllocsPerOp            uint64  `json:"allocs_per_op"`
	Points                 int     `json:"points"`
	Stages                 int     `json:"stages"`
	NRIters                int     `json:"nr_iters"`
	BypassTol              float64 `json:"bypass_tol"`
	BypassedFactorizations int     `json:"bypassed_factorizations"`
	ReusedFactorizations   int     `json:"reused_factorizations"`
	Refactorizations       int     `json:"refactorizations"`
	FullFactorizations     int     `json:"full_factorizations"`
	// Incremental-assembly metadata (zero values when -devbypass is unset).
	DeviceBypass    bool  `json:"device_bypass"`
	BypassedEvals   int64 `json:"bypassed_evals"`
	LinearStampHits int64 `json:"linear_stamp_hits"`
	LoadSerialNs    int64 `json:"load_serial_ns"`
	// LoadGang4Ns is one device load on a pool-attached workspace with a
	// gang of width 4 (colored direct stamping when the coloring pays).
	LoadGang4Ns int64 `json:"load_colored4_ns"`
	// Two-level scheduling metadata (zero values when -cores is unset).
	CoreBudget         int  `json:"core_budget"`
	PipelineWorkers    int  `json:"pipeline_workers"`
	IntraWorkers       int  `json:"intra_workers"`
	PipelineSerialized bool `json:"pipeline_serialized"`
}

// measureLoadNs returns the fastest observed wall time of one full device
// load on a workspace with a gang pool of the given width attached (gang <= 1
// is the plain serial path).
func measureLoadNs(sys *circuit.System, gang int) int64 {
	ws := sys.NewWorkspace()
	pool := sched.NewPool(gang)
	defer pool.Close()
	ws.SetPool(pool)
	x := make([]float64, sys.N)
	p := circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1}
	ws.Load(x, p) // warm up (coloring probe, pools)
	const iters = 20
	best := int64(0)
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			ws.Load(x, p)
		}
		d := time.Since(start).Nanoseconds() / iters
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// jsonMetrics runs the selected circuit once per configuration and emits a
// JSON array of benchMetrics on stdout.
func jsonMetrics(benchName string, bypassTol float64, coreBudget int, devBypass bool) error {
	var records []benchMetrics
	for _, b := range circuits.Suite() {
		if benchName != "all" && b.Name != benchName {
			continue
		}
		sys, err := build(b)
		if err != nil {
			return err
		}
		loadSerial := measureLoadNs(sys, 1)
		loadGang4 := measureLoadNs(sys, 4)
		opts := wavepipe.TranOptions{
			TStop:        window(b),
			Record:       []string{b.Probe},
			BypassTol:    bypassTol,
			CoreBudget:   coreBudget,
			DeviceBypass: devBypass,
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := wavepipe.RunTransient(sys, opts)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		records = append(records, benchMetrics{
			Circuit:                b.Name,
			Scheme:                 "serial",
			GOMAXPROCS:             runtime.GOMAXPROCS(0),
			NsPerOp:                wall.Nanoseconds(),
			AllocsPerOp:            ms1.Mallocs - ms0.Mallocs,
			Points:                 res.Stats.Points,
			Stages:                 res.Stats.Stages,
			NRIters:                res.Stats.NRIters,
			BypassTol:              bypassTol,
			BypassedFactorizations: res.Stats.BypassedFactorizations,
			ReusedFactorizations:   res.Stats.ReusedFactorizations,
			Refactorizations:       res.Stats.Refactorizations,
			FullFactorizations:     res.Stats.FullFactorizations,
			DeviceBypass:           devBypass,
			BypassedEvals:          res.Stats.BypassedEvals,
			LinearStampHits:        res.Stats.LinearStampHits,
			LoadSerialNs:           loadSerial,
			LoadGang4Ns:            loadGang4,
			CoreBudget:             res.Stats.CoreBudget,
			PipelineWorkers:        res.Stats.PipelineWorkers,
			IntraWorkers:           res.Stats.IntraWorkers,
			PipelineSerialized:     res.Stats.PipelineSerialized,
		})
	}
	if len(records) == 0 {
		return fmt.Errorf("no benchmark circuit %q", benchName)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// coreScaleRecord is one point of the core-budget scaling sweep.
type coreScaleRecord struct {
	Circuit            string  `json:"circuit"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	Scheme             string  `json:"scheme"`
	CoreBudget         int     `json:"core_budget"`
	PipelineWorkers    int     `json:"pipeline_workers"`
	IntraWorkers       int     `json:"intra_workers"`
	PipelineSerialized bool    `json:"pipeline_serialized"`
	WallNs             int64   `json:"wall_ns"`
	Speedup            float64 `json:"speedup"`
}

// figCoreScale sweeps the core budget from 1 to maxCores on one circuit:
// budget 1 is the serial baseline; larger budgets run the combined WavePipe
// scheme with 2-4 pipeline workers and hand the remainder to the intra-point
// gangs. Speedups are measured wall-clock ratios against budget 1, so on a
// host with fewer cores than the budget they show the oversubscription
// cost; the recorded GOMAXPROCS and pipeline_serialized fields say what
// each point actually ran with.
func figCoreScale(benchName string, maxCores int, jsonOut bool) error {
	if maxCores <= 0 {
		maxCores = runtime.NumCPU()
	}
	b, ok := findBench(benchName)
	if !ok {
		return fmt.Errorf("no benchmark circuit %q", benchName)
	}
	sys, err := build(b)
	if err != nil {
		return err
	}
	base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
	var records []coreScaleRecord
	var serialWall time.Duration
	for budget := 1; budget <= maxCores; budget++ {
		opts := base
		opts.CoreBudget = budget
		if budget == 1 {
			opts.Scheme = wavepipe.Serial
		} else {
			// Split policy: see wpcore.PlanThreads.
			opts.Scheme = wavepipe.Combined
			opts.Threads = wpcore.PlanThreads(budget)
		}
		wall, res, err := timed(sys, opts)
		if err != nil {
			return err
		}
		if budget == 1 {
			serialWall = wall
		}
		records = append(records, coreScaleRecord{
			Circuit:            b.Name,
			GOMAXPROCS:         runtime.GOMAXPROCS(0),
			Scheme:             opts.Scheme.String(),
			CoreBudget:         budget,
			PipelineWorkers:    res.Stats.PipelineWorkers,
			IntraWorkers:       res.Stats.IntraWorkers,
			PipelineSerialized: res.Stats.PipelineSerialized,
			WallNs:             wall.Nanoseconds(),
			Speedup:            float64(serialWall) / float64(wall),
		})
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	fmt.Printf("Figure F7: speedup vs core budget (%s, GOMAXPROCS=%d)\n", b.Name, runtime.GOMAXPROCS(0))
	fmt.Println("budget,scheme,pipeline,intra,serialized,wall_ms,speedup")
	for _, r := range records {
		fmt.Printf("%d,%s,%d,%d,%v,%.2f,%.2f\n",
			r.CoreBudget, r.Scheme, r.PipelineWorkers, r.IntraWorkers, r.PipelineSerialized,
			float64(r.WallNs)/1e6, r.Speedup)
	}
	return nil
}

// bypassScaleRecord is one point of the incremental-assembly sweep.
type bypassScaleRecord struct {
	Circuit      string `json:"circuit"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Scheme       string `json:"scheme"`
	Threads      int    `json:"threads"`
	DeviceBypass bool   `json:"device_bypass"`
	WallNs       int64  `json:"wall_ns"`
	// Speedup is the wall-clock ratio against the serial bypass-off
	// baseline of the same circuit, so the device-level and pipeline-level
	// gains compose in one column.
	Speedup         float64 `json:"speedup"`
	Points          int     `json:"points"`
	NRIters         int     `json:"nr_iters"`
	BypassedEvals   int64   `json:"bypassed_evals"`
	LinearStampHits int64   `json:"linear_stamp_hits"`
	// LinearHitRate is LinearStampHits per Newton iteration (every iteration
	// performs one device load); BypassPerIter is the mean number of device
	// evaluations answered by journal replay per load.
	LinearHitRate float64 `json:"linear_hit_rate"`
	BypassPerIter float64 `json:"bypass_per_iter"`
}

// figBypassScale measures how the incremental assembly engine (linear-stamp
// template caching + SPICE-style device bypass) composes with WavePipe
// pipelining: serial and combined 2-4T, each with device bypass off and on,
// reported against the serial bypass-off baseline (reconstruction F8).
func figBypassScale(benchName string, jsonOut bool) error {
	var records []bypassScaleRecord
	for _, b := range circuits.Suite() {
		if benchName != "all" && b.Name != benchName {
			continue
		}
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		type cfg struct {
			scheme  wavepipe.Scheme
			threads int
		}
		cfgs := []cfg{{wavepipe.Serial, 1}, {wavepipe.Combined, 2}, {wavepipe.Combined, 3}, {wavepipe.Combined, 4}}
		var serialWall time.Duration
		for _, c := range cfgs {
			for _, bypass := range []bool{false, true} {
				opts := base
				opts.Scheme = c.scheme
				if c.scheme != wavepipe.Serial {
					opts.Threads = c.threads
				}
				opts.DeviceBypass = bypass
				wall, res, err := timed(sys, opts)
				if err != nil {
					return err
				}
				if c.scheme == wavepipe.Serial && !bypass {
					serialWall = wall
				}
				rec := bypassScaleRecord{
					Circuit:         b.Name,
					GOMAXPROCS:      runtime.GOMAXPROCS(0),
					Scheme:          opts.Scheme.String(),
					Threads:         c.threads,
					DeviceBypass:    bypass,
					WallNs:          wall.Nanoseconds(),
					Speedup:         float64(serialWall) / float64(wall),
					Points:          res.Stats.Points,
					NRIters:         res.Stats.NRIters,
					BypassedEvals:   res.Stats.BypassedEvals,
					LinearStampHits: res.Stats.LinearStampHits,
				}
				if res.Stats.NRIters > 0 {
					rec.LinearHitRate = float64(res.Stats.LinearStampHits) / float64(res.Stats.NRIters)
					rec.BypassPerIter = float64(res.Stats.BypassedEvals) / float64(res.Stats.NRIters)
				}
				records = append(records, rec)
			}
		}
	}
	if len(records) == 0 {
		return fmt.Errorf("no benchmark circuit %q", benchName)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	fmt.Printf("Figure F8: incremental assembly x WavePipe (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Println("circuit,scheme,threads,devbypass,wall_ms,speedup,points,nr_iters,linear_hit_rate,bypass_per_iter")
	for _, r := range records {
		fmt.Printf("%s,%s,%d,%v,%.2f,%.2f,%d,%d,%.3f,%.2f\n",
			r.Circuit, r.Scheme, r.Threads, r.DeviceBypass,
			float64(r.WallNs)/1e6, r.Speedup,
			r.Points, r.NRIters, r.LinearHitRate, r.BypassPerIter)
	}
	fmt.Println("speedup is the wall-clock ratio vs the serial devbypass=false baseline")
	return nil
}

// figLoadScale prints the device-load scaling figure: one full device load
// serially and on a pooled gang at every width from 2 to NumCPU, per suite
// circuit. A pool-attached load whose coloring is degenerate at a width
// stays serial, so its ratio there sits near 1.
func figLoadScale() error {
	widths := []int{}
	for w := 2; w <= max(2, runtime.NumCPU()); w++ {
		widths = append(widths, w)
	}
	fmt.Printf("Figure F6: device-load scaling, serial vs pooled colored gang (ns per load, NumCPU=%d)\n", runtime.NumCPU())
	fmt.Printf("%-10s %8s", "circuit", "serial")
	for _, w := range widths {
		fmt.Printf(" %9s %6s", fmt.Sprintf("gang%d", w), fmt.Sprintf("sp%d", w))
	}
	fmt.Println()
	for _, b := range circuits.Suite() {
		sys, err := build(b)
		if err != nil {
			return err
		}
		serial := measureLoadNs(sys, 1)
		fmt.Printf("%-10s %8d", b.Name, serial)
		for _, w := range widths {
			ns := measureLoadNs(sys, w)
			fmt.Printf(" %9d %6.2f", ns, float64(serial)/float64(ns))
		}
		fmt.Println()
	}
	fmt.Println("spN: serial-over-gang wall-time ratio at gang width N (>1 means the gang pays)")
	return nil
}

// laneScaleRecord is one point of the batched-ensemble throughput sweep.
type laneScaleRecord struct {
	Circuit    string `json:"circuit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Lanes      int    `json:"lanes"`
	Workers    int    `json:"workers"`
	Rounds     int    `json:"rounds"`
	Points     int    `json:"points"`
	WallNs     int64  `json:"wall_ns"`
	// SerialNs is the summed wall clock of K independent serial runs of
	// the same variants — the workload a corner sweep pays without batching.
	SerialNs int64 `json:"serial_ns"`
	// Speedup is SerialNs over the ensemble's wall clock.
	Speedup float64 `json:"speedup"`
}

// laneVariants builds k structurally identical copies of a benchmark
// circuit with every resistor scaled by a per-lane corner factor, the shape
// of a PVT corner sweep.
func laneVariants(b circuits.Benchmark, k int) []*wavepipe.Circuit {
	variants := make([]*wavepipe.Circuit, k)
	for i := range variants {
		c := b.Make()
		scale := 1 + 0.1*float64(i)/float64(k)
		for _, d := range c.Devices() {
			if r, ok := d.(*device.Resistor); ok {
				r.SetValue(r.Value() * scale)
			}
		}
		variants[i] = c
	}
	return variants
}

// timedEnsemble is timed for ensemble runs: fastest wall clock over -reps
// with the collector paused, mirroring the serial measurement protocol.
func timedEnsemble(variants []*wavepipe.Circuit, opts wavepipe.TranOptions) (time.Duration, *wavepipe.EnsembleResult, error) {
	opts.Observer = benchObserver
	var best time.Duration
	var res *wavepipe.EnsembleResult
	for i := 0; i < *reps; i++ {
		runtime.GC()
		old := debug.SetGCPercent(-1)
		start := time.Now()
		r, err := wavepipe.RunEnsembleCircuits(variants, opts)
		d := time.Since(start)
		debug.SetGCPercent(old)
		if err != nil {
			return 0, nil, err
		}
		for li, lr := range r.Lanes {
			if lr.Err != nil {
				return 0, nil, fmt.Errorf("lane %d: %w", li, lr.Err)
			}
		}
		if i == 0 || d < best {
			best = d
			res = r
		}
	}
	return best, res, nil
}

// figLaneScale measures batched-ensemble throughput: K corner variants of
// one circuit run as lockstep lanes versus the same K variants run as
// independent serial jobs. The baseline is the sum of the serial runs'
// wall clocks and the ensemble cost is its own wall clock, so the figure
// reports how much of the K-fold workload the shared symbolic analysis,
// struct-of-arrays batching and the gang's real cores recover.
func figLaneScale(jsonOut bool) error {
	var records []laneScaleRecord
	for _, name := range []string{"ladder400", "grid16"} {
		b, ok := findBench(name)
		if !ok {
			return fmt.Errorf("no benchmark circuit %q", name)
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		for _, k := range []int{2, 4, 8} {
			variants := laneVariants(b, k)

			var serialWall time.Duration
			for _, v := range variants {
				sys, err := v.Build()
				if err != nil {
					return err
				}
				wall, _, err := timed(sys, base)
				if err != nil {
					return err
				}
				serialWall += wall
			}

			opts := base
			opts.Threads = k
			if opts.Threads > 4 {
				opts.Threads = 4
			}
			wall, res, err := timedEnsemble(laneVariants(b, k), opts)
			if err != nil {
				return err
			}
			points := 0
			for _, lr := range res.Lanes {
				points += lr.Res.Stats.Points
			}
			records = append(records, laneScaleRecord{
				Circuit:    b.Name,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				Lanes:      k,
				Workers:    res.Stats.PipelineWorkers,
				Rounds:     res.Rounds,
				Points:     points,
				WallNs:     wall.Nanoseconds(),
				SerialNs:   serialWall.Nanoseconds(),
				Speedup:    float64(serialWall) / float64(wall),
			})
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	fmt.Printf("Figure F9: ensemble throughput vs lane count (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Println("circuit,lanes,workers,rounds,points,wall_ms,serial_ms,speedup")
	for _, r := range records {
		fmt.Printf("%s,%d,%d,%d,%d,%.2f,%.2f,%.2f\n",
			r.Circuit, r.Lanes, r.Workers, r.Rounds, r.Points,
			float64(r.WallNs)/1e6, float64(r.SerialNs)/1e6, r.Speedup)
	}
	return nil
}

// windowScaleRecord is one point of the time-parallel window sweep.
type windowScaleRecord struct {
	Circuit         string  `json:"circuit"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Mode            string  `json:"mode"` // serial | wavepipe | windows | windows-fast
	CoreBudget      int     `json:"core_budget"`
	Windows         int     `json:"windows"`
	Gate            float64 `json:"gate,omitempty"`
	Threads         int     `json:"threads"`
	WindowsLaunched int64   `json:"windows_launched"`
	PararealIters   int64   `json:"parareal_iters"`
	WindowRedos     int64   `json:"window_redos"`
	WallNs          int64   `json:"wall_ns"`
	Speedup         float64 `json:"speedup"`
	RelMaxDev       float64 `json:"rel_max_dev"`
}

// figWindowScale sweeps time-parallel window count against core budget:
// for every budget (powers of two up to maxCores) it records the serial
// baseline, the best WavePipe-only configuration at that budget
// (combined scheme, wpcore.PlanThreads width), and windowed runs at
// W = 2/4/8 with serial fine engines — once at the accuracy-first
// default gate and once at the speed tier (gate 32, "windows-fast"),
// which accepts coarse seeds within 32 fine error weights and trades a
// small bounded seam deviation for fewer redos. Speedups are measured
// wall-clock ratios against the serial run, and every record carries the
// probe's relative deviation from the serial waveform so accuracy rides
// along with the numbers.
func figWindowScale(benchName string, maxCores int, jsonOut bool) error {
	if maxCores <= 0 {
		maxCores = runtime.NumCPU()
	}
	names := []string{"ladder400", "grid16", "rect1k", "amp10M"}
	if benchName != "" && benchName != "all" {
		names = []string{benchName}
	}
	var budgets []int
	for b := 1; b <= maxCores; b *= 2 {
		budgets = append(budgets, b)
	}
	if budgets[len(budgets)-1] != maxCores {
		budgets = append(budgets, maxCores)
	}
	var records []windowScaleRecord
	for _, name := range names {
		b, ok := findBench(name)
		if !ok {
			return fmt.Errorf("no benchmark circuit %q", name)
		}
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		serialWall, ref, err := timed(sys, base)
		if err != nil {
			return err
		}
		add := func(mode string, W int, opts wavepipe.TranOptions) error {
			wall, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			dev, err := wavepipe.Compare(res.W, ref.W, b.Probe)
			if err != nil {
				return err
			}
			records = append(records, windowScaleRecord{
				Circuit:         b.Name,
				GOMAXPROCS:      runtime.GOMAXPROCS(0),
				Mode:            mode,
				CoreBudget:      opts.CoreBudget,
				Windows:         W,
				Threads:         opts.Threads,
				Gate:            opts.CoarseOpts.Gate,
				WindowsLaunched: res.Stats.WindowsLaunched,
				PararealIters:   res.Stats.PararealIters,
				WindowRedos:     res.Stats.WindowRedos,
				WallNs:          wall.Nanoseconds(),
				Speedup:         float64(serialWall) / float64(wall),
				RelMaxDev:       dev.RelMax(),
			})
			return nil
		}
		records = append(records, windowScaleRecord{
			Circuit: b.Name, GOMAXPROCS: runtime.GOMAXPROCS(0), Mode: "serial",
			CoreBudget: 1, WallNs: serialWall.Nanoseconds(), Speedup: 1,
		})
		for _, budget := range budgets {
			if budget < 2 {
				continue
			}
			wp := base
			wp.Scheme = wavepipe.Combined
			wp.Threads = wpcore.PlanThreads(budget)
			wp.CoreBudget = budget
			if err := add("wavepipe", 0, wp); err != nil {
				return err
			}
			for _, W := range []int{2, 4, 8} {
				wo := base
				wo.Windows = W
				wo.CoreBudget = budget
				if err := add("windows", W, wo); err != nil {
					return err
				}
				wo.CoarseOpts.Gate = 32
				if err := add("windows-fast", W, wo); err != nil {
					return err
				}
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	fmt.Printf("Figure F10: time-parallel windows vs best WavePipe-only (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Println("circuit,budget,mode,windows,threads,redos,wall_ms,speedup,rel_max_dev")
	for _, r := range records {
		fmt.Printf("%s,%d,%s,%d,%d,%d,%.2f,%.2f,%.2e\n",
			r.Circuit, r.CoreBudget, r.Mode, r.Windows, r.Threads, r.WindowRedos,
			float64(r.WallNs)/1e6, r.Speedup, r.RelMaxDev)
	}
	return nil
}

// reduceScaleRecord is one point of the parasitic-reduction sweep.
type reduceScaleRecord struct {
	Circuit        string  `json:"circuit"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Mode           string  `json:"mode"` // off | reduced | exact
	Tol            float64 `json:"tol"`
	FullNodes      int     `json:"full_nodes"`
	Nodes          int     `json:"nodes"` // MNA nodes actually simulated
	ReducedNodes   int64   `json:"reduced_nodes"`
	ReducedDevices int64   `json:"reduced_devices"`
	NodeReduction  float64 `json:"node_reduction"` // full_nodes / nodes
	Points         int     `json:"points"`
	WallNs         int64   `json:"wall_ns"`
	Speedup        float64 `json:"speedup"` // off wall / this wall (end to end)
	RelMaxDev      float64 `json:"rel_max_dev"`
}

// figReduceScale sweeps the structural parasitic-reduction pass over RC
// ladders of growing length plus the grid16 mesh as a negative control
// (every mesh node carries four devices, so the pass is a provable
// no-op there). Each circuit runs three ways on one thread: reduction
// off (the reference), reduction on at the default tolerance, and
// exact mode (ReduceTol=0, series merges only — bit-identical by
// construction on these decks because the lumping stage is what the
// ladders exercise). The reduced runs pay for planning and rebuilding
// the smaller system inside the timed region, so Speedup is the honest
// end-to-end wall ratio, and every record carries the probe's relative
// deviation from the unreduced waveform.
func figReduceScale(benchName string, jsonOut bool) error {
	ladder := func(n int) circuits.Benchmark {
		return circuits.Benchmark{
			Name:  fmt.Sprintf("ladder%d", n),
			Kind:  "analog",
			Make:  func() *circuit.Circuit { return circuits.RCLadder(n) },
			TStop: 100e-9,
			Probe: "out",
		}
	}
	benches := []circuits.Benchmark{ladder(100), ladder(200), ladder(400), ladder(800)}
	if grid, ok := findBench("grid16"); ok {
		benches = append(benches, grid)
	}
	if benchName != "" && benchName != "all" {
		kept := benches[:0]
		for _, b := range benches {
			if b.Name == benchName {
				kept = append(kept, b)
			}
		}
		if len(kept) == 0 {
			b, ok := findBench(benchName)
			if !ok {
				return fmt.Errorf("no benchmark circuit %q", benchName)
			}
			kept = append(kept, b)
		}
		benches = kept
	}
	var records []reduceScaleRecord
	for _, b := range benches {
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		offWall, ref, err := timed(sys, base)
		if err != nil {
			return err
		}
		records = append(records, reduceScaleRecord{
			Circuit: b.Name, GOMAXPROCS: runtime.GOMAXPROCS(0), Mode: "off",
			FullNodes: sys.NumNodes, Nodes: sys.NumNodes, NodeReduction: 1,
			Points: ref.Stats.Points, WallNs: offWall.Nanoseconds(), Speedup: 1,
		})
		run := func(mode string, tol float64) error {
			opts := base
			opts.Reduce = true
			opts.ReduceTol = tol
			wall, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			dev, err := wavepipe.Compare(res.W, ref.W, b.Probe)
			if err != nil {
				return err
			}
			post := sys.NumNodes - int(res.Stats.ReducedNodes)
			records = append(records, reduceScaleRecord{
				Circuit: b.Name, GOMAXPROCS: runtime.GOMAXPROCS(0), Mode: mode,
				Tol:            tol,
				FullNodes:      sys.NumNodes,
				Nodes:          post,
				ReducedNodes:   res.Stats.ReducedNodes,
				ReducedDevices: res.Stats.ReducedDevices,
				NodeReduction:  float64(sys.NumNodes) / float64(post),
				Points:         res.Stats.Points,
				WallNs:         wall.Nanoseconds(),
				Speedup:        float64(offWall.Nanoseconds()) / float64(wall.Nanoseconds()),
				RelMaxDev:      dev.RelMax(),
			})
			return nil
		}
		if err := run("reduced", wavepipe.DefaultReduceTol); err != nil {
			return err
		}
		if err := run("exact", 0); err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	fmt.Printf("Figure F11: parasitic reduction vs ladder size (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Println("circuit,mode,tol,full_nodes,nodes,node_reduction,points,wall_ms,speedup,rel_max_dev")
	for _, r := range records {
		fmt.Printf("%s,%s,%g,%d,%d,%.1f,%d,%.2f,%.2f,%.2e\n",
			r.Circuit, r.Mode, r.Tol, r.FullNodes, r.Nodes, r.NodeReduction, r.Points,
			float64(r.WallNs)/1e6, r.Speedup, r.RelMaxDev)
	}
	return nil
}
