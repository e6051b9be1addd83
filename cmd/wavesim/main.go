// Command wavesim is a netlist-driven circuit simulator: it reads a SPICE
// deck and runs transient (serial or WavePipe-parallel), AC or DC-sweep
// analysis, writing the results as CSV.
//
// Usage:
//
//	wavesim [-analysis tran] [-scheme combined] [-threads 4] [-cores 8]
//	        [-tstop 1u] [-probe out,in] [-method gear2] [-o out.csv] [-stats]
//	        [-trace run.json] [-metrics-addr :8123] deck.sp
//	wavesim -analysis ac deck.sp     # uses the deck's .AC card
//	wavesim -analysis dc deck.sp     # uses the deck's .DC card
//
// With -trace the transient run records its structured event stream and
// writes it on exit: a .jsonl path gets the line-delimited event log, any
// other extension gets Chrome trace_event JSON (load in chrome://tracing or
// https://ui.perfetto.dev). With -metrics-addr the run serves live counters
// over HTTP (Prometheus text at /metrics, JSON elsewhere) while it computes.
// Interrupting a run (SIGINT or SIGTERM) cancels it cleanly at the next time
// point: the partial waveform is still written, and the exit code is 8.
//
// Durable runs: -checkpoint FILE snapshots the complete run state to FILE
// every -checkpoint-every accepted points and once more when the run ends
// for any reason — including Ctrl-C, SIGTERM, -deadline expiry and watchdog
// aborts — so -resume FILE can pick the run back up where it stopped (a
// resumed serial run is bit-identical to an uninterrupted one). -deadline
// bounds the run's wall-clock time (exit code 9 on expiry); -stall-factor
// arms a watchdog that aborts a run whose solver has hung (exit code 10).
//
// Service mode: -remote URL submits the deck to a running wavesimd instance
// instead of simulating in-process — the same flags shape the job's options,
// and -stats additionally reports the job id and whether the daemon served
// the compiled circuit from its artifact cache. -json switches transient
// output from CSV to the versioned wire JSON document (wavepipe/wire
// schemaVersion 1), the same schema the service speaks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wavepipe"
	"wavepipe/client"
	"wavepipe/internal/netlist"
	"wavepipe/wire"
)

// Exit codes, one per error-taxonomy sentinel, so scripts can branch on the
// failure class without parsing stderr. 1 remains the generic failure
// (bad flags, unreadable deck, ...), 2 is flag.Usage.
const (
	exitOK            = 0
	exitGeneric       = 1
	exitUsage         = 2
	exitNoConvergence = 3
	exitSingular      = 4
	exitNonFinite     = 5
	exitStepTooSmall  = 6
	exitWorkerPanic   = 7
	exitCanceled      = 8
	exitDeadline      = 9
	exitStalled       = 10
)

// exitCodeFor maps an error to its exit code. The step-too-small and
// worker-panic wrappers are checked first: they wrap a deeper sentinel (the
// cause that exhausted the ladder), and the outermost failure is the one the
// caller should branch on.
func exitCodeFor(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, wavepipe.ErrCanceled):
		return exitCanceled
	case errors.Is(err, wavepipe.ErrDeadlineExceeded):
		return exitDeadline
	case errors.Is(err, wavepipe.ErrStalled):
		return exitStalled
	case errors.Is(err, wavepipe.ErrStepTooSmall):
		return exitStepTooSmall
	case errors.Is(err, wavepipe.ErrWorkerPanic):
		return exitWorkerPanic
	case errors.Is(err, wavepipe.ErrNonFinite):
		return exitNonFinite
	case errors.Is(err, wavepipe.ErrSingular):
		return exitSingular
	case errors.Is(err, wavepipe.ErrNoConvergence):
		return exitNoConvergence
	default:
		return exitGeneric
	}
}

// runConfig carries the parsed command line into run.
type runConfig struct {
	deckPath     string
	analysis     string
	scheme       string
	method       string
	tstop        string
	probes       string
	outPath      string
	interval     string
	tracePath    string
	metricsAddr  string
	ckptPath     string
	resumePath   string
	deadline     string
	ckptEvery    int
	stallFactor  float64
	threads      int
	cores        int
	lanes        int
	sweep        string
	windows      int
	coarseSteps  int
	coarseTol    float64
	windowGate   float64
	windowStrict bool
	reduceOn     bool
	reduceTol    float64
	bypassTol    float64
	devBypass    bool
	stats        bool
	jsonOut      bool
	remote       string
	priority     int
}

func main() {
	cfg := runConfig{}
	flag.StringVar(&cfg.analysis, "analysis", "tran", "analysis: tran, ac, dc")
	flag.StringVar(&cfg.scheme, "scheme", "serial", "engine: serial, backward, forward, combined, finegrain")
	flag.IntVar(&cfg.threads, "threads", 0, "worker threads for parallel schemes (0 = scheme default)")
	flag.IntVar(&cfg.cores, "cores", 0, "total core budget shared by pipeline workers and intra-point gangs (0 = unmanaged)")
	flag.StringVar(&cfg.tstop, "tstop", "", "override the deck's .TRAN stop time (SPICE units, e.g. 10u)")
	flag.StringVar(&cfg.method, "method", "gear2", "integration method: gear2, trap, be")
	flag.StringVar(&cfg.probes, "probe", "", "comma-separated node names to record (default: all nodes)")
	flag.StringVar(&cfg.interval, "interval", "", "resample transient output uniformly at this interval (e.g. 1u); default: the solver's own time points")
	flag.StringVar(&cfg.outPath, "o", "", "CSV output file (default: stdout)")
	flag.BoolVar(&cfg.stats, "stats", false, "print run statistics to stderr")
	flag.Float64Var(&cfg.bypassTol, "bypasstol", 0, "Newton factorization-bypass tolerance (0 = always factorize)")
	flag.BoolVar(&cfg.devBypass, "devbypass", false, "enable incremental assembly: linear-stamp template caching + SPICE-style device bypass")
	flag.StringVar(&cfg.tracePath, "trace", "", "write the run's event trace to this file (.jsonl = JSONL event log, anything else = Chrome trace_event JSON)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve live run metrics over HTTP on this address (Prometheus text at /metrics)")
	flag.StringVar(&cfg.ckptPath, "checkpoint", "", "write durable run checkpoints to this file (periodic + final, atomic replace)")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", 0, "checkpoint cadence in accepted points (0 = default 256; requires -checkpoint)")
	flag.StringVar(&cfg.resumePath, "resume", "", "resume the run from this checkpoint file")
	flag.StringVar(&cfg.deadline, "deadline", "", "wall-clock budget for the run (Go duration, e.g. 30s, 5m); exit 9 on expiry")
	flag.Float64Var(&cfg.stallFactor, "stall-factor", 0, "abort when no point is accepted within this multiple of the trailing per-point time (0 = off; exit 10)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "write transient results as versioned wire JSON instead of CSV")
	flag.StringVar(&cfg.remote, "remote", "", "submit the deck to a wavesimd service at this base URL instead of simulating locally")
	flag.IntVar(&cfg.priority, "priority", 0, "job priority for -remote (higher runs first)")
	flag.IntVar(&cfg.lanes, "lanes", 0, "run N parameter-variant lanes as one batched ensemble (0 = off; requires -analysis tran)")
	flag.StringVar(&cfg.sweep, "sweep", "", "sweep spec NAME=lo:hi for -lanes: NAME is a .PARAM name or a device instance (R/C/L/V/I), lanes get linearly spaced values")
	flag.IntVar(&cfg.windows, "windows", 0, "split the run into N time-parallel Parareal windows refined concurrently by the selected engine (0 = off; requires -analysis tran)")
	flag.IntVar(&cfg.coarseSteps, "coarse-steps", 0, "fixed coarse-propagator steps per window (0 = default 16; requires -windows)")
	flag.Float64Var(&cfg.coarseTol, "coarse-tolscale", 0, "coarse-propagator Newton-tolerance loosening factor (0 = default 8; requires -windows)")
	flag.Float64Var(&cfg.windowGate, "window-gate", 0, "per-window convergence gate in fine error weights (0 = default 2; requires -windows)")
	flag.BoolVar(&cfg.windowStrict, "window-strict", false, "never accept a speculative window: bit-identical to the sequential window chain (requires -windows)")
	flag.BoolVar(&cfg.reduceOn, "reduce", false, "collapse series R/L chains and lump uniform RC ladders before simulation (probed nodes are preserved; suppressed waveforms are reconstructed)")
	flag.Float64Var(&cfg.reduceTol, "reduce-tol", wavepipe.DefaultReduceTol, "ladder-lumping waveform error budget for -reduce (0 = exact mode: series merges only)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wavesim [flags] deck.sp")
		flag.Usage()
		os.Exit(exitUsage)
	}
	cfg.deckPath = flag.Arg(0)

	// Ctrl-C / SIGTERM cancels the run at the next time-point boundary; the
	// partial waveform (and trace) are still written before exiting 8.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "wavesim:", err)
		os.Exit(exitCodeFor(err))
	}
}

// reportFailure summarizes a failed transient run on stderr: the typed error
// context plus whatever the partial result says was accomplished and tried.
func reportFailure(w *os.File, res *wavepipe.Result, err error) {
	var se *wavepipe.SimError
	if errors.As(err, &se) {
		fmt.Fprintf(w, "wavesim: failed in %s phase at t=%g\n", se.Phase, se.Time)
	}
	if res == nil {
		return
	}
	fmt.Fprintf(w, "wavesim: partial result: points=%d recoveries=%d worker-panics=%d degraded-stages=%d\n",
		res.Stats.Points, res.Stats.Recoveries, res.Stats.WorkerPanics, res.Stats.DegradedStages)
	for _, e := range res.Recovery.Events() {
		fmt.Fprintf(w, "wavesim:   recovery at t=%g: %s %s\n", e.T, e.Kind, e.Detail)
	}
}

// writeTrace exports a recorded event stream: JSONL for .jsonl paths, Chrome
// trace_event JSON otherwise.
func writeTrace(path string, rec *wavepipe.TraceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(strings.ToLower(path), ".jsonl") {
		err = wavepipe.WriteTraceJSONL(f, rec.Events(), rec.Snapshots())
	} else {
		err = wavepipe.WriteChromeTrace(f, rec.Events(), rec.Snapshots())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveMetrics exposes m over HTTP until the process exits. The listener is
// bound synchronously so scripts can scrape immediately after startup.
func serveMetrics(addr string, m *wavepipe.TraceMetrics) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "wavesim: serving metrics on http://%s/metrics\n", ln.Addr())
	go func() {
		srv := &http.Server{Handler: m.Handler(), ReadHeaderTimeout: 5 * time.Second}
		_ = srv.Serve(ln)
	}()
	return nil
}

func run(ctx context.Context, cfg runConfig) error {
	src, err := os.ReadFile(cfg.deckPath)
	if err != nil {
		return err
	}
	deck, err := wavepipe.ParseDeck(string(src))
	if err != nil {
		return err
	}
	var record []string
	if cfg.probes != "" {
		record = strings.Split(cfg.probes, ",")
	}
	out := os.Stdout
	if cfg.outPath != "" {
		f, err := os.Create(cfg.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	if cfg.jsonOut {
		switch strings.ToLower(cfg.analysis) {
		case "tran", "":
		default:
			return fmt.Errorf("-json supports only -analysis tran")
		}
	}

	switch strings.ToLower(cfg.analysis) {
	case "ac":
		res, err := wavepipe.RunDeckAC(deck, wavepipe.ACOptions{Record: record})
		if err != nil {
			return err
		}
		return writeAC(out, res)
	case "dc":
		w, err := wavepipe.RunDeckDC(deck, record)
		if err != nil {
			return err
		}
		return w.WriteCSV(out)
	case "tran", "":
		// handled below
	default:
		return fmt.Errorf("unknown analysis %q", cfg.analysis)
	}

	opts := wavepipe.TranOptions{Threads: cfg.threads, CoreBudget: cfg.cores, BypassTol: cfg.bypassTol, DeviceBypass: cfg.devBypass}
	if opts.Scheme, err = wavepipe.ParseScheme(strings.ToLower(cfg.scheme)); err != nil {
		return err
	}
	if opts.Method, err = wavepipe.ParseMethod(strings.ToLower(cfg.method)); err != nil {
		return err
	}
	if cfg.tstop != "" {
		v, err := netlist.ParseValue(cfg.tstop)
		if err != nil {
			return fmt.Errorf("bad -tstop: %w", err)
		}
		opts.TStop = v
	}
	opts.Record = record
	opts.CheckpointPath = cfg.ckptPath
	opts.CheckpointEvery = cfg.ckptEvery
	opts.ResumeFrom = cfg.resumePath
	opts.StallFactor = cfg.stallFactor
	opts.Reduce = cfg.reduceOn
	if cfg.reduceOn {
		opts.ReduceTol = cfg.reduceTol
	}
	opts.Windows = cfg.windows
	opts.CoarseOpts = wavepipe.CoarseOptions{
		Steps:    cfg.coarseSteps,
		TolScale: cfg.coarseTol,
		Gate:     cfg.windowGate,
		Strict:   cfg.windowStrict,
	}
	if cfg.windows > 1 && (cfg.lanes != 0 || cfg.sweep != "") {
		return fmt.Errorf("-windows cannot be combined with -lanes/-sweep: windows parallelize one run over time, lanes batch many runs")
	}
	if cfg.deadline != "" {
		d, err := time.ParseDuration(cfg.deadline)
		if err != nil {
			return fmt.Errorf("bad -deadline: %w", err)
		}
		opts.Deadline = d
	}

	if cfg.remote != "" {
		if cfg.lanes != 0 || cfg.sweep != "" {
			return fmt.Errorf("-remote does not support -lanes/-sweep")
		}
		if cfg.tracePath != "" || cfg.metricsAddr != "" || cfg.ckptPath != "" || cfg.resumePath != "" {
			return fmt.Errorf("the service manages checkpoints and traces itself; drop -trace/-metrics-addr/-checkpoint/-resume with -remote")
		}
		return runRemote(ctx, cfg, string(src), opts, out)
	}

	var rec *wavepipe.TraceRecorder
	var observers []wavepipe.Observer
	if cfg.tracePath != "" {
		rec = wavepipe.NewTraceRecorder(0) // unbounded: the export must reconcile
		observers = append(observers, rec)
	}
	if cfg.metricsAddr != "" {
		metrics := wavepipe.NewTraceMetrics()
		if err := serveMetrics(cfg.metricsAddr, metrics); err != nil {
			return err
		}
		observers = append(observers, metrics)
	}
	if len(observers) > 0 {
		opts.Observer = wavepipe.MultiObserver(observers...)
	}

	if cfg.lanes != 0 || cfg.sweep != "" {
		return runLanes(ctx, cfg, deck, opts, out, rec)
	}

	start := time.Now()
	res, err := wavepipe.RunDeckCtx(ctx, deck, opts)
	wall := time.Since(start)
	if rec != nil && res != nil {
		// Written even on failure/cancellation: the trace of a broken run is
		// exactly the one worth looking at.
		if terr := writeTrace(cfg.tracePath, rec); terr != nil {
			fmt.Fprintln(os.Stderr, "wavesim: trace:", terr)
		}
	}
	if err != nil {
		interrupted := errors.Is(err, wavepipe.ErrCanceled) ||
			errors.Is(err, wavepipe.ErrDeadlineExceeded) ||
			errors.Is(err, wavepipe.ErrStalled)
		if res != nil && interrupted {
			// An interrupted run (signal, deadline, stall watchdog) still
			// delivers the waveform computed so far; the engine flushed a
			// final checkpoint before returning when one is configured.
			switch {
			case errors.Is(err, wavepipe.ErrDeadlineExceeded):
				fmt.Fprintf(os.Stderr, "wavesim: deadline exceeded at %d points; writing partial waveform\n", res.Stats.Points)
			case errors.Is(err, wavepipe.ErrStalled):
				fmt.Fprintf(os.Stderr, "wavesim: run stalled at %d points; writing partial waveform\n", res.Stats.Points)
			default:
				fmt.Fprintf(os.Stderr, "wavesim: canceled at %d points; writing partial waveform\n", res.Stats.Points)
			}
			if cfg.ckptPath != "" {
				fmt.Fprintf(os.Stderr, "wavesim: checkpoint saved to %s; resume with -resume %s\n", cfg.ckptPath, cfg.ckptPath)
			}
			if werr := writeTranResult(out, res, cfg); werr != nil {
				return werr
			}
			return err
		}
		reportFailure(os.Stderr, res, err)
		return err
	}

	if err := writeTranResult(out, res, cfg); err != nil {
		return err
	}
	if cfg.stats {
		fmt.Fprintf(os.Stderr,
			"wavesim: %s | scheme=%s points=%d stages=%d nr-iters=%d lte-rejects=%d discarded=%d recoveries=%d full-factor=%d refactor=%d reused=%d bypassed=%d wall=%s\n",
			deck.Title, cfg.scheme, res.Stats.Points, res.Stats.Stages,
			res.Stats.NRIters, res.Stats.LTERejects, res.Stats.Discarded,
			res.Stats.Recoveries, res.Stats.FullFactorizations, res.Stats.Refactorizations,
			res.Stats.ReusedFactorizations, res.Stats.BypassedFactorizations, wall.Round(time.Microsecond))
		if cfg.devBypass {
			fmt.Fprintf(os.Stderr,
				"wavesim: device bypass: bypassed-evals=%d linear-stamp-hits=%d\n",
				res.Stats.BypassedEvals, res.Stats.LinearStampHits)
		}
		if res.Stats.CoreBudget > 0 {
			fmt.Fprintf(os.Stderr,
				"wavesim: core budget %d split as %d pipeline x %d intra (pipeline serialized: %v)\n",
				res.Stats.CoreBudget, res.Stats.PipelineWorkers, res.Stats.IntraWorkers,
				res.Stats.PipelineSerialized)
		}
		if res.Stats.WindowsLaunched > 0 {
			fmt.Fprintf(os.Stderr,
				"wavesim: time-parallel windows=%d parareal-iters=%d redos=%d\n",
				res.Stats.WindowsLaunched, res.Stats.PararealIters, res.Stats.WindowRedos)
		}
		if cfg.reduceOn {
			fmt.Fprintf(os.Stderr,
				"wavesim: reduction: nodes-removed=%d devices-removed=%d (tol=%g)\n",
				res.Stats.ReducedNodes, res.Stats.ReducedDevices, cfg.reduceTol)
		}
		for _, e := range res.Recovery.Events() {
			fmt.Fprintf(os.Stderr, "wavesim:   recovery at t=%g: %s %s\n", e.T, e.Kind, e.Detail)
		}
	}
	return nil
}

// writeTranResult renders a transient result: -interval resampling first,
// then either the versioned wire JSON document (-json) or CSV.
func writeTranResult(out *os.File, res *wavepipe.Result, cfg runConfig) error {
	w := res.W
	if cfg.interval != "" {
		dt, err := netlist.ParseValue(cfg.interval)
		if err != nil {
			return fmt.Errorf("bad -interval: %w", err)
		}
		if w, err = w.Resample(dt); err != nil {
			return err
		}
	}
	if cfg.jsonOut {
		r := *res
		r.W = w
		return wire.Encode(out, wire.FromResult(&r))
	}
	return w.WriteCSV(out)
}

// runRemote ships the deck to a wavesimd instance and renders the result
// exactly as a local run would. The service owns checkpointing, preemption
// and artifact reuse; this path only submits, waits, and prints.
func runRemote(ctx context.Context, cfg runConfig, src string, opts wavepipe.TranOptions, out *os.File) error {
	c, err := client.New(cfg.remote, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Submit(ctx, wavepipe.JobSpec{
		Deck:     src,
		Options:  opts,
		Priority: cfg.priority,
		Label:    filepath.Base(cfg.deckPath),
	})
	if err != nil {
		return err
	}
	if cfg.stats {
		fmt.Fprintf(os.Stderr, "wavesim: remote job %s at %s cache-hit=%v\n",
			st.ID, cfg.remote, st.CacheHit)
	}
	res, err := c.Wait(ctx, st.ID)
	if err != nil {
		if res != nil {
			fmt.Fprintf(os.Stderr, "wavesim: remote job %s failed (%v); writing partial waveform\n", st.ID, err)
			if werr := writeTranResult(out, res, cfg); werr != nil {
				return werr
			}
		}
		return err
	}
	if cfg.stats {
		if final, serr := c.Status(ctx, st.ID); serr == nil {
			fmt.Fprintf(os.Stderr, "wavesim: remote job %s done: points=%d cores=%d resumes=%d\n",
				final.ID, final.Points, final.Cores, final.Resumes)
		}
	}
	return writeTranResult(out, res, cfg)
}

// parseSweep splits a -sweep spec NAME=lo:hi into its parts; the bounds
// accept SPICE magnitude suffixes (4.7k, 20f).
func parseSweep(spec string) (name string, lo, hi float64, err error) {
	eq := strings.IndexByte(spec, '=')
	if eq <= 0 {
		return "", 0, 0, fmt.Errorf("bad -sweep %q: want NAME=lo:hi", spec)
	}
	name = spec[:eq]
	bounds := strings.Split(spec[eq+1:], ":")
	if len(bounds) != 2 {
		return "", 0, 0, fmt.Errorf("bad -sweep %q: want NAME=lo:hi", spec)
	}
	if lo, err = netlist.ParseValue(bounds[0]); err != nil {
		return "", 0, 0, fmt.Errorf("bad -sweep lower bound: %w", err)
	}
	if hi, err = netlist.ParseValue(bounds[1]); err != nil {
		return "", 0, 0, fmt.Errorf("bad -sweep upper bound: %w", err)
	}
	return name, lo, hi, nil
}

// runLanes is the batched-ensemble path (-lanes / -sweep): K variants of
// the deck run in lockstep sharing one symbolic analysis, and each lane's
// waveform is written as its own CSV section under a "# lane" header.
func runLanes(ctx context.Context, cfg runConfig, deck *wavepipe.Deck, opts wavepipe.TranOptions, out *os.File, rec *wavepipe.TraceRecorder) error {
	k := cfg.lanes
	if k == 0 {
		k = 8 // -sweep without -lanes: a reasonable corner count
	}
	if k < 2 {
		return fmt.Errorf("-lanes must be at least 2 (got %d)", cfg.lanes)
	}
	variants := make([]wavepipe.LaneSpec, k)
	if cfg.sweep != "" {
		name, lo, hi, err := parseSweep(cfg.sweep)
		if err != nil {
			return err
		}
		// A .PARAM name sweeps through re-elaboration (dependent expressions
		// track it); anything else must be a single-valued device instance.
		_, isParam := deck.Params[strings.ToLower(name)]
		for i := range variants {
			v := lo + (hi-lo)*float64(i)/float64(k-1)
			variants[i].Name = fmt.Sprintf("%s=%g", name, v)
			if isParam {
				variants[i].Params = map[string]float64{name: v}
			} else {
				variants[i].Devices = map[string]float64{name: v}
			}
		}
	} else {
		for i := range variants {
			variants[i].Name = fmt.Sprintf("lane%d", i)
		}
	}

	start := time.Now()
	res, err := wavepipe.RunEnsembleCtx(ctx, deck, variants, opts)
	wall := time.Since(start)
	if rec != nil && cfg.tracePath != "" {
		if terr := writeTrace(cfg.tracePath, rec); terr != nil {
			fmt.Fprintln(os.Stderr, "wavesim: trace:", terr)
		}
	}
	if err != nil {
		return err
	}

	var firstErr error
	for _, lr := range res.Lanes {
		if lr.Err != nil {
			fmt.Fprintf(os.Stderr, "wavesim: lane %s: %v\n", lr.Name, lr.Err)
			if firstErr == nil {
				firstErr = lr.Err
			}
		}
		if lr.Res == nil {
			continue
		}
		w := lr.Res.W
		if cfg.interval != "" {
			dt, err := netlist.ParseValue(cfg.interval)
			if err != nil {
				return fmt.Errorf("bad -interval: %w", err)
			}
			if w, err = w.Resample(dt); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "# lane %s\n", lr.Name)
		if err := w.WriteCSV(out); err != nil {
			return err
		}
	}
	if cfg.stats {
		fmt.Fprintf(os.Stderr,
			"wavesim: ensemble %s | lanes=%d workers=%d rounds=%d points=%d nr-iters=%d recoveries=%d wall=%s\n",
			deck.Title, len(res.Lanes), res.Stats.PipelineWorkers, res.Rounds,
			res.Stats.Points, res.Stats.NRIters, res.Stats.Recoveries,
			wall.Round(time.Microsecond))
		for _, lr := range res.Lanes {
			if lr.Err == nil {
				fmt.Fprintf(os.Stderr, "wavesim:   %s: points=%d nr-iters=%d\n",
					lr.Name, lr.Res.Stats.Points, lr.Res.Stats.NRIters)
			}
		}
	}
	return firstErr
}

// writeAC renders an AC result as CSV: frequency, then magnitude (dB) and
// phase (degrees) per signal.
func writeAC(out *os.File, res *wavepipe.ACResult) error {
	fmt.Fprint(out, "freq")
	for _, n := range res.Names {
		fmt.Fprintf(out, ",%s_db,%s_deg", n, n)
	}
	fmt.Fprintln(out)
	cols := make([][]float64, 0, 2*len(res.Names))
	for _, n := range res.Names {
		db, err := res.MagDB(n)
		if err != nil {
			return err
		}
		ph, err := res.PhaseDeg(n)
		if err != nil {
			return err
		}
		cols = append(cols, db, ph)
	}
	for k, f := range res.Freqs {
		fmt.Fprintf(out, "%.9g", f)
		for _, col := range cols {
			fmt.Fprintf(out, ",%.6g", col[k])
		}
		fmt.Fprintln(out)
	}
	return nil
}
