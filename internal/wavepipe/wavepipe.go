// Package wavepipe implements the paper's contribution: waveform-pipelined
// parallel transient simulation. Multiple adjacent time points are computed
// concurrently by worker goroutines in a way resembling hardware pipelining,
// without relaxation — every accepted point satisfies the same implicit
// integration formula, Newton tolerance and LTE test as the serial engine.
//
// Two embodiments are provided, plus their combination:
//
//   - Backward pipelining (SchemeBackward): while the main worker computes
//     the regular next point t+h, extra workers compute solutions at
//     backward points t+h−δ, t+h−2δ, ... All depend only on already-known
//     history, so they run fully in parallel. The densely spaced trailing
//     points shrink the variable-step Gear-2 LTE constant and refresh the
//     derivative estimate, allowing a larger next step — the pipeline
//     advances simulated time faster than one serial step per solve.
//
//   - Forward pipelining (SchemeForward): a second worker speculatively
//     iterates on the point after next (t+2h) using a polynomial
//     *prediction* of the not-yet-converged t+h solution as history. Once
//     the true t+h point is published, the worker swaps in the exact
//     history and finishes Newton from its warm iterate. Accuracy is
//     unaffected — the final iterations always use the true history and the
//     point is still LTE-checked — but most of its Newton work overlapped
//     with the predecessor's.
//
//   - SchemeCombined layers a backward worker under the main point and
//     (with 4 threads) under the forward point as well.
package wavepipe

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/num"
	"wavepipe/internal/sched"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// Scheme selects the pipelining embodiment.
type Scheme int

// Available pipelining schemes.
const (
	SchemeBackward Scheme = iota
	SchemeForward
	SchemeCombined
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeBackward:
		return "backward"
	case SchemeForward:
		return "forward"
	case SchemeCombined:
		return "combined"
	default:
		return "unknown"
	}
}

// Options configures a WavePipe run.
type Options struct {
	// Base carries the underlying transient configuration (window, method,
	// tolerances). Method must be Gear2 or Trapezoidal for second-order
	// pipelining; Gear2 (the default) is what the paper analyses.
	Base transient.Options
	// Scheme selects backward, forward or combined pipelining.
	Scheme Scheme
	// Threads is the number of concurrent point workers: 2–3 for backward,
	// 2 for forward, 3–4 for combined. Defaults to 2 (3 for combined).
	Threads int
	// DeltaRatio sets the backward offset δ = DeltaRatio·h (default 0.2).
	// Values outside (0, MaxDeltaRatio) select the default.
	DeltaRatio float64
	// WarmIters is how many speculative Newton iterations the forward
	// worker runs on the predicted history. 0 (the default) adapts the
	// depth to the rolling main-solve iteration count, mirroring a real
	// parallel machine where the speculative worker iterates until the
	// true predecessor point is published.
	WarmIters int
	// AggressiveGrowth credits the step-size growth cap once per accepted
	// point instead of once per stage (cap·GrowthCap^points). Faster on
	// smooth circuits but defeats the cap's trust-region role near sharp
	// nonlinear events; kept as an ablation knob (experiment A2), off by
	// default.
	AggressiveGrowth bool
}

// MaxDeltaRatio is the exclusive upper bound of the backward offset ratio
// the engine accepts.
const MaxDeltaRatio = 0.9

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		if o.Scheme == SchemeCombined {
			o.Threads = 3
		} else {
			o.Threads = 2
		}
	}
	if o.Scheme == SchemeForward {
		o.Threads = 2 // forward pipelining is depth-1 in this implementation
	}
	if o.Scheme == SchemeCombined && o.Threads > 4 {
		o.Threads = 4
	}
	if o.Scheme == SchemeBackward && o.Threads > 4 {
		o.Threads = 4
	}
	if o.DeltaRatio <= 0 || o.DeltaRatio >= MaxDeltaRatio {
		o.DeltaRatio = 0.2
	}
	return o
}

// Run executes a WavePipe transient analysis and returns a result of the
// same shape as the serial engine's.
func Run(sys *circuit.System, opts Options) (result *transient.Result, runErr error) {
	if opts.Base.TStop <= 0 {
		return nil, fmt.Errorf("wavepipe: TStop must be positive")
	}
	opts = opts.withDefaults()
	base := opts.Base.WithDefaults()
	e := &engine{
		sys:   sys,
		opts:  opts,
		base:  base,
		ctrl:  base.Control,
		rl:    &transient.RecoveryLog{},
		flt:   base.Faults,
		tr:    base.Trace,
		guard: base.Guard,
	}
	// Two-level budget split: one core per pipeline worker first, then the
	// remainder divided into equal per-solver intra-point gangs. Small
	// systems keep the whole budget at the pipeline level — barrier costs
	// would eat the intra-point gain (see transient.IntraProfitable).
	e.intra = 1
	if base.CoreBudget > 0 {
		e.coreBudget = base.CoreBudget
		e.budget = sched.NewBudget(base.CoreBudget)
		e.budget.Reserve(opts.Threads) // pipeline leaders (may be partial)
		if transient.IntraProfitable(sys) {
			if intra := base.CoreBudget / opts.Threads; intra > 1 {
				e.intra = intra
			}
		}
	}
	for i := 0; i < opts.Threads; i++ {
		s := transient.NewPointSolver(sys, base.Method, base.Newton, base.Gmin)
		s.WS.Faults = base.Faults
		s.WS.Abort = e.guard.AbortFlag()
		if base.LoadWorkers > 1 {
			s.WS.SetLoadWorkers(base.LoadWorkers)
			s.WS.SetLoadMode(base.LoadMode)
		}
		if e.intra > 1 {
			// NewPool grants whatever the budget still covers; a nil pool
			// (budget exhausted) just leaves this solver serial inside.
			if pool := e.budget.NewPool(e.intra); pool != nil {
				s.WS.SetPool(pool)
				e.pools = append(e.pools, pool)
			}
		}
		s.WS.Solver.BypassTol = base.BypassTol
		s.WS.SetDeviceBypass(base.DeviceBypassTol, 0)
		s.SetTrace(base.Trace, int16(i))
		e.solvers = append(e.solvers, s)
	}
	defer func() {
		for _, p := range e.pools {
			p.Close()
		}
	}()

	// Final checkpoint on every exit path that has at least one accepted
	// point (see the serial engine's identical contract).
	defer func() {
		if !e.guard.Active() || e.hist == nil || e.hist.Len() == 0 {
			return
		}
		saveErr := e.guard.SaveFinal(e.capture())
		if runErr == nil && saveErr != nil {
			runErr = &faults.SimError{Phase: "checkpoint", Time: e.t(), Node: -1, Cause: saveErr}
		}
	}()

	if base.Resume != nil {
		rs, err := transient.RestoreState(base.Resume, sys, e.solvers[0], &base)
		if err != nil {
			return nil, err
		}
		// Lane 0 received the limiting/factorization state; the other lanes
		// adopt the limiting state (invalidating their journals). Pipelined
		// resume is equivalence-tolerance, not bit-identical: only the
		// serial engine's solve order is reproducible.
		for _, s := range e.solvers[1:] {
			s.WS.CopyStateFrom(e.solvers[0].WS)
		}
		e.hist, e.w, e.rl = rs.Hist, rs.W, rs.RL
		e.baseStats = rs.Base
		e.h, e.afterBreak, e.warmup = rs.H, rs.AfterBreak, rs.Warmup
	} else {
		p0, err := transient.InitialPoint(sys, e.solvers[0], base)
		if err != nil {
			return nil, err
		}
		e.hist = &integrate.History{}
		e.hist.Add(p0)
		e.w = transient.RecordSet(sys, base)
		e.w.Append(p0.T, p0.X)
		if base.OnAccept != nil {
			base.OnAccept(p0.T, e.w.Data[len(e.w.Data)-1])
		}
		e.h = math.Min(base.HInit, e.ctrl.HMax)
		e.afterBreak = true
	}
	e.bps = transient.CollectBreakpoints(sys, base.TStop)
	e.horizonEdge = transient.HorizonIsEdge(sys, base.TStop)

	for e.t() < base.TStop*(1-1e-12) {
		if e.ckptDue {
			e.ckptDue = false
			// Periodic snapshot at a committed stage boundary; a failed
			// write is latched in the controller, not fatal.
			_ = e.guard.Save(e.capture())
		}
		if aerr := e.guard.Err(); aerr != nil {
			return e.result(), &faults.SimError{Phase: "wavepipe", Time: e.t(), Node: -1, Cause: aerr}
		}
		if base.Ctx != nil {
			select {
			case <-base.Ctx.Done():
				if e.tr.Active() {
					e.tr.Emit(trace.Event{Kind: trace.KindCancel, T: e.t(), Worker: -1, Stage: int32(e.stages)})
				}
				return e.result(), transient.CancelError("wavepipe", e.t())
			default:
			}
		}
		if e.points >= base.MaxPoints {
			return e.result(), fmt.Errorf("wavepipe: exceeded %d points at t=%g", base.MaxPoints, e.t())
		}
		e.stages++
		var err error
		switch {
		case e.warmup > 0 || e.degraded > 0:
			// Pipeline flush: after a waveform discontinuity the truncation-
			// error checks have no valid history, so speculative points
			// would be accepted blind. Like a hardware pipeline after a
			// branch, refill serially until LTE control re-engages. The same
			// serial path is the degradation fallback after worker panics or
			// repeated stage failures (see degrade).
			err = e.serialStage()
		case opts.Scheme == SchemeForward:
			err = e.forwardStage(false)
		case opts.Scheme == SchemeCombined:
			err = e.forwardStage(true)
		default:
			err = e.backwardStage()
		}
		if err != nil {
			// A tripped deadline/watchdog can surface as a stage failure
			// (the Newton loops poll the abort flag); report the abort.
			if aerr := e.guard.Err(); aerr != nil {
				return e.result(), &faults.SimError{Phase: "wavepipe", Time: e.t(), Node: -1, Cause: aerr}
			}
			return e.result(), err
		}
	}

	return e.result(), nil
}

// capture snapshots the engine at a committed stage boundary. Lane 0 holds
// the authoritative limiting/factorization state: it computes every main
// point and every serial-fallback point.
func (e *engine) capture() *checkpoint.State {
	total := transient.Stats{}
	for _, s := range e.solvers {
		s.HarvestSolverStats()
		total.Add(s.Stats)
	}
	total.Points = e.points
	total.LTERejects = e.lteRejects
	total.Discarded = e.discarded
	total.Stages = e.stages
	total.WorkerPanics = e.workerPanics
	total.DegradedStages = e.degradedStages
	total.Add(e.baseStats)
	hUsed := 0.0
	if n := e.hist.Len(); n >= 2 {
		hUsed = e.hist.At(n-1).T - e.hist.At(n-2).T
	}
	return transient.CaptureState(e.sys, e.solvers[0], &e.base, e.w, e.rl, e.hist,
		total, e.t(), e.h, hUsed, e.afterBreak, e.warmup, 1)
}

// result assembles the (possibly partial) run outcome from the engine state.
func (e *engine) result() *transient.Result {
	stats := transient.Stats{}
	for _, s := range e.solvers {
		s.HarvestSolverStats()
		stats.Add(s.Stats)
	}
	stats.Points = e.points
	stats.LTERejects = e.lteRejects
	stats.Discarded = e.discarded
	stats.Stages = e.stages
	stats.WorkerPanics = e.workerPanics
	stats.DegradedStages = e.degradedStages
	stats.CoreBudget = e.coreBudget
	stats.PipelineWorkers = e.opts.Threads
	stats.IntraWorkers = 1
	for _, p := range e.pools {
		if w := p.Workers(); w > stats.IntraWorkers {
			stats.IntraWorkers = w
		}
	}
	stats.PipelineSerialized = e.pipelineSerialized
	stats.Add(e.baseStats)
	return &transient.Result{W: e.w, Stats: stats, FinalX: num.Copy(e.hist.Last().X), Recovery: e.rl}
}

// engine holds the per-run coordinator state. Worker goroutines only touch
// their own PointSolver plus the immutable history snapshot of the stage.
type engine struct {
	sys  *circuit.System
	opts Options
	base transient.Options
	ctrl integrate.Control

	solvers []*transient.PointSolver
	hist    *integrate.History
	w       *waveform.Set

	bps         []float64
	nextBp      int
	horizonEdge bool // a device waveform edge coincides with TStop
	h           float64
	afterBreak  bool
	warmup      int // serial stages remaining after a pipeline flush

	// Two-level scheduling state: the run's core budget (0 = unmanaged),
	// the per-solver intra-point gang width, the budget accountant and the
	// pools it granted, and whether the budget forced any pipeline phase to
	// serialize.
	coreBudget         int
	intra              int
	budget             *sched.Budget
	pools              []*sched.Pool
	pipelineSerialized bool

	// Robustness state: the run's recovery log and fault harness, the
	// remaining serial-fallback window, and the consecutive-failure streak
	// that triggers it.
	rl         *transient.RecoveryLog
	flt        *faults.Injector
	degraded   int
	failStreak int

	// Durability state: the run's guard (nil when unguarded), whether a
	// periodic checkpoint is due at the next committed stage boundary, and
	// the stats baseline carried over from before a resume.
	guard     *checkpoint.Controller
	ckptDue   bool
	baseStats transient.Stats

	// tr is the run's event stream (nil when untraced; every emission site
	// is nil-safe). Counter-bearing emissions go through the accept /
	// noteDiscards / noteReject / degrade helpers so the trace can never
	// diverge from the Stats counters.
	tr *trace.Tracer

	points         int
	lteRejects     int
	discarded      int
	stages         int
	workerPanics   int
	degradedStages int
	emaIters       float64 // rolling main-solve Newton iteration count

	// Coordinator-side scratch: the LTE checks and step selection run on the
	// coordinator between parallel phases, so one set of buffers makes the
	// per-stage bookkeeping allocation-free.
	ltePts  []*integrate.Point
	tailBuf []*integrate.Point
	lteScr  integrate.LTEScratch
}

// t returns the current simulation time.
func (e *engine) t() float64 { return e.hist.Last().T }

// stageLimit returns the next hard time boundary (breakpoint or TStop).
func (e *engine) stageLimit() float64 {
	t := e.t()
	for e.nextBp < len(e.bps) && e.bps[e.nextBp] <= t*(1+1e-12) {
		e.nextBp++
	}
	if e.nextBp < len(e.bps) {
		return e.bps[e.nextBp]
	}
	return e.base.TStop
}

// warmDepth returns the speculative iteration budget for the forward
// worker: the configured WarmIters, or (adaptively) one less than the
// rolling main-solve iteration count — the warm start's trailing
// assembly+factorization costs roughly one more iteration, keeping the
// speculative task no heavier than the concurrent main solve.
func (e *engine) warmDepth() int {
	if e.opts.WarmIters > 0 {
		return e.opts.WarmIters
	}
	d := int(e.emaIters + 0.5)
	if d < 1 {
		d = 1
	}
	if d > 10 {
		d = 10
	}
	return d
}

// noteMainIters feeds the rolling iteration average.
func (e *engine) noteMainIters(iters int) {
	if e.emaIters == 0 {
		e.emaIters = float64(iters)
		return
	}
	e.emaIters += 0.2 * (float64(iters) - e.emaIters)
}

// sequentialFor reports whether a phase of n concurrent tasks must run
// sequentially because the run's core budget grants fewer pipeline slots
// than the phase needs.
func (e *engine) sequentialFor(n int) bool {
	return e.coreBudget > 0 && e.coreBudget < n
}

// runTasks executes the independent tasks of one pipeline phase, in
// parallel unless the core budget forbids it (same results either way; see
// sequentialFor).
func (e *engine) runTasks(tasks ...func()) {
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	if e.sequentialFor(len(tasks)) {
		e.pipelineSerialized = true
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(t)
	}
	wg.Wait()
}

// pointResult carries one worker's outcome back to the coordinator.
type pointResult struct {
	pt  *integrate.Point
	co  integrate.Coeffs
	err error
}

// lteNorm checks a candidate against the pre-stage history, estimating the
// derivative from spaced points (see History.SpacedTail) while keeping the
// candidate's true trailing spacing in the error coefficient.
func (e *engine) lteNorm(res pointResult) float64 {
	return e.lteNormAgainst(e.hist, res)
}

func (e *engine) lteNormAgainst(hist *integrate.History, res pointResult) float64 {
	e.ltePts = hist.AppendSpacedTail(e.ltePts[:0], res.co.Order+1, res.co.H0/4)
	e.ltePts = append(e.ltePts, res.pt)
	if e.tr.Active() {
		t0 := time.Now()
		norm := e.ctrl.CheckLTEWith(e.base.Method, res.co.Order, e.ltePts, res.co.H0, res.co.H1, &e.lteScr)
		e.tr.Emit(trace.Event{
			Kind: trace.KindPhase, Phase: trace.PhaseLTE, T: res.pt.T, Norm: norm,
			Worker: -1, Stage: int32(e.stages), Dur: time.Since(t0).Nanoseconds(),
		})
		return norm
	}
	return e.ctrl.CheckLTEWith(e.base.Method, res.co.Order, e.ltePts, res.co.H0, res.co.H1, &e.lteScr)
}

// accept publishes a point into the history and the waveform set. Any
// accepted point is progress, so the failure streak resets.
func (e *engine) accept(pt *integrate.Point) {
	if e.tr.Active() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindAccept, T: pt.T, H: pt.T - e.hist.Last().T,
			Worker: -1, Stage: int32(e.stages),
		})
	}
	e.hist.Add(pt)
	e.w.Append(pt.T, pt.X)
	if e.base.OnAccept != nil {
		e.base.OnAccept(pt.T, e.w.Data[len(e.w.Data)-1])
	}
	e.points++
	e.failStreak = 0
	if e.guard.NoteAccept() {
		// Mid-stage accept: snapshot at the next committed stage boundary,
		// never between the parallel phases of one stage.
		e.ckptDue = true
	}
}

// noteDiscards counts n speculative points thrown away unused, pairing each
// Stats.Discarded increment with one KindDiscard event.
func (e *engine) noteDiscards(t float64, n int) {
	e.discarded += n
	if e.tr.Active() {
		for i := 0; i < n; i++ {
			e.tr.Emit(trace.Event{Kind: trace.KindDiscard, T: t, Worker: -1, Stage: int32(e.stages)})
		}
	}
}

// noteReject counts one LTE rejection, pairing the Stats.LTERejects
// increment with one KindLTEReject event. A rejected candidate's journals
// describe a discarded trajectory, so the bypass state is retired with it.
func (e *engine) noteReject(t, h, norm float64) {
	e.lteRejects++
	e.invalidateBypass()
	if e.tr.Active() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindLTEReject, T: t, H: h, Norm: norm,
			Worker: -1, Stage: int32(e.stages),
		})
	}
}

// invalidateBypass retires every solver's device-bypass journals. The
// coordinator calls it whenever the run's trajectory breaks — rejections,
// failures, breakpoints — so no pipeline lane replays stamps captured on a
// discarded path. Each workspace owns an independent generation counter, so
// concurrent stage workers are never exposed to a mid-flight bump (the
// coordinator only calls this between parallel phases).
func (e *engine) invalidateBypass() {
	for _, s := range e.solvers {
		s.WS.InvalidateDeviceBypass()
	}
}

// degradeWindow is how many serial stages the pipeline runs after a
// degradation trigger before re-entering pipelined operation.
const degradeWindow = 8

// degrade drops the pipeline to serial integration for the next
// degradeWindow stages. The first trigger of a window is logged.
func (e *engine) degrade(reason string) {
	if e.degraded == 0 {
		e.rl.Note(e.t(), transient.RecoverySerialFallback, reason)
		if e.tr.Active() {
			e.tr.Emit(trace.Event{
				Kind: trace.KindSerialFallback, T: e.t(), Worker: -1,
				Stage: int32(e.stages), Detail: reason,
			})
		}
	}
	e.degraded = degradeWindow
}

// guardTask wraps one stage-worker task so that a panic (real or injected)
// surfaces as a typed error on res instead of killing the process — a bad
// device model must cost at most the stage, never the run.
func (e *engine) guardTask(tTarget float64, res *pointResult, f func()) func() {
	return func() {
		defer func() {
			if r := recover(); r != nil {
				res.err = &faults.SimError{
					Phase: "wavepipe", Time: tTarget, Node: -1,
					Cause: fmt.Errorf("%w: %v", faults.ErrWorkerPanic, r),
				}
			}
		}()
		if cls, ok := e.flt.At(faults.SiteWorker, tTarget); ok && cls == faults.WorkerPanic {
			panic(fmt.Sprintf("injected worker panic at t=%g", tTarget))
		}
		f()
	}
}

// notePanics counts worker panics among the stage's results and schedules
// the serial-fallback window.
func (e *engine) notePanics(results ...*pointResult) {
	for _, r := range results {
		if r != nil && r.err != nil && errors.Is(r.err, faults.ErrWorkerPanic) {
			e.workerPanics++
			e.degrade("worker panic")
		}
	}
}

// serialStage advances one plain single-point step (the pipeline-flush
// refill path after breakpoints).
func (e *engine) serialStage() error {
	t := e.t()
	limit := e.stageLimit()
	tNew := t + e.h
	hitBp := false
	if tNew >= limit-0.01*e.h { // step-relative clamp; see transient.Run
		tNew = limit
		hitBp = true
	}
	pt, co, err := e.solvers[0].SolveAt(e.hist, tNew, nil)
	if err != nil {
		// Step shrinking first; at the floor, the serial stage is the
		// pipeline's last line of defense, so it climbs the same
		// convergence-recovery ladder as the serial engine.
		if e.h/8 >= e.ctrl.HMin {
			e.failStreak++
			e.invalidateBypass()
			e.h /= 8
			return nil
		}
		e.h = e.ctrl.HMin
		tNew = t + e.h
		hitBp = tNew >= limit-0.01*e.h
		if hitBp {
			tNew = limit
		}
		pt, co, err = e.solvers[0].RecoverAt(e.hist, tNew, e.rl)
		if err != nil {
			return &faults.SimError{
				Phase: "wavepipe", Time: t, Node: -1,
				Cause: fmt.Errorf("%w at t=%g: %w", faults.ErrStepTooSmall, t, err),
			}
		}
	}
	res := pointResult{pt: pt, co: co}
	norm := e.lteNorm(res)
	if norm > 1 && co.H0 > e.ctrl.HMin*1.01 && !e.afterBreak {
		e.noteReject(tNew, co.H0, norm)
		e.h = e.ctrl.ShrinkOnReject(co.H0, norm, co.Order)
		return nil
	}
	e.accept(pt)
	e.noteMainIters(e.solvers[0].LastIters)
	if hitBp && !e.finalPlainLanding() {
		e.handleBreak(co.H0)
		return nil
	}
	e.afterBreak = false
	if e.warmup > 0 {
		e.warmup--
	} else if e.degraded > 0 {
		e.degraded--
		e.degradedStages++
	}
	e.nextStep(co.H0, 1, norm, co.H1)
	return nil
}

// finalPlainLanding reports whether the engine just landed on the plain
// simulation horizon rather than on a device waveform edge. Such a landing
// needs no integrator restart — the run is over, and the final checkpoint
// keeps the history at full order so a resumed continuation picks up
// without a restart transient (see transient.HorizonIsEdge).
func (e *engine) finalPlainLanding() bool {
	return e.t() >= e.base.TStop*(1-1e-12) && !e.horizonEdge
}

// handleBreak restarts integration after landing on a breakpoint, sizing
// the restart step from the next breakpoint gap (see transient.RestartStep).
func (e *engine) handleBreak(lastStep float64) {
	e.hist.Truncate()
	// Discontinuity: journals captured before the edge describe dynamics
	// that no longer exist.
	e.invalidateBypass()
	t := e.t()
	gap := e.base.TStop - t
	if e.nextBp < len(e.bps) {
		// stageLimit has not advanced past the just-consumed breakpoint yet;
		// scan forward for the next strictly-later one.
		for _, bp := range e.bps[e.nextBp:] {
			if bp > t*(1+1e-12) {
				gap = bp - t
				break
			}
		}
	}
	e.h = transient.RestartStep(gap, lastStep, e.base.HInit, e.ctrl)
	e.afterBreak = true
	// Refill serially until the LTE checks have a full stencil again:
	// Gear-2 needs order+2 = 4 points, i.e. 3 accepted steps past the
	// breakpoint point.
	e.warmup = 3
}

// nextStep picks the step for the following stage from the accepted
// anchor's LTE norm (see integrate.Control.NextStep), under the growth cap.
// The cap is applied to the stage's main advance (hUsed), exactly as the
// serial engine caps against its last step — the pipelining gain comes from
// the relaxed LTE error coefficient (clustered trailing history enters
// h1Next), not from weakening the cap. AggressiveGrowth (ablation A2)
// credits the cap once per accepted point instead.
func (e *engine) nextStep(hUsed float64, accepted int, norm, h1Solve float64) {
	order := e.base.Method.Order()
	e.tailBuf = e.hist.AppendTail(e.tailBuf[:0], 2)
	last := e.tailBuf
	h1Next := 0.0
	if len(last) == 2 {
		h1Next = last[1].T - last[0].T
	}
	h := e.ctrl.NextStep(e.base.Method, order, norm, hUsed, h1Solve, h1Next)
	growth := e.ctrl.GrowthCap
	if e.opts.AggressiveGrowth {
		growth = math.Pow(e.ctrl.GrowthCap, float64(accepted))
	}
	if capV := hUsed * growth; h > capV {
		h = capV
	}
	e.h = num.Clamp(h, e.ctrl.HMin, e.ctrl.HMax)
}

// shrinkAfterFailure reduces the stage step after a Newton failure. It never
// fails the run: repeated failures and the step floor both hand control to
// the serial fallback, whose recovery ladder is the last word.
func (e *engine) shrinkAfterFailure() {
	e.failStreak++
	e.invalidateBypass()
	if e.failStreak >= 3 {
		e.degrade("repeated stage failure")
	}
	e.h /= 8
	if e.h < e.ctrl.HMin {
		e.h = e.ctrl.HMin
		e.degrade("step floor reached")
	}
}

// backwardStage runs one backward-pipelining stage: the main point t+h and
// Threads−1 backward points t+h−jδ, all solved concurrently from the same
// history.
func (e *engine) backwardStage() error {
	t := e.t()
	limit := e.stageLimit()
	tMain := t + e.h
	hitBp := false
	if tMain >= limit-0.01*e.h { // step-relative clamp; see transient.Run
		tMain = limit
		hitBp = true
	}
	h0 := tMain - t
	delta := e.opts.DeltaRatio * h0

	// Backward targets, ascending, ending with the main point. Offsets that
	// would crowd the base point are dropped.
	targets := make([]float64, 0, e.opts.Threads)
	for j := e.opts.Threads - 1; j >= 1; j-- {
		tb := tMain - float64(j)*delta
		if tb > t+0.05*h0 {
			targets = append(targets, tb)
		}
	}
	targets = append(targets, tMain)

	results := make([]pointResult, len(targets))
	tasks := make([]func(), len(targets))
	for i := range targets {
		i := i
		tasks[i] = e.guardTask(targets[i], &results[i], func() {
			pt, co, err := e.solvers[i].SolveAt(e.hist, targets[i], nil)
			results[i] = pointResult{pt: pt, co: co, err: err}
		})
	}
	e.runTasks(tasks...)
	for i := range results {
		e.notePanics(&results[i])
	}

	main := results[len(results)-1]
	if main.err != nil {
		e.noteDiscards(tMain, len(targets)-1)
		if !errors.Is(main.err, faults.ErrWorkerPanic) {
			// A panicked main worker is not a step-size problem; the
			// scheduled serial fallback simply redoes the point. Newton
			// failures shrink the step as before.
			e.shrinkAfterFailure()
		}
		return nil
	}
	mainNorm := e.lteNorm(main)
	if mainNorm > 1 && main.co.H0 > e.ctrl.HMin*1.01 && !e.afterBreak {
		e.noteReject(tMain, main.co.H0, mainNorm)
		e.noteDiscards(tMain, len(targets)-1)
		e.h = e.ctrl.ShrinkOnReject(main.co.H0, mainNorm, main.co.Order)
		return nil
	}

	// Accept the surviving backward points (ascending) and then the main
	// point. Backward points are optional accelerators: failures only cost
	// their potential speedup. LTE norms are evaluated against the
	// pre-stage history every candidate was actually solved from.
	keep := make([]bool, len(results)-1)
	for i, r := range results[:len(results)-1] {
		if r.err != nil {
			continue
		}
		if !e.afterBreak {
			if norm := e.lteNorm(r); norm > 1 {
				continue
			}
		}
		keep[i] = true
	}
	accepted := 0
	for i, r := range results[:len(results)-1] {
		if keep[i] {
			e.accept(r.pt)
			accepted++
		} else {
			e.noteDiscards(targets[i], 1)
		}
	}
	e.accept(main.pt)
	accepted++

	if hitBp && !e.finalPlainLanding() {
		e.handleBreak(h0)
		return nil
	}
	e.afterBreak = false
	e.nextStep(h0, accepted, mainNorm, main.co.H1)
	return nil
}
