// Package transient implements the serial adaptive-step transient engine —
// the baseline WavePipe is measured against — plus the single-point solver
// machinery (predictor, Newton solve, charge bookkeeping) shared with the
// parallel engines.
package transient

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/dcop"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/newton"
	"wavepipe/internal/num"
	"wavepipe/internal/sched"
	"wavepipe/internal/trace"
	"wavepipe/internal/waveform"
)

// Breakpointer is implemented by devices whose waveforms have slope
// discontinuities the engine must land on exactly.
type Breakpointer interface {
	Breakpoints(stop float64) []float64
}

// Options configures a transient analysis.
type Options struct {
	TStop   float64           // end of the simulation window (required)
	Method  integrate.Method  // integration method (default Gear2)
	HInit   float64           // first step (default TStop·1e-6)
	Control integrate.Control // zero value → integrate.DefaultControl(TStop)
	Newton  newton.Options    // zero value → newton.DefaultOptions()
	Gmin    float64           // junction shunt (default 1e-12)
	// UIC skips the DC operating point and starts from the IC values
	// (unspecified nodes start at 0), like SPICE's .TRAN ... UIC.
	UIC bool
	// IC maps solution-vector indices to initial values (used with UIC).
	IC map[int]float64
	// NodeSet maps solution-vector indices to operating-point initial
	// guesses (.NODESET): they seed Newton but are not enforced.
	NodeSet map[int]float64
	// Record lists solution-vector indices to store in the result waveform
	// set; nil records every node voltage.
	Record []int
	// MaxPoints aborts runaway simulations (default 2 000 000).
	MaxPoints int
	// DCOp configures the operating-point search.
	DCOp dcop.Options
	// NoLTE disables truncation-error step control (fixed conservative
	// stepping; used by ablation experiments).
	NoLTE bool
	// GrowthCapOverride, when > 0, replaces Control.GrowthCap (ablation).
	GrowthCapOverride float64
	// LoadWorkers > 1 attaches a gang of that width to the point solver
	// regardless of system size: the fine-grained parallel device evaluation
	// of the conventional parallel-SPICE baseline, run as colored direct
	// stamping (plus the level-scheduled LU kernels) on the gang. A
	// CoreBudget, when set, caps the width.
	LoadWorkers int
	// CoreBudget > 1 attaches a shared worker gang to the point solver:
	// colored device loads and the level-scheduled sparse LU kernels run on
	// one pool of CoreBudget cores (caller included). Results are
	// bit-identical across GOMAXPROCS at a fixed budget, and agree with the
	// unbudgeted run within the LTE band (the colored load reassociates row
	// sums). 0/1 keeps everything serial. Small systems stay serial
	// regardless (see IntraProfitable).
	CoreBudget int
	// BypassTol > 0 enables Newton factorization bypass: when no Jacobian
	// value moved by more than this relative tolerance since the last real
	// factorization, the LU is reused (the accepted final iterate of every
	// point is still guaranteed a fresh factorization). 0 disables.
	BypassTol float64
	// DeviceBypassTol > 0 enables the incremental assembly engine: linear
	// devices collapse into a cached per-Alpha0 stamp template, and nonlinear
	// devices whose controlling voltages moved by less than
	// DeviceBypassTol·|v| + abstol since their last evaluation are answered
	// by journal replay instead of a model evaluation (SPICE3-style device
	// bypass). The iteration that declares convergence is always fully
	// evaluated, so accepted points never rest on replayed stamps.
	// 0 disables (the default, and the bit-exact reference path).
	DeviceBypassTol float64
	// Faults, when non-nil, is a deterministic fault-injection harness shared
	// by every solver layer of the run (tests only; nil in production).
	Faults *faults.Injector
	// Ctx, when non-nil, is polled at every time-point boundary: once it is
	// done the run stops, returning the partial Result alongside an error
	// wrapping faults.ErrCanceled.
	Ctx context.Context
	// Trace, when non-nil, receives the structured run telemetry (per-point
	// events, solve-phase timings, periodic snapshots). Nil keeps the hot
	// path allocation- and clock-read-free.
	Trace *trace.Tracer
	// Guard, when non-nil, makes the run durable and time-bound: it owns the
	// cooperative abort flag (deadline timer, stall watchdog), decides when
	// periodic checkpoints are due, and persists them. The engine writes a
	// final checkpoint on every exit path that has at least one accepted
	// point.
	Guard *checkpoint.Controller
	// Resume, when non-nil, is a validated-on-entry checkpoint the run
	// continues from instead of computing a DC operating point. The caller
	// must pass the same circuit and analysis options the checkpoint was
	// written under.
	Resume *checkpoint.State
	// OnAccept, when non-nil, observes every accepted time point right after
	// it is committed to the waveform set: t is the point's time and row the
	// recorded values in waveform column order. The row aliases the set's
	// storage — callers that retain it past the callback must copy. Called
	// from the engine's commit goroutine only, in time order, never after
	// Run returns. A resumed run does not re-emit points restored from the
	// checkpoint.
	OnAccept func(t float64, row []float64)
}

// DefaultDeviceBypassTol is the relative tolerance the facade enables
// device bypass with. It sits well inside the Newton update tolerance, so a
// replayed stamp can never move an iterate across the convergence band.
const DefaultDeviceBypassTol = 1e-3

// canceled reports whether o.Ctx has been canceled (nil-safe, non-blocking).
func (o *Options) canceled() bool {
	if o.Ctx == nil {
		return false
	}
	select {
	case <-o.Ctx.Done():
		return true
	default:
		return false
	}
}

// CancelError builds the typed error a canceled run returns.
func CancelError(phase string, t float64) error {
	return &faults.SimError{Phase: phase, Time: t, Node: -1, Cause: faults.ErrCanceled}
}

func (o Options) WithDefaults() Options {
	if o.Method == 0 {
		o.Method = integrate.Gear2
	}
	if o.HInit <= 0 {
		o.HInit = o.TStop * 1e-6
	}
	if o.Control == (integrate.Control{}) {
		o.Control = integrate.DefaultControl(o.TStop)
	}
	if o.GrowthCapOverride > 0 {
		o.Control.GrowthCap = o.GrowthCapOverride
	}
	if o.Newton.MaxIter == 0 {
		o.Newton = newton.DefaultOptions()
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 2_000_000
	}
	if o.DCOp.GminSteps == 0 {
		o.DCOp = dcop.DefaultOptions()
	}
	return o
}

// Stats aggregates the work a transient run performed.
type Stats struct {
	Points     int // accepted time points
	Solves     int // Newton point solves attempted (incl. rejected/discarded)
	NRIters    int // total Newton iterations
	LTERejects int // points rejected by truncation-error control
	NRFailures int // Newton non-convergence retries
	Discarded  int // speculative points thrown away (parallel engines)
	OpIters    int // operating-point Newton iterations
	Stages     int // sequential solve rounds on the critical path
	Recoveries int // points rescued by the convergence-recovery ladder
	// WorkerPanics counts pipeline-stage worker panics converted to typed
	// errors; DegradedStages counts stages the pipeline ran serially because
	// of degradation (not counting post-breakpoint warmup).
	WorkerPanics   int
	DegradedStages int
	// Factorization accounting (filled from the sparse solver counters):
	// bypassed calls reused the previous LU outright, reused calls kept an
	// LU whose values were bit-for-bit unchanged (an exact skip, not a
	// stale LU), refactorizations took the numeric-only path, full
	// factorizations re-pivoted from scratch.
	BypassedFactorizations int
	ReusedFactorizations   int
	Refactorizations       int
	FullFactorizations     int
	// Incremental-assembly accounting (filled from the workspace counters):
	// BypassedEvals counts device evaluations answered by journal replay,
	// LinearStampHits counts device loads that started from a cached linear
	// stamp template instead of re-stamping every linear device.
	BypassedEvals   int64
	LinearStampHits int64
	// Two-level scheduling accounting: the core budget the run was given,
	// how it was split between pipeline workers and intra-point workers,
	// and whether the budget granted too few pipeline slots, so stage tasks
	// ran one after another.
	CoreBudget         int
	PipelineWorkers    int
	IntraWorkers       int
	PipelineSerialized bool
	// Time-parallel (Parareal) window accounting, filled only by the
	// internal/windows coordinator: windows launched, fine-propagator
	// invocations (speculative solves plus redos), and windows that failed
	// their convergence gate and were redone from the exact predecessor
	// state. Points/Solves above count every inner run, including
	// speculative window solves later discarded, so trace replay still
	// reconciles 1:1; the stitched waveform is shorter than Points.
	WindowsLaunched int64
	PararealIters   int64
	WindowRedos     int64
	// Parasitic-reduction accounting, filled by the facade when the
	// internal/reduce pass shrank the system before this run: original
	// nodes and devices the pass suppressed. Like the scheduling fields,
	// they describe the run rather than per-worker work.
	ReducedNodes   int64
	ReducedDevices int64
}

// Add accumulates other into s (used to merge per-worker stats).
func (s *Stats) Add(other Stats) {
	s.Points += other.Points
	s.Solves += other.Solves
	s.NRIters += other.NRIters
	s.LTERejects += other.LTERejects
	s.NRFailures += other.NRFailures
	s.Discarded += other.Discarded
	s.OpIters += other.OpIters
	s.Stages += other.Stages
	s.Recoveries += other.Recoveries
	s.WorkerPanics += other.WorkerPanics
	s.DegradedStages += other.DegradedStages
	s.BypassedFactorizations += other.BypassedFactorizations
	s.ReusedFactorizations += other.ReusedFactorizations
	s.Refactorizations += other.Refactorizations
	s.FullFactorizations += other.FullFactorizations
	s.BypassedEvals += other.BypassedEvals
	s.LinearStampHits += other.LinearStampHits
	// Scheduling fields describe the run, not per-worker work: keep the
	// maximum (per-worker stats carry zeros) and OR the serialization flag.
	if other.CoreBudget > s.CoreBudget {
		s.CoreBudget = other.CoreBudget
	}
	if other.PipelineWorkers > s.PipelineWorkers {
		s.PipelineWorkers = other.PipelineWorkers
	}
	if other.IntraWorkers > s.IntraWorkers {
		s.IntraWorkers = other.IntraWorkers
	}
	s.PipelineSerialized = s.PipelineSerialized || other.PipelineSerialized
	s.WindowsLaunched += other.WindowsLaunched
	s.PararealIters += other.PararealIters
	s.WindowRedos += other.WindowRedos
	if other.ReducedNodes > s.ReducedNodes {
		s.ReducedNodes = other.ReducedNodes
	}
	if other.ReducedDevices > s.ReducedDevices {
		s.ReducedDevices = other.ReducedDevices
	}
}

// Result is the outcome of a transient analysis. On failure the engines
// still return the partial Result accumulated so far (waveform, stats,
// recovery log) alongside the error, so callers can report how far the run
// got and what was tried.
type Result struct {
	W      *waveform.Set
	Stats  Stats
	FinalX []float64
	// Recovery records the robustness actions taken during the run (empty
	// on a healthy run).
	Recovery *RecoveryLog
}

// PointSolver computes implicit solutions at single time points on one
// workspace. One PointSolver must be used by at most one goroutine.
type PointSolver struct {
	WS     *circuit.Workspace
	Method integrate.Method
	Newton newton.Options
	Gmin   float64
	Stats  Stats
	// LastIters is the Newton iteration count of the most recent SolveAt or
	// ResumeAt call.
	LastIters int

	qhist, r, dx []float64

	// Warm-start bookkeeping for ResumeAt: the time point and Alpha0 the
	// workspace's current assembly and factorization correspond to.
	warmTime   float64
	warmAlpha0 float64
	warmValid  bool

	// Pooled per-point scratch: steady-state transient iteration allocates
	// nothing. tailBuf/predTs/predXs serve the polynomial predictor (at
	// most three points, which num's fixed-size kernel runs without
	// scratch); warmBuf is WarmStart's returned iterate (consumed by the
	// matching ResumeAt before the next WarmStart on this solver).
	tailBuf []*integrate.Point
	predTs  []float64
	predXs  [][]float64
	warmBuf []float64

	// ptPool recycles Point buffers (X/Q/Qdot) through takePoint/PutPoint.
	// predRing backs PredictPoint's speculative full-point predictions: a
	// fixed rotation of four points, enough that the at-most-two predictions
	// of one pipeline stage never alias the previous stage's.
	ptPool   []*integrate.Point
	predRing [4]*integrate.Point
	predNext int
	predQs   [][]float64
	predQds  [][]float64
}

// NewPointSolver allocates a solver on a fresh workspace of sys.
func NewPointSolver(sys *circuit.System, method integrate.Method, nopts newton.Options, gmin float64) *PointSolver {
	n := sys.N
	return &PointSolver{
		WS:     sys.NewWorkspace(),
		Method: method,
		Newton: nopts,
		Gmin:   gmin,
		qhist:  make([]float64, n),
		r:      make([]float64, n),
		dx:     make([]float64, n),
	}
}

// SetTrace attaches the run's event stream to this solver's workspace and
// assigns its worker lane (nil tr keeps the untraced fast path).
func (ps *PointSolver) SetTrace(tr *trace.Tracer, worker int16) {
	ps.WS.Trace = tr
	ps.WS.Worker = worker
}

// Predict extrapolates the solution history polynomially to time t, writing
// the initial Newton guess into dst. At most three trailing points are used
// (quadratic prediction).
func Predict(hist *integrate.History, t float64, dst []float64) {
	pts := hist.Tail(3)
	ts := make([]float64, len(pts))
	xs := make([][]float64, len(pts))
	for i, p := range pts {
		ts[i] = p.T
		xs[i] = p.X
	}
	num.PredictVectorAt(ts, xs, t, dst)
}

// predict is Predict running entirely on the solver's pooled scratch.
func (ps *PointSolver) predict(hist *integrate.History, t float64, dst []float64) {
	ps.tailBuf = hist.AppendTail(ps.tailBuf[:0], 3)
	pts := ps.tailBuf
	k := len(pts)
	if cap(ps.predTs) < k {
		ps.predTs = make([]float64, k)
		ps.predXs = make([][]float64, k)
	}
	ts, xs := ps.predTs[:k], ps.predXs[:k]
	for i, p := range pts {
		ts[i] = p.T
		xs[i] = p.X
	}
	num.PredictVectorAt(ts, xs, t, dst)
}

// takePoint pops a recycled point (or allocates one) with X/Q/Qdot buffers
// of the system size.
func (ps *PointSolver) takePoint() *integrate.Point {
	if k := len(ps.ptPool); k > 0 {
		pt := ps.ptPool[k-1]
		ps.ptPool = ps.ptPool[:k-1]
		return pt
	}
	n := ps.WS.Sys.N
	return &integrate.Point{
		X:    make([]float64, n),
		Q:    make([]float64, n),
		Qdot: make([]float64, n),
	}
}

// PutPoint hands a point's buffers back to the solver pool. The caller must
// be the point's sole owner: nothing published to a shared history, waveform
// or another worker may be recycled. Nil and foreign-sized points are
// ignored.
func (ps *PointSolver) PutPoint(pt *integrate.Point) {
	if pt == nil || len(pt.X) != ps.WS.Sys.N || len(pt.Q) != ps.WS.Sys.N || len(pt.Qdot) != ps.WS.Sys.N {
		return
	}
	ps.ptPool = append(ps.ptPool, pt)
}

// PredictPoint extrapolates a full (X, Q, Qdot) point from history — the
// speculative stand-in for a predecessor that has not converged yet. The
// returned point comes from a fixed four-slot rotation: it stays valid for
// the duration of the pipeline stage that requested it and is reused two
// PredictPoint calls later.
func (ps *PointSolver) PredictPoint(hist *integrate.History, t float64) *integrate.Point {
	pt := ps.predRing[ps.predNext]
	ps.predNext = (ps.predNext + 1) % len(ps.predRing)
	n := ps.WS.Sys.N
	if pt == nil || len(pt.X) != n {
		pt = &integrate.Point{
			X:    make([]float64, n),
			Q:    make([]float64, n),
			Qdot: make([]float64, n),
		}
		ps.predRing[(ps.predNext+len(ps.predRing)-1)%len(ps.predRing)] = pt
	}
	pt.T = t
	ps.tailBuf = hist.AppendTail(ps.tailBuf[:0], 3)
	pts := ps.tailBuf
	k := len(pts)
	if cap(ps.predTs) < k {
		ps.predTs = make([]float64, k)
		ps.predXs = make([][]float64, k)
	}
	if cap(ps.predQs) < k {
		ps.predQs = make([][]float64, k)
		ps.predQds = make([][]float64, k)
	}
	ts, xs := ps.predTs[:k], ps.predXs[:k]
	qs, qds := ps.predQs[:k], ps.predQds[:k]
	for i, p := range pts {
		ts[i] = p.T
		xs[i] = p.X
		qs[i] = p.Q
		qds[i] = p.Qdot
	}
	num.PredictVectorAt(ts, xs, t, pt.X)
	num.PredictVectorAt(ts, qs, t, pt.Q)
	num.PredictVectorAt(ts, qds, t, pt.Qdot)
	return pt
}

// HarvestSolverStats copies the workspace's cumulative sparse-solver
// counters into Stats. Engines call it once per solver before merging stats.
func (ps *PointSolver) HarvestSolverStats() {
	ps.Stats.BypassedFactorizations = ps.WS.Solver.BypassedFactorizations
	ps.Stats.ReusedFactorizations = ps.WS.Solver.ReusedFactorizations
	ps.Stats.Refactorizations = ps.WS.Solver.Refactorizations
	ps.Stats.FullFactorizations = ps.WS.Solver.FullFactorizations
	ps.Stats.BypassedEvals, ps.Stats.LinearStampHits = ps.WS.DeviceBypassCounters()
}

// SolveAt computes the converged solution at tNew using hist for the
// integration formula. guess, when non-nil, seeds Newton (otherwise a
// polynomial prediction from hist is used). It returns the new point and
// the coefficients that produced it.
func (ps *PointSolver) SolveAt(hist *integrate.History, tNew float64, guess []float64) (*integrate.Point, integrate.Coeffs, error) {
	return ps.solveAtWith(hist, tNew, guess, ps.Newton, 0)
}

// solveAtWith is SolveAt with explicit Newton options and an optional
// node-to-ground conductance (the recovery ladder's knobs).
func (ps *PointSolver) solveAtWith(hist *integrate.History, tNew float64, guess []float64, nopts newton.Options, nodeGmin float64) (*integrate.Point, integrate.Coeffs, error) {
	start := ps.traceStart()
	co, err := integrate.Compute(ps.Method, hist, tNew, ps.qhist)
	if err != nil {
		return nil, co, err
	}
	pt := ps.takePoint()
	x := pt.X
	if guess != nil {
		copy(x, guess)
	} else {
		ps.predict(hist, tNew, x)
	}
	p := circuit.LoadParams{Time: tNew, Alpha0: co.Alpha0, Gmin: ps.Gmin, SrcScale: 1, NodeGmin: nodeGmin}
	ps.Stats.Solves++
	res, err := newton.Solve(ps.WS, x, p, ps.qhist, nopts, ps.r, ps.dx)
	ps.Stats.NRIters += res.Iters
	ps.LastIters = res.Iters
	ps.emitSolve(start, tNew, co.H0, res.Iters, 0, err)
	if err != nil {
		ps.Stats.NRFailures++
		ps.PutPoint(pt)
		return nil, co, err
	}
	return ps.finishPoint(pt, tNew, co), co, nil
}

// traceStart reads the clock for a span that emitSolve or WarmStart will
// publish; untraced runs skip the read and get the zero time.
func (ps *PointSolver) traceStart() time.Time {
	if !ps.WS.Trace.Active() {
		return time.Time{}
	}
	return time.Now()
}

// emitSolve publishes one KindSolve event covering the whole point solve
// (integration coefficients, prediction, Newton loop). No-op when untraced.
func (ps *PointSolver) emitSolve(start time.Time, tNew, h float64, iters int, flags uint8, err error) {
	tr := ps.WS.Trace
	if !tr.Active() {
		return
	}
	ev := trace.Event{
		Kind: trace.KindSolve, T: tNew, H: h, Iters: int32(iters),
		Worker: ps.WS.Worker, Flags: flags, Dur: time.Since(start).Nanoseconds(),
	}
	if err != nil {
		ev.Flags |= trace.FlagFailed
	}
	tr.Emit(ev)
}

// loadCounted pairs a device load performed outside the Newton loop with the
// same PhaseDeviceLoad event internal/newton emits for its loads, so trace
// replay stays reconcilable 1:1 with the workspace's bypass counters (the
// initial-point and warm-start loads can hit the linear template, and the
// former can even replay journals when the operating point just converged at
// the same iterate).
func (ps *PointSolver) loadCounted(x []float64, p circuit.LoadParams) {
	tr := ps.WS.Trace
	if !tr.Active() {
		ps.WS.Load(x, p)
		return
	}
	t0 := time.Now()
	ps.WS.Load(x, p)
	ev := trace.Event{
		Kind: trace.KindPhase, Phase: trace.PhaseDeviceLoad,
		Dur: time.Since(t0).Nanoseconds(), T: p.Time, Worker: ps.WS.Worker,
		Iters: int32(ps.WS.LastLoadBypassed()),
	}
	if ps.WS.LastLoadLinearHit() {
		ev.Flags |= trace.FlagLinearHit
	}
	tr.Emit(ev)
}

// WarmStart runs up to maxIter Newton iterations at tNew against the given
// (possibly speculative) history and returns the resulting approximation
// regardless of convergence. Forward pipelining uses it to pre-iterate on a
// predicted history while the true predecessor point is still being solved.
func (ps *PointSolver) WarmStart(hist *integrate.History, tNew float64, maxIter int) []float64 {
	start := ps.traceStart()
	ps.warmValid = false
	co, err := integrate.Compute(ps.Method, hist, tNew, ps.qhist)
	if err != nil {
		return nil
	}
	if ps.warmBuf == nil {
		ps.warmBuf = make([]float64, ps.WS.Sys.N)
	}
	x := ps.warmBuf
	ps.predict(hist, tNew, x)
	opts := ps.Newton
	opts.MaxIter = maxIter
	p := circuit.LoadParams{Time: tNew, Alpha0: co.Alpha0, Gmin: ps.Gmin, SrcScale: 1}
	res, _ := newton.Solve(ps.WS, x, p, ps.qhist, opts, ps.r, ps.dx) // non-convergence is fine
	ps.Stats.NRIters += res.Iters
	if tr := ps.WS.Trace; tr.Active() {
		tr.Emit(trace.Event{
			Kind: trace.KindPredict, T: tNew, H: co.H0, Iters: int32(res.Iters),
			Worker: ps.WS.Worker, Dur: time.Since(start).Nanoseconds(),
		})
	}
	// Leave the workspace assembled and factorized exactly at x so ResumeAt
	// can pick the speculative work up with only a residual rebuild. The
	// device assembly is history-independent; only qhist will change. The
	// factorization must be a real one — ResumeSolve's first step assumes an
	// exact LU at x — so neither the factorization bypass nor replayed
	// device stamps are allowed here.
	ps.WS.DisableBypassOnce()
	ps.loadCounted(x, p)
	if err := ps.WS.Solver.FactorizeFresh(); err != nil {
		return x
	}
	ps.warmTime = tNew
	ps.warmAlpha0 = co.Alpha0
	ps.warmValid = true
	return x
}

// ResumeAt finishes a speculatively warm-started point against the true
// history: if the stored assembly matches (same time point, same Alpha0 —
// i.e. the predicted history had the same spacings), the first correction
// costs one residual rebuild and triangular solve; otherwise it falls back
// to a plain SolveAt.
func (ps *PointSolver) ResumeAt(hist *integrate.History, tNew float64, warm []float64) (*integrate.Point, integrate.Coeffs, error) {
	co, err := integrate.Compute(ps.Method, hist, tNew, ps.qhist)
	if err != nil {
		return nil, co, err
	}
	match := ps.warmValid && warm != nil && ps.warmTime == tNew &&
		math.Abs(ps.warmAlpha0-co.Alpha0) <= 1e-9*math.Abs(co.Alpha0)
	ps.warmValid = false
	if !match {
		return ps.SolveAt(hist, tNew, warm)
	}
	start := ps.traceStart()
	pt := ps.takePoint()
	x := pt.X
	copy(x, warm)
	p := circuit.LoadParams{Time: tNew, Alpha0: co.Alpha0, Gmin: ps.Gmin, SrcScale: 1}
	ps.Stats.Solves++
	res, err := newton.ResumeSolve(ps.WS, x, p, ps.qhist, ps.Newton, ps.r, ps.dx)
	ps.Stats.NRIters += res.Iters
	ps.LastIters = res.Iters
	ps.emitSolve(start, tNew, co.H0, res.Iters, trace.FlagResumed, err)
	if err != nil {
		ps.Stats.NRFailures++
		ps.PutPoint(pt)
		return nil, co, err
	}
	return ps.finishPoint(pt, tNew, co), co, nil
}

// finishPoint assembles once more at the converged solution pt.X so the
// stored charge vector is exactly Q(x), then derives Qdot from the
// discretization. pt comes from takePoint and is filled in place.
func (ps *PointSolver) finishPoint(pt *integrate.Point, tNew float64, co integrate.Coeffs) *integrate.Point {
	p := circuit.LoadParams{Time: tNew, Alpha0: co.Alpha0, Gmin: ps.Gmin, SrcScale: 1, NoLimit: true}
	ps.loadCounted(pt.X, p)
	pt.T = tNew
	copy(pt.Q, ps.WS.Q)
	for i := range pt.Qdot {
		pt.Qdot[i] = co.Alpha0*pt.Q[i] + ps.qhist[i]
	}
	return pt
}

// InitialPoint computes the t = 0 point: a DC operating point (or the UIC
// initial conditions) with its charge vector.
func InitialPoint(sys *circuit.System, ps *PointSolver, opts Options) (*integrate.Point, error) {
	n := sys.N
	x := make([]float64, n)
	if opts.UIC {
		for idx, v := range opts.IC {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("transient: IC index %d out of range", idx)
			}
			x[idx] = v
		}
	} else {
		op := opts.DCOp
		if len(opts.NodeSet) > 0 && op.NodeSet == nil {
			op.NodeSet = opts.NodeSet
		}
		st, err := dcop.Solve(ps.WS, x, op)
		ps.Stats.OpIters += st.NRIters
		if err != nil {
			return nil, fmt.Errorf("transient: operating point: %w", err)
		}
		// .IC overrides on top of the operating point (SPICE applies them
		// as node constraints; overriding is the common simplification).
		for idx, v := range opts.IC {
			if idx >= 0 && idx < n {
				x[idx] = v
			}
		}
	}
	ps.loadCounted(x, circuit.LoadParams{Time: 0, Alpha0: 0, Gmin: opts.Gmin, SrcScale: 1})
	return &integrate.Point{
		T:    0,
		X:    x,
		Q:    num.Copy(ps.WS.Q),
		Qdot: make([]float64, n),
	}, nil
}

// CollectBreakpoints gathers the waveform breakpoints of every device, plus
// tstop itself, sorted and deduplicated.
func CollectBreakpoints(sys *circuit.System, tstop float64) []float64 {
	return collectBreakpoints(sys.Circuit.Devices(), tstop)
}

func collectBreakpoints(devs []circuit.Device, tstop float64) []float64 {
	var bps []float64
	for _, d := range devs {
		if b, ok := d.(Breakpointer); ok {
			bps = append(bps, b.Breakpoints(tstop)...)
		}
	}
	bps = append(bps, tstop)
	sort.Float64s(bps)
	out := bps[:0]
	prev := math.Inf(-1)
	for _, t := range bps {
		if t > prev+1e-15*tstop && t > 0 {
			out = append(out, t)
			prev = t
		}
	}
	return out
}

// HorizonIsEdge reports whether a device waveform breakpoint coincides with
// tstop itself. A run ending on a plain horizon keeps its integrator
// history at full order in the final checkpoint, so a continuation resumed
// from it (durable restore, time-parallel window chains) picks up
// seamlessly; a run ending exactly on a waveform edge must capture a
// restart state instead, because post-edge dynamics bear no relation to the
// pre-edge derivative history.
func HorizonIsEdge(sys *circuit.System, tstop float64) bool {
	// Waveforms enumerate breakpoints strictly below the stop they are
	// given, so an edge exactly at tstop only shows up when asked for a
	// slightly longer horizon.
	eps := tstop * 1e-9
	for _, d := range sys.Circuit.Devices() {
		b, ok := d.(Breakpointer)
		if !ok {
			continue
		}
		for _, bp := range b.Breakpoints(tstop + 2*eps) {
			if math.Abs(bp-tstop) <= eps {
				return true
			}
		}
	}
	return false
}

// DefaultRecord returns the record list for nil Options.Record: every node
// voltage.
func DefaultRecord(sys *circuit.System) ([]string, []int) {
	names := make([]string, sys.NumNodes)
	idx := make([]int, sys.NumNodes)
	for i := 0; i < sys.NumNodes; i++ {
		names[i] = sys.Circuit.NodeName(i)
		idx[i] = i
	}
	return names, idx
}

// RecordSet builds the waveform set for the given options.
func RecordSet(sys *circuit.System, opts Options) *waveform.Set {
	if opts.Record == nil {
		names, idx := DefaultRecord(sys)
		return waveform.NewSet(names, idx)
	}
	names := make([]string, len(opts.Record))
	for i, idx := range opts.Record {
		if idx < sys.NumNodes {
			names[i] = sys.Circuit.NodeName(idx)
		} else {
			names[i] = fmt.Sprintf("branch%d", idx-sys.NumNodes)
		}
	}
	return waveform.NewSet(names, opts.Record)
}

// RestartStep sizes the first step after a waveform breakpoint: a small
// fraction of the gap to the next breakpoint, no larger than the last
// accepted step (the pre-edge dynamics bound what the circuit can follow),
// and never below the configured initial step.
func RestartStep(gap, lastStep, hInit float64, ctrl integrate.Control) float64 {
	h := gap / 4
	if lastStep > 0 && h > lastStep {
		h = lastStep
	}
	if h < hInit {
		h = hInit
	}
	return num.Clamp(h, ctrl.HMin, ctrl.HMax)
}

// IntraProfitable reports whether a system is large enough for the
// intra-point gang (pooled colored loads + level-scheduled LU kernels) to
// pay for its barrier overhead. Small circuits stay serial no matter what
// core budget the caller offers: the per-level synchronization costs more
// than the arithmetic it spreads.
func IntraProfitable(sys *circuit.System) bool {
	return sys.N >= 96 && len(sys.Circuit.Devices()) >= 128
}

// intraPool returns the gang the serial engine's point solver runs on, or
// nil for a serial solver. LoadWorkers asks for a gang explicitly and skips
// the IntraProfitable gate; otherwise a CoreBudget > 1 gives its whole
// budget to the gang of a large enough system. A CoreBudget caps either
// width.
func intraPool(sys *circuit.System, opts Options) *sched.Pool {
	gang := 1
	switch {
	case opts.LoadWorkers > 1:
		gang = opts.LoadWorkers
	case opts.CoreBudget > 1 && IntraProfitable(sys):
		gang = opts.CoreBudget
	}
	if gang <= 1 {
		return nil
	}
	if opts.CoreBudget <= 0 {
		return sched.NewPool(gang)
	}
	budget := sched.NewBudget(opts.CoreBudget)
	budget.Reserve(1) // this goroutine is the gang leader
	return budget.NewPool(gang)
}

// Run executes the serial adaptive transient analysis.
func Run(sys *circuit.System, opts Options) (result *Result, runErr error) {
	if opts.TStop <= 0 {
		return nil, fmt.Errorf("transient: TStop must be positive")
	}
	opts = opts.WithDefaults()
	ctrl := opts.Control
	tr := opts.Trace
	guard := opts.Guard
	ps := NewPointSolver(sys, opts.Method, opts.Newton, opts.Gmin)
	ps.WS.Faults = opts.Faults
	ps.WS.Abort = guard.AbortFlag()
	ps.WS.Solver.BypassTol = opts.BypassTol
	ps.WS.SetDeviceBypass(opts.DeviceBypassTol, 0)
	ps.SetTrace(tr, 0)
	if opts.CoreBudget > 0 {
		ps.Stats.CoreBudget = opts.CoreBudget
		ps.Stats.PipelineWorkers = 1
		ps.Stats.IntraWorkers = 1
	}
	if pool := intraPool(sys, opts); pool != nil {
		defer pool.Close()
		ps.WS.SetPool(pool)
		ps.Stats.IntraWorkers = pool.Workers()
	}
	rl := &RecoveryLog{}
	var base Stats // totals of run segments before a resume
	partial := func(w *waveform.Set, hist *integrate.History) *Result {
		ps.HarvestSolverStats()
		st := ps.Stats
		st.Add(base)
		res := &Result{W: w, Stats: st, Recovery: rl}
		if last := hist.Last(); last != nil {
			res.FinalX = num.Copy(last.X)
		}
		return res
	}

	var hist *integrate.History
	var w *waveform.Set
	h := math.Min(opts.HInit, ctrl.HMax)
	t := 0.0
	hUsed := 0.0
	afterBreak := true // the t=0 point counts as a breakpoint start

	capture := func() *checkpoint.State {
		ps.HarvestSolverStats()
		total := ps.Stats
		total.Add(base)
		// The serial engine assigns Stages = Solves only at run end; keep
		// checkpointed totals consistent with that convention.
		if total.Stages < total.Solves {
			total.Stages = total.Solves
		}
		return CaptureState(sys, ps, &opts, w, rl, hist, total, t, h, hUsed, afterBreak, 0, 0)
	}
	// Final checkpoint on every exit path that accepted at least one point —
	// success, typed abort, cancellation, even a panic unwinding through the
	// facade's containment. A failed final save on an otherwise-successful
	// run is an error: the caller asked for durability and did not get it.
	defer func() {
		if !guard.Active() || hist == nil || hist.Len() == 0 {
			return
		}
		saveErr := guard.SaveFinal(capture())
		if runErr == nil && saveErr != nil {
			runErr = &faults.SimError{Phase: "checkpoint", Time: t, Node: -1, Cause: saveErr}
		}
	}()

	if opts.Resume != nil {
		rs, err := RestoreState(opts.Resume, sys, ps, &opts)
		if err != nil {
			return nil, err
		}
		hist, w, rl, base = rs.Hist, rs.W, rs.RL, rs.Base
		t, h, hUsed, afterBreak = rs.T, rs.H, rs.HUsed, rs.AfterBreak
	} else {
		p0, err := InitialPoint(sys, ps, opts)
		if err != nil {
			return nil, err
		}
		hist = &integrate.History{}
		hist.Add(p0)
		w = RecordSet(sys, opts)
		w.Append(p0.T, p0.X)
		if opts.OnAccept != nil {
			opts.OnAccept(p0.T, w.Data[len(w.Data)-1])
		}
	}

	bps := CollectBreakpoints(sys, opts.TStop)
	nextBp := 0
	horizonEdge := HorizonIsEdge(sys, opts.TStop)
	var lteTail []*integrate.Point
	ckptDue := false

	for t < opts.TStop*(1-1e-12) {
		if ckptDue {
			ckptDue = false
			// Periodic snapshot; a failed write is latched in the controller
			// but never kills a healthy run.
			_ = guard.Save(capture())
		}
		if aerr := guard.Err(); aerr != nil {
			return partial(w, hist), &faults.SimError{Phase: "transient", Time: t, Node: -1, Cause: aerr}
		}
		if opts.canceled() {
			if tr.Active() {
				tr.Emit(trace.Event{Kind: trace.KindCancel, T: t, Worker: -1})
			}
			return partial(w, hist), CancelError("transient", t)
		}
		if ps.Stats.Points >= opts.MaxPoints {
			return partial(w, hist), fmt.Errorf("transient: exceeded %d points at t=%g", opts.MaxPoints, t)
		}
		// Advance past consumed breakpoints.
		for nextBp < len(bps) && bps[nextBp] <= t*(1+1e-12) {
			nextBp++
		}
		tLimit := opts.TStop
		if nextBp < len(bps) {
			tLimit = bps[nextBp]
		}
		hitBp := false
		tNew := t + h
		// Clamp onto the breakpoint when the step lands within 1% of it —
		// step-relative, so a shrinking step can always move the candidate
		// off the breakpoint (a limit-relative smudge can exceed tiny steps
		// and trap the rejection loop).
		if tNew >= tLimit-0.01*h {
			tNew = tLimit
			hitBp = true
		}

		pt, co, err := ps.SolveAt(hist, tNew, nil)
		if err != nil {
			// A tripped deadline/watchdog surfaces as a solve error (the
			// Newton loop polls the abort flag); report the abort, not a
			// convergence failure.
			if aerr := guard.Err(); aerr != nil {
				return partial(w, hist), &faults.SimError{Phase: "transient", Time: t, Node: -1, Cause: aerr}
			}
			// Step shrinking is the cheap first response; once the floor is
			// reached the convergence-recovery ladder takes over at the
			// smallest representable step.
			// A failed solve leaves journals recorded at diverging iterates:
			// retire them so the retry starts from full evaluations.
			ps.WS.InvalidateDeviceBypass()
			if h/8 >= ctrl.HMin {
				h /= 8
				continue
			}
			h = ctrl.HMin
			tNew = t + h
			hitBp = tNew >= tLimit-0.01*h
			if hitBp {
				tNew = tLimit
			}
			pt, co, err = ps.RecoverAt(hist, tNew, rl)
			if err != nil {
				if aerr := guard.Err(); aerr != nil {
					return partial(w, hist), &faults.SimError{Phase: "transient", Time: t, Node: -1, Cause: aerr}
				}
				return partial(w, hist), &faults.SimError{
					Phase: "transient", Time: t, Node: -1,
					Cause: fmt.Errorf("%w at t=%g: %w", faults.ErrStepTooSmall, t, err),
				}
			}
		}

		// LTE acceptance (the norm is also what sizes the next step). With
		// too little history (right after breakpoints) the norm is 0 and
		// the point is accepted, as in SPICE.
		norm := 0.0
		if !opts.NoLTE {
			lteTail = append(hist.AppendTail(lteTail[:0], co.Order+1), pt)
			if tr.Active() {
				t0 := time.Now()
				norm = ctrl.CheckLTE(ps.Method, co.Order, lteTail, co.H0, co.H1)
				tr.Emit(trace.Event{
					Kind: trace.KindPhase, Phase: trace.PhaseLTE, T: pt.T, Norm: norm,
					Worker: ps.WS.Worker, Dur: time.Since(t0).Nanoseconds(),
				})
			} else {
				norm = ctrl.CheckLTE(ps.Method, co.Order, lteTail, co.H0, co.H1)
			}
			if norm > 1 && co.H0 > ctrl.HMin*1.01 && !afterBreak {
				ps.Stats.LTERejects++
				if tr.Active() {
					tr.Emit(trace.Event{Kind: trace.KindLTEReject, T: tNew, H: co.H0, Norm: norm, Worker: ps.WS.Worker})
				}
				h = ctrl.ShrinkOnReject(co.H0, norm, co.Order)
				// The rejected candidate's journals describe a discarded
				// trajectory; the retried point must re-evaluate everything.
				ps.WS.InvalidateDeviceBypass()
				ps.PutPoint(pt)
				continue
			}
		}

		// The serial engine is the history's sole owner, so a point falling
		// out of the bounded window can be recycled into the next solve.
		ps.PutPoint(hist.Add(pt))
		w.Append(pt.T, pt.X)
		if opts.OnAccept != nil {
			opts.OnAccept(pt.T, w.Data[len(w.Data)-1])
		}
		ps.Stats.Points++
		t = pt.T
		hUsed = co.H0
		if guard.NoteAccept() {
			ckptDue = true // snapshot at the top of the next iteration
		}
		// Emitted only after t/hist/waveform agree: a panic unwinding out of
		// this callback flushes a checkpoint, which must see a committed step.
		if tr.Active() {
			tr.Emit(trace.Event{Kind: trace.KindAccept, T: pt.T, H: co.H0, Norm: norm, Worker: ps.WS.Worker})
		}

		if hitBp && (t < opts.TStop*(1-1e-12) || horizonEdge) {
			// Restart integration after the discontinuity: derivative
			// history is invalid, so truncate it and re-enter with a step
			// sized from the upcoming breakpoint gap (clamped by the last
			// step), as SPICE does. LTE control resumes as soon as enough
			// history accumulates. A final landing on the *plain* horizon
			// (no waveform edge at TStop) skips the restart: the run is
			// over, and keeping the history at full order lets a resumed
			// continuation pick up without a restart transient.
			for _, dp := range hist.Truncate() {
				ps.PutPoint(dp)
			}
			// Discontinuity: the next point's dynamics bear no relation to
			// the journals captured before the edge.
			ps.WS.InvalidateDeviceBypass()
			gap := opts.TStop - t
			for _, bp := range bps[nextBp:] {
				if bp > t*(1+1e-12) {
					gap = bp - t
					break
				}
			}
			h = RestartStep(gap, hUsed, opts.HInit, ctrl)
			afterBreak = true
			continue
		}
		afterBreak = false

		// Choose the next step from the accepted point's LTE norm.
		if opts.NoLTE {
			h = ctrl.ClampStep(hUsed, hUsed)
			continue
		}
		h = ctrl.ClampStep(ctrl.NextStep(ps.Method, co.Order, norm, hUsed, co.H1, hUsed), hUsed)
	}

	last := hist.Last()
	ps.Stats.Stages = ps.Stats.Solves // serial: every solve is sequential
	ps.HarvestSolverStats()
	final := ps.Stats
	final.Add(base)
	return &Result{W: w, Stats: final, FinalX: num.Copy(last.X), Recovery: rl}, nil
}
