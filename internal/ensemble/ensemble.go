// Package ensemble runs K parameter-variants of one circuit topology in
// lockstep over a struct-of-arrays workspace — the batch engine behind
// Monte Carlo, PVT-corner and parameter-sweep workloads.
//
// All lanes share the host System's symbolic work, computed exactly once:
// the compiled Jacobian pattern, the fill-reducing column ordering (every
// lane solver factorizes through FactorizeWithPerm on the shared
// permutation), the Build-time conflict-graph coloring, and the per-pattern
// LU level schedules. Per lane, only values differ: lane matrices stride
// one contiguous value block, the F/Q/B and limiting-state vectors stride a
// second, the Newton scratch (history vector, residual, update) a third,
// and each lane's history/candidate points are carved from a shared arena —
// so device evaluation iterates the models once per batched iteration and
// stamps the lanes' adjacent blocks (circuit.BatchLoad).
//
// Step control stays fully independent per lane: each lane mirrors the
// serial transient engine's plan/solve/LTE/accept loop exactly, so a lane's
// waveform is bit-identical to its own independent serial run (all bypass
// paths are structurally disabled in lanes). Lanes share one sched core
// Budget: each round, the active lanes are dealt across the gang's workers,
// and within a worker's chunk the live Newton iterations advance in
// lockstep with batched assembly. A lane retires — finishes, faults, or
// exhausts the recovery ladder at the step floor — without stalling the
// gang: it is simply dropped from the next round's deal.
package ensemble

import (
	"fmt"
	"math"
	"runtime"

	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/num"
	"wavepipe/internal/sched"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// Lane describes one ensemble member: a circuit structurally identical to
// the host System's (same nodes, same device sequence and arity — only
// parameter values may differ).
type Lane struct {
	Name string
	Circ *circuit.Circuit
	// Faults, when non-nil, is a per-lane fault-injection harness (tests
	// only). Faulting one lane exercises the retirement path while the
	// remaining lanes run to completion.
	Faults *faults.Injector
}

// Options configures an ensemble run.
type Options struct {
	// Base is the per-lane analysis configuration, shared by every lane.
	// Durability (Guard/Resume), factorization bypass, device bypass and
	// parallel loads are not supported inside lanes and must be unset.
	Base transient.Options
	// Workers is the lane-gang width, caller included (the shared core
	// budget). 0 selects min(K, max(2, NumCPU)).
	Workers int
	// ForceGang spawns real gang goroutines even on a single-CPU host
	// (race tests); production runs leave it false and let the pool decide.
	ForceGang bool
	// Trace receives the run's event stream: per-lane solve/accept/reject
	// events (Worker = lane index) and one KindLaneRetire per lane.
	Trace *trace.Tracer
}

// LaneResult is one lane's outcome. Res is non-nil even on failure (the
// partial waveform up to the retirement point); Err is nil for a lane that
// reached TStop.
type LaneResult struct {
	Name string
	Res  *transient.Result
	Err  error
}

// Result is the outcome of an ensemble run.
type Result struct {
	Lanes []LaneResult
	// Stats aggregates all lanes' work counters; CoreBudget and
	// PipelineWorkers hold the gang width.
	Stats transient.Stats
	// Rounds is the number of gang rounds (every active lane attempts one
	// candidate point per round).
	Rounds int
}

// laneState is the per-lane mirror of the serial engine's loop variables.
type laneState struct {
	idx  int
	name string
	devs []circuit.Device
	ps   *transient.PointSolver
	hist *integrate.History
	w    *waveform.Set
	rl   *transient.RecoveryLog

	bps    []float64
	nextBp int

	t, h, hUsed float64
	afterBreak  bool
	lteTail     []*integrate.Point

	// Current-round candidate.
	tNew, tLimit float64
	hitBp        bool
	cand         *transient.Candidate
	candErr      error
	iters        int
	pt           *integrate.Point
	co           integrate.Coeffs

	// planned marks a lane that has a candidate time for this round.
	planned bool

	// Retirement.
	done bool
	err  error
	res  *transient.Result
}

type engine struct {
	sys   *circuit.System
	base  transient.Options
	ctrl  integrate.Control
	tr    *trace.Tracer
	lanes []*laneState
	pool  *sched.Pool
	width int

	// Per-worker chunk scratch (BatchLoad argument slices), reused across
	// rounds so the steady state allocates nothing.
	chWS [][]*circuit.Workspace
	chXS [][][]float64
	chPS [][]circuit.LoadParams

	chunks [][]*laneState // per-worker chunk scratch

	roundCount int
}

func validate(base *transient.Options) error {
	switch {
	case base.TStop <= 0:
		return fmt.Errorf("ensemble: TStop must be positive")
	case base.Guard != nil || base.Resume != nil:
		return fmt.Errorf("ensemble: durable runs (Guard/Resume) are not supported inside lanes")
	case base.BypassTol != 0:
		return fmt.Errorf("ensemble: factorization bypass is not supported inside lanes")
	case base.DeviceBypassTol != 0:
		return fmt.Errorf("ensemble: device bypass is not supported inside lanes")
	case base.LoadWorkers > 1:
		return fmt.Errorf("ensemble: parallel device loads are not supported inside lanes")
	case base.Trace != nil:
		return fmt.Errorf("ensemble: set the tracer on ensemble.Options, not on the lane options")
	}
	return nil
}

// Run executes the ensemble. The host System must come from a Build of a
// circuit structurally identical to every lane's. The returned Result is
// non-nil whenever the setup succeeded, even if lanes failed; the error is
// non-nil only for setup failures or run-wide cancellation.
func Run(sys *circuit.System, lanes []Lane, opts Options) (*Result, error) {
	k := len(lanes)
	if k == 0 {
		return nil, fmt.Errorf("ensemble: no lanes")
	}
	if err := validate(&opts.Base); err != nil {
		return nil, err
	}
	base := opts.Base.WithDefaults()

	for i := range lanes {
		if lanes[i].Circ == nil {
			return nil, fmt.Errorf("ensemble: lane %d has no circuit", i)
		}
		if err := sys.BindLanes(lanes[i].Circ); err != nil {
			return nil, fmt.Errorf("ensemble: lane %d: %w", i, err)
		}
	}

	width := opts.Workers
	if width <= 0 {
		width = runtime.NumCPU()
		if width < 2 {
			width = 2
		}
	}
	if width > k {
		width = k
	}
	budget := sched.NewBudget(width)
	budget.Reserve(1) // the caller is the gang leader
	pool := budget.NewPool(width)
	defer pool.Close()
	if opts.ForceGang && pool != nil {
		pool.Force = true
	}

	e := &engine{
		sys: sys, base: base, ctrl: base.Control, tr: opts.Trace,
		pool: pool, width: pool.Workers(),
	}
	e.chWS = make([][]*circuit.Workspace, e.width)
	e.chXS = make([][][]float64, e.width)
	e.chPS = make([][]circuit.LoadParams, e.width)
	e.chunks = make([][]*laneState, e.width)
	perChunk := (k + e.width - 1) / e.width
	for w := 0; w < e.width; w++ {
		e.chunks[w] = make([]*laneState, 0, perChunk)
		e.chWS[w] = make([]*circuit.Workspace, 0, perChunk)
		e.chXS[w] = make([][]float64, 0, perChunk)
		e.chPS[w] = make([]circuit.LoadParams, 0, perChunk)
	}

	// Struct-of-arrays lane state: matrices, vectors, Newton scratch and
	// point arenas all stride shared backing blocks.
	n := sys.N
	wss := sys.NewLaneWorkspaces(k)
	scratch := make([]float64, k*3*n)
	perLanePts := integrate.HistoryDepth + 8
	arena := make([]float64, k*perLanePts*3*n)
	e.lanes = make([]*laneState, k)
	for i := range lanes {
		ws := wss[i]
		devs := lanes[i].Circ.Devices()
		ws.SetDevices(devs)
		ws.Faults = lanes[i].Faults
		ps := transient.NewPointSolverOn(ws, base.Method, base.Newton, base.Gmin,
			scratch[i*3*n:(i+1)*3*n])
		ps.DonatePoints(integrate.CarvePoints(
			arena[i*perLanePts*3*n:(i+1)*perLanePts*3*n], perLanePts, n))
		name := lanes[i].Name
		if name == "" {
			name = fmt.Sprintf("lane%d", i)
		}
		e.lanes[i] = &laneState{
			idx: i, name: name, devs: devs, ps: ps,
			rl:         &transient.RecoveryLog{},
			h:          math.Min(base.HInit, e.ctrl.HMax),
			afterBreak: true, // the t = 0 point counts as a breakpoint start
			bps:        transient.CollectBreakpointsFor(devs, base.TStop),
		}
	}

	e.runDC()
	err := e.loop()

	lr := make([]LaneResult, k)
	agg := transient.Stats{}
	for i, st := range e.lanes {
		lr[i] = LaneResult{Name: st.name, Res: st.res, Err: st.err}
		if st.res != nil {
			agg.Add(st.res.Stats)
		}
	}
	agg.CoreBudget = e.width
	agg.PipelineWorkers = e.width
	agg.IntraWorkers = 1
	res := &Result{Lanes: lr, Stats: agg, Rounds: e.roundCount}
	return res, err
}

// runDC computes every lane's t = 0 point, dealt across the gang like a
// solve round.
func (e *engine) runDC() {
	e.dispatch(func(st *laneState) {
		p0, err := transient.InitialPoint(e.sys, st.ps, e.base)
		if err != nil {
			st.candErr = err
			return
		}
		st.hist = &integrate.History{}
		st.hist.Add(p0)
		st.w = transient.RecordSet(e.sys, e.base)
		st.w.Append(p0.T, p0.X)
	})
	for _, st := range e.lanes {
		if st.candErr != nil {
			err := st.candErr
			st.candErr = nil
			e.retire(st, err)
		}
	}
}

// dispatch deals every non-retired lane across the gang and runs fn per
// lane on the owning worker.
func (e *engine) dispatch(fn func(*laneState)) {
	e.pool.Run(func(w int) {
		for i := w; i < len(e.lanes); i += e.width {
			if st := e.lanes[i]; !st.done {
				fn(st)
			}
		}
	})
}

// canceled reports whether the run-wide context has been canceled.
func (e *engine) canceled() bool {
	if e.base.Ctx == nil {
		return false
	}
	select {
	case <-e.base.Ctx.Done():
		return true
	default:
		return false
	}
}

// loop is the round engine: plan (serial) → lockstep chunk solves (gang) →
// acceptance bookkeeping and retirement (serial), until every lane retired.
func (e *engine) loop() error {
	for {
		active := 0
		for _, st := range e.lanes {
			if !st.done {
				active++
			}
		}
		if active == 0 {
			return nil
		}
		if e.canceled() {
			if e.tr.Active() {
				e.tr.Emit(trace.Event{Kind: trace.KindCancel, Worker: -1})
			}
			var firstT float64
			first := true
			for _, st := range e.lanes {
				if st.done {
					continue
				}
				if first {
					firstT, first = st.t, false
				}
				e.retire(st, transient.CancelError("transient", st.t))
			}
			return transient.CancelError("ensemble", firstT)
		}
		e.roundCount++
		for _, st := range e.lanes {
			if !st.done {
				e.plan(st)
			}
		}
		e.dispatchChunks() // each worker's lanes advance in one lockstep chunk
		for _, st := range e.lanes {
			if !st.done && st.planned {
				e.finishRound(st)
			}
		}
	}
}

// plan mirrors the serial engine's loop head: MaxPoints guard, breakpoint
// advance, candidate time with breakpoint clamping.
func (e *engine) plan(st *laneState) {
	st.planned = false
	if st.ps.Stats.Points >= e.base.MaxPoints {
		e.retire(st, fmt.Errorf("transient: exceeded %d points at t=%g", e.base.MaxPoints, st.t))
		return
	}
	for st.nextBp < len(st.bps) && st.bps[st.nextBp] <= st.t*(1+1e-12) {
		st.nextBp++
	}
	st.tLimit = e.base.TStop
	if st.nextBp < len(st.bps) {
		st.tLimit = st.bps[st.nextBp]
	}
	st.hitBp = false
	st.tNew = st.t + st.h
	if st.tNew >= st.tLimit-0.01*st.h {
		st.tNew = st.tLimit
		st.hitBp = true
	}
	st.planned = true
}

// finishRound mirrors the serial engine's post-solve logic for one lane:
// failure → step shrink (next round) or recovery ladder at the floor; then
// LTE acceptance, history/waveform commit, breakpoint restart, next step.
func (e *engine) finishRound(st *laneState) {
	ps := st.ps
	ctrl := e.ctrl
	if st.candErr != nil {
		e.emitSolve(st, st.candErr)
		ps.WS.InvalidateDeviceBypass()
		if st.h/8 >= ctrl.HMin {
			st.h /= 8
			return // re-plan next round with the smaller step
		}
		// Step floor: climb the recovery ladder serially — this is the
		// cold path.
		st.h = ctrl.HMin
		tNew := st.t + st.h
		hitBp := tNew >= st.tLimit-0.01*st.h
		if hitBp {
			tNew = st.tLimit
		}
		pt, co, err := ps.RecoverAt(st.hist, tNew, st.rl)
		if err != nil {
			e.retire(st, &faults.SimError{
				Phase: "transient", Time: st.t, Node: -1,
				Cause: fmt.Errorf("%w at t=%g: %w", faults.ErrStepTooSmall, st.t, err),
			})
			return
		}
		if e.tr.Active() {
			e.tr.Emit(trace.Event{Kind: trace.KindRecovery, T: tNew, Worker: int16(st.idx)})
		}
		st.tNew, st.hitBp = tNew, hitBp
		st.pt, st.co = pt, co
		st.candErr = nil
	} else {
		e.emitSolve(st, nil)
	}

	pt, co := st.pt, st.co
	norm := 0.0
	if !e.base.NoLTE {
		st.lteTail = append(st.hist.AppendTail(st.lteTail[:0], co.Order+1), pt)
		norm = ctrl.CheckLTEWith(ps.Method, co.Order, st.lteTail, co.H0, co.H1, &ps.LTE)
		if norm > 1 && co.H0 > ctrl.HMin*1.01 && !st.afterBreak {
			ps.Stats.LTERejects++
			if e.tr.Active() {
				e.tr.Emit(trace.Event{Kind: trace.KindLTEReject, T: st.tNew, H: co.H0, Norm: norm, Worker: int16(st.idx)})
			}
			st.h = ctrl.ShrinkOnReject(co.H0, norm, co.Order)
			ps.WS.InvalidateDeviceBypass()
			ps.PutPoint(pt)
			return
		}
	}

	ps.PutPoint(st.hist.Add(pt))
	st.w.Append(pt.T, pt.X)
	ps.Stats.Points++
	st.t = pt.T
	st.hUsed = co.H0
	if e.tr.Active() {
		e.tr.Emit(trace.Event{Kind: trace.KindAccept, T: pt.T, H: co.H0, Norm: norm, Worker: int16(st.idx)})
	}

	if st.hitBp {
		for _, dp := range st.hist.Truncate() {
			ps.PutPoint(dp)
		}
		ps.WS.InvalidateDeviceBypass()
		gap := e.base.TStop - st.t
		for _, bp := range st.bps[st.nextBp:] {
			if bp > st.t*(1+1e-12) {
				gap = bp - st.t
				break
			}
		}
		st.h = transient.RestartStep(gap, st.hUsed, e.base.HInit, ctrl)
		st.afterBreak = true
	} else {
		st.afterBreak = false
		if e.base.NoLTE {
			st.h = ctrl.ClampStep(st.hUsed, st.hUsed)
		} else {
			st.h = ctrl.ClampStep(ctrl.NextStep(ps.Method, co.Order, norm, st.hUsed, co.H1, st.hUsed), st.hUsed)
		}
	}

	if st.t >= e.base.TStop*(1-1e-12) {
		e.retire(st, nil)
	}
}

// emitSolve publishes the lane's one KindSolve event per candidate attempt
// (lane workspaces carry no tracer, so the engine owns the event stream).
func (e *engine) emitSolve(st *laneState, err error) {
	if !e.tr.Active() {
		return
	}
	ev := trace.Event{
		Kind: trace.KindSolve, T: st.tNew, H: st.co.H0,
		Iters: int32(st.iters), Worker: int16(st.idx),
	}
	if err != nil {
		ev.Flags |= trace.FlagFailed
	}
	e.tr.Emit(ev)
}

// retire detaches a lane from the gang, freezing its Result. err == nil
// means the lane reached TStop.
func (e *engine) retire(st *laneState, err error) {
	st.done = true
	st.err = err
	ps := st.ps
	ps.Stats.Stages = ps.Stats.Solves // per-lane solves are sequential
	ps.HarvestSolverStats()
	res := &transient.Result{W: st.w, Stats: ps.Stats, Recovery: st.rl}
	if st.hist != nil {
		if last := st.hist.Last(); last != nil {
			res.FinalX = num.Copy(last.X)
		}
	}
	st.res = res
	if e.tr.Active() {
		ev := trace.Event{Kind: trace.KindLaneRetire, T: st.t, Worker: int16(st.idx), Detail: "finished"}
		if err != nil {
			ev.Flags |= trace.FlagFailed
			ev.Detail = "failed"
		}
		e.tr.Emit(ev)
	}
}

// dispatchChunks deals the round's planned lanes across the gang (lane i
// goes to worker i mod width) and advances each worker's chunk in lockstep.
func (e *engine) dispatchChunks() {
	e.pool.Run(func(w int) {
		chunk := e.chunks[w][:0]
		for i := w; i < len(e.lanes); i += e.width {
			if st := e.lanes[i]; !st.done && st.planned {
				chunk = append(chunk, st)
			}
		}
		e.chunks[w] = chunk
		if len(chunk) == 0 {
			return
		}
		e.solveChunk(w, chunk)
	})
}

// solveChunk advances one worker's lanes through a full candidate solve in
// lockstep: every live lane's device load is batched (device-outer,
// lane-inner over the chunk's struct-of-arrays blocks), then each lane runs
// the per-lane remainder of the Newton iteration. Lanes leave the lockstep
// as they converge or fail; results land in the lane state for the serial
// acceptance phase.
func (e *engine) solveChunk(w int, chunk []*laneState) {
	live := 0
	for _, st := range chunk {
		st.cand, st.candErr, st.pt = nil, nil, nil
		st.iters = 0
		c, err := st.ps.BeginCandidate(st.hist, st.tNew)
		if err != nil {
			st.candErr = err
			continue
		}
		st.cand = c
		st.co = c.Co
		live++
	}
	wss := e.chWS[w][:0]
	xs := e.chXS[w][:0]
	lps := e.chPS[w][:0]
	for live > 0 {
		wss, xs, lps = wss[:0], xs[:0], lps[:0]
		for _, st := range chunk {
			if st.cand == nil {
				wss = append(wss, nil)
				xs = append(xs, nil)
				lps = append(lps, circuit.LoadParams{})
				continue
			}
			x, p := st.cand.LoadArgs()
			wss = append(wss, st.ps.WS)
			xs = append(xs, x)
			lps = append(lps, p)
		}
		circuit.BatchLoad(wss, xs, lps)
		for _, st := range chunk {
			if st.cand == nil {
				continue
			}
			done, err := st.cand.Step()
			if err != nil {
				st.iters = st.cand.Iter
				st.candErr = st.cand.Fail(err)
				st.cand = nil
				live--
				continue
			}
			if done {
				st.iters = st.cand.Iter
				st.co = st.cand.Co
				st.pt = st.cand.Commit()
				st.cand = nil
				live--
			}
		}
	}
	e.chWS[w], e.chXS[w], e.chPS[w] = wss, xs, lps
}
