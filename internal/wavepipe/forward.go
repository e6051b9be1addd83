package wavepipe

import (
	"errors"

	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/transient"
)

// forwardStage runs one forward-pipelining stage (optionally combined with
// backward workers), in two parallel phases:
//
//	phase A — worker 0: main point t1 = t + h
//	          worker 2: backward point t1 − δ       (combined, ≥3 threads)
//	          worker 1: speculative Newton warm-up at t2 = t1 + h against a
//	                    polynomially *predicted* t1 point
//	phase B — worker 1: corrective solve of t2 from the exact history,
//	                    warm-started from phase A
//	          worker 3: backward point t2 − δ       (combined, 4 threads)
//
// Phase B starts the moment the true t1 point exists. Accuracy is protected
// by re-solving the forward point against the exact history and LTE-checking
// every accepted point.
func (e *engine) forwardStage(combined bool) error {
	t := e.t()
	limit := e.stageLimit()
	t1 := t + e.h
	hitBp := false
	if t1 >= limit-0.01*e.h { // step-relative clamp; see transient.Run
		t1 = limit
		hitBp = true
	}
	h0 := t1 - t
	// The forward step is chosen conservatively (no growth) and must not
	// cross a breakpoint.
	t2 := t1 + h0
	doForward := !hitBp
	fwdHitsBp := false
	if t2 >= limit-0.01*h0 {
		t2 = limit
		fwdHitsBp = true
		if t2-t1 < 0.1*h0 {
			doForward = false
		}
	}
	fwdHitsBp = fwdHitsBp && doForward

	delta := e.opts.DeltaRatio * h0
	doBack1 := combined && e.opts.Threads >= 3
	doBack2 := combined && e.opts.Threads >= 4 && doForward && t2-delta > t1+0.05*h0

	// ---- Phase A ----
	var main, back1 pointResult
	// Warm-start tasks get their own result slots purely for panic capture:
	// a panicked warm-up leaves warmFwd/warmB2 nil and phase B falls back to
	// a cold solve.
	var warmFwdRes, warmB2Res pointResult
	var warmFwd, warmB2 []float64
	// The predicted history mirrors the spacing of the true one (including
	// the backward point when present) so the speculative assemblies'
	// Alpha0 match and ResumeAt can reuse them. Each warm-start task predicts
	// with its own solver's pooled prediction ring, so the concurrent phase-A
	// tasks never share scratch.
	predicted := func(ps *transient.PointSolver) *integrate.History {
		ph := e.hist.Clone()
		if doBack1 {
			ph.Add(ps.PredictPoint(e.hist, t1-delta))
		}
		ph.Add(ps.PredictPoint(e.hist, t1))
		return ph
	}
	tasksA := []func(){e.guardTask(t1, &main, func() {
		pt, co, err := e.solvers[0].SolveAt(e.hist, t1, nil)
		main = pointResult{pt: pt, co: co, err: err}
	})}
	if doBack1 {
		tasksA = append(tasksA, e.guardTask(t1-delta, &back1, func() {
			pt, co, err := e.solvers[2].SolveAt(e.hist, t1-delta, nil)
			back1 = pointResult{pt: pt, co: co, err: err}
		}))
	}
	depth := e.warmDepth()
	if doForward {
		tasksA = append(tasksA, e.guardTask(t2, &warmFwdRes, func() {
			warmFwd = e.solvers[1].WarmStart(predicted(e.solvers[1]), t2, depth)
		}))
	}
	if doBack2 {
		tasksA = append(tasksA, e.guardTask(t2-delta, &warmB2Res, func() {
			warmB2 = e.solvers[3].WarmStart(predicted(e.solvers[3]), t2-delta, depth)
		}))
	}
	e.runTasks(tasksA...)
	e.notePanics(&main, &back1, &warmFwdRes, &warmB2Res)
	e.noteMainIters(e.solvers[0].LastIters)

	if main.err != nil {
		e.noteDiscards(t1, boolCount(doBack1))
		if !errors.Is(main.err, faults.ErrWorkerPanic) {
			e.shrinkAfterFailure()
		}
		return nil
	}

	// ---- Phase B (speculative with respect to the LTE checks below) ----
	var fwd, back2 pointResult
	var trueHist *integrate.History
	if doForward {
		trueHist = e.hist.Clone()
		if doBack1 && back1.err == nil {
			trueHist.Add(back1.pt)
		}
		trueHist.Add(main.pt)
		tasksB := []func(){e.guardTask(t2, &fwd, func() {
			pt, co, err := e.solvers[1].ResumeAt(trueHist, t2, warmFwd)
			fwd = pointResult{pt: pt, co: co, err: err}
		})}
		if doBack2 {
			tasksB = append(tasksB, e.guardTask(t2-delta, &back2, func() {
				pt, co, err := e.solvers[3].ResumeAt(trueHist, t2-delta, warmB2)
				back2 = pointResult{pt: pt, co: co, err: err}
			}))
		}
		e.runTasks(tasksB...)
		e.notePanics(&fwd, &back2)
	}

	// ---- Validation and publication, ascending in time ----
	mainNorm := e.lteNorm(main)
	if mainNorm > 1 && main.co.H0 > e.ctrl.HMin*1.01 && !e.afterBreak {
		// The whole stage is built on t1: discard everything.
		e.noteReject(t1, main.co.H0, mainNorm)
		e.noteDiscards(t1, boolCount(doBack1)+boolCount(doForward)+boolCount(doBack2))
		e.h = e.ctrl.ShrinkOnReject(main.co.H0, mainNorm, main.co.Order)
		return nil
	}
	accepted := 0
	if doBack1 {
		if back1.err == nil && (e.afterBreak || e.lteNorm(back1) <= 1) {
			e.accept(back1.pt)
			accepted++
		} else {
			e.noteDiscards(t1-delta, 1)
		}
	}
	e.accept(main.pt)
	accepted++

	if hitBp {
		e.handleBreak(h0)
		return nil
	}
	e.afterBreak = false

	if !doForward {
		e.nextStep(h0, accepted, mainNorm, main.co.H1)
		return nil
	}

	// Speculative points pass the same LTE bar as everything else; a
	// stricter bar was tried and bought no measurable accuracy while
	// discarding ~15% more points (see EXPERIMENTS.md).
	const specBar = 1.0
	lteAgainst := func(res pointResult) float64 {
		return e.lteNormAgainst(trueHist, res)
	}
	if doBack2 {
		if back2.err == nil && lteAgainst(back2) <= specBar {
			e.accept(back2.pt)
			accepted++
		} else {
			e.noteDiscards(t2-delta, 1)
		}
	}
	if fwd.err == nil {
		if fwdNorm := lteAgainst(fwd); fwdNorm <= specBar {
			// back2 may have been accepted between the main point and the
			// forward point; history stays ascending either way.
			e.accept(fwd.pt)
			accepted++
			if fwdHitsBp {
				e.handleBreak(fwd.co.H0)
				return nil
			}
			e.nextStep(fwd.co.H0, accepted, fwdNorm, fwd.co.H1)
			return nil
		}
		// The forward point's LTE feedback still guides the next step.
		fwdNorm := lteAgainst(fwd)
		e.noteDiscards(t2, 1)
		e.noteReject(t2, fwd.co.H0, fwdNorm)
		e.h = e.ctrl.ShrinkOnReject(fwd.co.H0, fwdNorm, fwd.co.Order)
		return nil
	}
	e.noteDiscards(t2, 1)
	e.nextStep(h0, accepted, mainNorm, main.co.H1)
	return nil
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}
