package transient

import (
	"wavepipe/internal/circuit"
	"wavepipe/internal/integrate"
	"wavepipe/internal/newton"
)

// Lockstep support for the ensemble engine: a Candidate is one lane's
// in-flight point solve, split open at the iteration boundary so the
// device-load phase of every live lane can be batched (circuit.BatchLoad)
// while the rest of the iteration — residual, factorization, update,
// convergence test — runs per lane through newton.StepLoaded. With every
// bypass path disabled the per-lane floating-point sequence is identical
// to SolveAt, so a lane's lockstep trajectory is bit-identical to its own
// serial run.
//
// Unlike SolveAt, candidates do not emit trace events: the ensemble engine
// owns the event stream.

// NewPointSolverOn wraps an existing workspace (typically a lane workspace
// from System.NewLaneWorkspaces) in a point solver. scratch, when it has at
// least 3·N capacity, backs the solver's qhist/residual/update vectors —
// the ensemble carves one contiguous block per lane so the per-iteration
// vectors of adjacent lanes stay cache-adjacent; a nil or short scratch
// falls back to private allocations.
func NewPointSolverOn(ws *circuit.Workspace, method integrate.Method, nopts newton.Options, gmin float64, scratch []float64) *PointSolver {
	n := ws.Sys.N
	ps := &PointSolver{WS: ws, Method: method, Newton: nopts, Gmin: gmin}
	if len(scratch) >= 3*n {
		ps.qhist = scratch[0:n:n]
		ps.r = scratch[n : 2*n : 2*n]
		ps.dx = scratch[2*n : 3*n : 3*n]
	} else {
		ps.qhist = make([]float64, n)
		ps.r = make([]float64, n)
		ps.dx = make([]float64, n)
	}
	return ps
}

// DonatePoints seeds the solver's point pool with pre-allocated points
// (the ensemble carves each lane's points from one strided backing array,
// so history rings and candidates stay struct-of-arrays too).
func (ps *PointSolver) DonatePoints(pts []*integrate.Point) {
	ps.ptPool = append(ps.ptPool, pts...)
}

// Candidate is one lane's lockstep point solve between BeginCandidate and
// Commit/Fail.
type Candidate struct {
	ps   *PointSolver
	pt   *integrate.Point
	Co   integrate.Coeffs
	TNew float64
	Iter int // Newton iterations executed so far
	p    circuit.LoadParams
	opts newton.Options
}

// BeginCandidate opens a candidate solve at tNew: integration coefficients
// and history vector, a pooled point seeded with the polynomial prediction,
// and the entry bookkeeping SolveAt performs (Solves counter, injected
// entry fault). A non-nil error is terminal for this point and the
// candidate has already been cleaned up.
func (ps *PointSolver) BeginCandidate(hist *integrate.History, tNew float64) (*Candidate, error) {
	co, err := integrate.Compute(ps.Method, hist, tNew, ps.qhist)
	if err != nil {
		return nil, err
	}
	pt := ps.takePoint()
	ps.predict(hist, tNew, pt.X)
	nopts := ps.Newton
	if nopts.MaxIter <= 0 {
		nopts.MaxIter = newton.DefaultMaxIter
	}
	c := &Candidate{
		ps: ps, pt: pt, Co: co, TNew: tNew, opts: nopts,
		p: circuit.LoadParams{Time: tNew, Alpha0: co.Alpha0, Gmin: ps.Gmin, SrcScale: 1},
	}
	ps.Stats.Solves++
	if err := newton.EntryFault(ps.WS, tNew); err != nil {
		return nil, c.Fail(err)
	}
	return c, nil
}

// LoadArgs returns the iterate and assembly parameters the batched load of
// the current iteration must use for this lane.
func (c *Candidate) LoadArgs() ([]float64, circuit.LoadParams) {
	p := c.p
	p.FirstIter = c.Iter == 0
	return c.pt.X, p
}

// Step runs the post-assembly remainder of the current Newton iteration;
// the caller must have batch-loaded this lane with LoadArgs first. done
// reports convergence; err is terminal (exhausted iteration budget
// included) and the caller must follow with Fail.
func (c *Candidate) Step() (done bool, err error) {
	ps := c.ps
	p := c.p
	p.FirstIter = c.Iter == 0
	done, err = newton.StepLoaded(ps.WS, c.pt.X, p, ps.qhist, c.opts, ps.r, ps.dx, c.Iter)
	c.Iter++
	ps.Stats.NRIters++
	if err != nil {
		return false, err
	}
	if done {
		return true, nil
	}
	if c.Iter >= c.opts.MaxIter {
		return false, newton.NoConvergenceErr(c.TNew, c.opts.MaxIter)
	}
	return false, nil
}

// Commit finishes a converged candidate exactly as SolveAt would: one
// bookkeeping assembly at the solution for the exact charge vector, Qdot
// from the discretization. The returned point belongs to the caller.
func (c *Candidate) Commit() *integrate.Point {
	c.ps.LastIters = c.Iter
	return c.ps.finishPoint(c.pt, c.TNew, c.Co)
}

// Fail abandons the candidate after a terminal error, mirroring SolveAt's
// failure bookkeeping (NRFailures, point recycling). Returns err unchanged
// for call-site convenience.
func (c *Candidate) Fail(err error) error {
	c.ps.LastIters = c.Iter
	c.ps.Stats.NRFailures++
	c.ps.PutPoint(c.pt)
	return err
}

// CollectBreakpointsFor is CollectBreakpoints over an explicit device list
// (ensemble lanes own variant device instances whose source parameters —
// and therefore breakpoints — may differ per lane).
func CollectBreakpointsFor(devs []circuit.Device, tstop float64) []float64 {
	return collectBreakpoints(devs, tstop)
}
