// Package newton implements the damped Newton–Raphson loop used by the DC
// operating-point and transient engines. One call solves the assembled
// circuit equations F(x) + Alpha0·Q(x) + qhist − B(t) = 0 at a single time
// point, reusing the workspace's sparse factorization across iterations.
package newton

import (
	"fmt"
	"math"
	"time"

	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/num"
	"wavepipe/internal/trace"
)

// ErrNoConvergence is wrapped by Solve when the iteration limit is reached.
// It aliases the shared taxonomy sentinel so callers can branch through
// either name with errors.Is.
var ErrNoConvergence = faults.ErrNoConvergence

// Options controls the Newton iteration.
type Options struct {
	MaxIter int            // iteration limit (default 50)
	Tol     num.Tolerances // per-unknown update tolerance
	// Damping clamps each solution update component to ±Damping
	// (0 disables). Useful for MOS circuits without junction limiting.
	Damping float64
	// ResidualCheck additionally requires the weighted residual norm to
	// drop below ResidualTol (skipped when 0).
	ResidualTol float64
}

// DefaultOptions returns the options used across the repository.
func DefaultOptions() Options {
	return Options{MaxIter: 50, Tol: num.DefaultTolerances(), Damping: 5}
}

// Result reports what one Newton solve did.
type Result struct {
	Iters     int
	Converged bool
}

// Solve runs Newton–Raphson on workspace ws starting from (and updating) x.
// p carries the assembly parameters (time, Alpha0, gmin, source scale);
// qhist is the integration history vector (nil for DC). Scratch vectors r
// and dx must have length ws.Sys.N and are overwritten.
//
// On success x holds the converged solution and ws.F/Q/B the assembly at a
// point no further than one converged update from x (the standard SPICE
// convention: the last Load happened at the previous iterate).
func Solve(ws *circuit.Workspace, x []float64, p circuit.LoadParams, qhist []float64, opts Options, r, dx []float64) (Result, error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}
	res := Result{}
	if cls, ok := ws.Faults.At(faults.SiteNewton, p.Time); ok && cls == faults.NoConvergence {
		return res, faults.Wrap("newton", p.Time, -1, fmt.Errorf("%w (injected)", ErrNoConvergence))
	}
	// forceFresh suppresses factorization bypass for one iteration: set after
	// a bypassed (stale-LU, quasi-Newton) step failed the convergence test,
	// so a wildly off LU cannot stall the whole iteration budget.
	forceFresh := false
	for iter := 0; iter < opts.MaxIter; iter++ {
		// Cooperative abort: a tripped deadline or watchdog interrupts even
		// a hung iteration at the next iteration boundary.
		if err := ws.Abort.Err(); err != nil {
			return res, faults.Wrap("newton", p.Time, -1, err)
		}
		p.FirstIter = iter == 0
		loadTraced(ws, x, p)
		limited := ws.Limited
		ws.Residual(p.Alpha0, qhist, r)
		if err := factorAndSolve(ws, p.Time, r, dx, forceFresh); err != nil {
			return res, faults.Wrap("newton", p.Time, -1, fmt.Errorf("iteration %d: %w", iter, err))
		}
		forceFresh = false
		// A bypassed factorization makes this a quasi-Newton step: keep the
		// pre-update iterate around so the convergence guard below can redo
		// the step exactly.
		bypassed := ws.Solver.LastBypassed
		if bypassed {
			ws.SaveIterate(x)
		}
		// x_{k+1} = x_k − J⁻¹·R, with optional per-component damping.
		maxRatio := applyUpdate(x, dx, opts)
		ws.FlipState()
		res.Iters = iter + 1
		// A NaN/Inf iterate can never converge — every later update test
		// compares against NaN — so abort at once instead of burning the
		// whole iteration budget, and name the unknown that went bad.
		if i := num.NonFiniteIndex(x); i >= 0 {
			return res, faults.Wrap("newton", p.Time, i,
				fmt.Errorf("%w in iterate after %d iterations", faults.ErrNonFinite, res.Iters))
		}
		// SPICE's convergence rule: accept as soon as the Newton update is
		// inside the tolerance band, on any iteration — the update was
		// computed from an exact Jacobian/residual at the previous iterate,
		// so a small step certifies the iterate. The guard against the
		// pn-junction false-convergence trap (an iterate assembled under
		// active device limiting may pass the update test while grossly
		// violating the true residual) is the limiting flag.
		if maxRatio <= 1 && !limited {
			if ws.LastLoadBypassed() > 0 {
				// A load with bypassed device evaluations is never allowed to
				// be the iteration that declares convergence: the replayed
				// stamps are within tolerance but not exact.
				if bypassed {
					// The step also came from a reused LU — two staleness
					// sources stack, so certify nothing in place: force a
					// fully evaluated iteration and re-test.
					ws.DisableBypassOnce()
					continue
				}
				// In-place certification: reload with every device fully
				// evaluated at the candidate iterate, then take one exact-
				// residual step through the current factorization. Accepting
				// only when that step also lands inside the band gives the
				// declaring iteration an exact assembly at a fraction of a
				// full iteration (no refactorization).
				ws.DisableBypassOnce()
				loadTraced(ws, x, p)
				if ws.Limited {
					continue
				}
				ws.Residual(p.Alpha0, qhist, r)
				if err := ws.Solver.Solve(r, dx); err != nil {
					return res, faults.Wrap("newton", p.Time, -1, fmt.Errorf("iteration %d: %w", iter, err))
				}
				maxRatio = applyUpdate(x, dx, opts)
				ws.FlipState()
				if i := num.NonFiniteIndex(x); i >= 0 {
					return res, faults.Wrap("newton", p.Time, i,
						fmt.Errorf("%w in iterate after %d iterations", faults.ErrNonFinite, res.Iters))
				}
				if maxRatio > 1 {
					// The exact assembly disagreed: keep iterating from the
					// genuine Newton step it produced.
					continue
				}
			}
			if bypassed {
				// Never accept an iterate produced under factorization
				// bypass: rewind to the pre-update iterate (whose assembly
				// and residual are still in the workspace), refactorize for
				// real, and take the exact Newton step instead.
				ws.RestoreIterate(x)
				if err := ws.Solver.FactorizeFresh(); err != nil {
					return res, faults.Wrap("newton", p.Time, -1, fmt.Errorf("iteration %d: %w", iter, err))
				}
				if err := ws.Solver.Solve(r, dx); err != nil {
					return res, faults.Wrap("newton", p.Time, -1, fmt.Errorf("iteration %d: %w", iter, err))
				}
				maxRatio = applyUpdate(x, dx, opts)
				if i := num.NonFiniteIndex(x); i >= 0 {
					return res, faults.Wrap("newton", p.Time, i,
						fmt.Errorf("%w in iterate after %d iterations", faults.ErrNonFinite, res.Iters))
				}
				if maxRatio > 1 {
					// The exact step disagreed with the bypassed one by more
					// than the tolerance band; keep iterating from it.
					continue
				}
			}
			if opts.ResidualTol > 0 {
				// The residual that certifies convergence must come from a
				// fully evaluated assembly, never from replayed stamps.
				ws.DisableBypassOnce()
				loadTraced(ws, x, p)
				ws.Residual(p.Alpha0, qhist, r)
				if num.MaxAbs(r) > opts.ResidualTol {
					continue
				}
			}
			res.Converged = true
			return res, nil
		}
		// The step missed the convergence band. If it was computed from a
		// reused (bypassed) factorization the quasi-Newton direction may be
		// arbitrarily wrong — a stale LU can even diverge on a linear
		// circuit — so insist on a real factorization next iteration.
		// Genuine Newton steps that miss the band keep iterating normally.
		forceFresh = bypassed
	}
	return res, faults.Wrap("newton", p.Time, -1,
		fmt.Errorf("%w after %d iterations", ErrNoConvergence, opts.MaxIter))
}

// loadTraced assembles the system, pairing each Load with exactly one
// PhaseDeviceLoad event when tracing is active. The event carries the
// incremental-assembly outcome — Iters holds the bypassed-eval count and
// FlagLinearHit marks a linear-template hit — so trace replay reconciles
// 1:1 with the workspace's DeviceBypassCounters.
func loadTraced(ws *circuit.Workspace, x []float64, p circuit.LoadParams) {
	if !ws.Trace.Active() {
		ws.Load(x, p)
		return
	}
	t0 := time.Now()
	ws.Load(x, p)
	ev := trace.Event{
		Kind: trace.KindPhase, Phase: trace.PhaseDeviceLoad,
		Dur: time.Since(t0).Nanoseconds(), T: p.Time, Worker: ws.Worker,
		Iters: int32(ws.LastLoadBypassed()),
	}
	if ws.LastLoadLinearHit() {
		ev.Flags |= trace.FlagLinearHit
	}
	ws.Trace.Emit(ev)
}

func factorAndSolve(ws *circuit.Workspace, at float64, r, dx []float64, forceFresh bool) error {
	if cls, ok := ws.Faults.At(faults.SiteFactor, at); ok && cls == faults.Singular {
		return fmt.Errorf("%w (injected)", faults.ErrSingular)
	}
	if ws.Trace.Active() {
		return factorAndSolveTraced(ws, at, r, dx, forceFresh)
	}
	var err error
	if forceFresh {
		err = ws.Solver.FactorizeFresh()
	} else {
		err = ws.Solver.Factorize()
	}
	if err != nil {
		return err
	}
	return ws.Solver.Solve(r, dx)
}

// factorAndSolveTraced is the observed twin of factorAndSolve: it splits the
// linear-solve work into a factorization span (flagged when the bypass
// policy kept a stale LU, or when unchanged values kept an exact one) and a
// triangular-solve span.
func factorAndSolveTraced(ws *circuit.Workspace, at float64, r, dx []float64, forceFresh bool) error {
	t0 := time.Now()
	var err error
	if forceFresh {
		err = ws.Solver.FactorizeFresh()
	} else {
		err = ws.Solver.Factorize()
	}
	ev := trace.Event{
		Kind: trace.KindPhase, Phase: trace.PhaseFactor,
		Dur: time.Since(t0).Nanoseconds(), T: at, Worker: ws.Worker,
	}
	if ws.Solver.LastBypassed {
		ev.Flags |= trace.FlagBypassed
	}
	if ws.Solver.LastReused {
		ev.Flags |= trace.FlagReused
	}
	if err != nil {
		ev.Flags |= trace.FlagFailed
		ws.Trace.Emit(ev)
		return err
	}
	ws.Trace.Emit(ev)
	t0 = time.Now()
	err = ws.Solver.Solve(r, dx)
	ev = trace.Event{
		Kind: trace.KindPhase, Phase: trace.PhaseTriSolve,
		Dur: time.Since(t0).Nanoseconds(), T: at, Worker: ws.Worker,
	}
	if err != nil {
		ev.Flags |= trace.FlagFailed
	}
	ws.Trace.Emit(ev)
	return err
}

// ResumeSolve continues a Newton iteration whose assembly already exists:
// the workspace must hold a Load taken at x (same time point and Alpha0)
// with a valid factorization — the state a speculative warm start leaves
// behind. Because the device assembly does not depend on the integration
// history, only the residual changes when the true history replaces the
// predicted one: iteration 0 therefore costs one residual rebuild and one
// triangular solve, and the loop then continues with full iterations. This
// is what makes forward pipelining pay: most of the forward point's
// computation happened speculatively, off the critical path.
func ResumeSolve(ws *circuit.Workspace, x []float64, p circuit.LoadParams, qhist []float64, opts Options, r, dx []float64) (Result, error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}
	res := Result{}
	ws.Residual(p.Alpha0, qhist, r)
	if err := ws.Solver.Solve(r, dx); err != nil {
		return res, faults.Wrap("newton", p.Time, -1, fmt.Errorf("resume: %w", err))
	}
	maxRatio := applyUpdate(x, dx, opts)
	res.Iters = 1
	// Same non-finite guard as Solve: a poisoned warm iterate must fail
	// fast, not spin through the full continuation below.
	if i := num.NonFiniteIndex(x); i >= 0 {
		return res, faults.Wrap("newton", p.Time, i,
			fmt.Errorf("%w in resumed iterate", faults.ErrNonFinite))
	}
	// The assembly and factorization are exact for the warm iterate (only
	// the history vector changed), so this is a true Newton step and the
	// standard acceptance rule applies.
	if maxRatio <= 1 && !ws.Limited {
		res.Converged = true
		return res, nil
	}
	inner, err := Solve(ws, x, p, qhist, opts, r, dx)
	res.Iters += inner.Iters
	res.Converged = inner.Converged
	return res, err
}

// applyUpdate performs x -= clamp(dx) and returns the weighted update norm.
func applyUpdate(x, dx []float64, opts Options) float64 {
	maxRatio := 0.0
	for i := range x {
		d := dx[i]
		if opts.Damping > 0 {
			d = num.Clamp(d, -opts.Damping, opts.Damping)
		}
		xOld := x[i]
		x[i] -= d
		w := opts.Tol.Weight(math.Max(math.Abs(xOld), math.Abs(x[i])))
		if ratio := math.Abs(d) / w; ratio > maxRatio {
			maxRatio = ratio
		}
	}
	return maxRatio
}
