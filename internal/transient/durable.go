package transient

import (
	"fmt"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/num"
	"wavepipe/internal/waveform"
)

// Durable-run plumbing: converting between the engine's native state and
// checkpoint.State. The checkpoint package cannot import transient (the
// dependency points the other way), so Stats and RecoveryEvent are mirrored
// there and converted here.

// snapStats widens engine stats to the checkpoint's fixed-width mirror.
func snapStats(s Stats) checkpoint.Stats {
	return checkpoint.Stats{
		Points:                 int64(s.Points),
		Solves:                 int64(s.Solves),
		NRIters:                int64(s.NRIters),
		LTERejects:             int64(s.LTERejects),
		NRFailures:             int64(s.NRFailures),
		Discarded:              int64(s.Discarded),
		OpIters:                int64(s.OpIters),
		Stages:                 int64(s.Stages),
		Recoveries:             int64(s.Recoveries),
		WorkerPanics:           int64(s.WorkerPanics),
		DegradedStages:         int64(s.DegradedStages),
		BypassedFactorizations: int64(s.BypassedFactorizations),
		Refactorizations:       int64(s.Refactorizations),
		FullFactorizations:     int64(s.FullFactorizations),
		BypassedEvals:          s.BypassedEvals,
		LinearStampHits:        s.LinearStampHits,
		CoreBudget:             int64(s.CoreBudget),
		PipelineWorkers:        int64(s.PipelineWorkers),
		IntraWorkers:           int64(s.IntraWorkers),
		PipelineSerialized:     s.PipelineSerialized,
	}
}

// unsnapStats narrows checkpointed stats back to the engine representation.
func unsnapStats(s checkpoint.Stats) Stats {
	return Stats{
		Points:                 int(s.Points),
		Solves:                 int(s.Solves),
		NRIters:                int(s.NRIters),
		LTERejects:             int(s.LTERejects),
		NRFailures:             int(s.NRFailures),
		Discarded:              int(s.Discarded),
		OpIters:                int(s.OpIters),
		Stages:                 int(s.Stages),
		Recoveries:             int(s.Recoveries),
		WorkerPanics:           int(s.WorkerPanics),
		DegradedStages:         int(s.DegradedStages),
		BypassedFactorizations: int(s.BypassedFactorizations),
		Refactorizations:       int(s.Refactorizations),
		FullFactorizations:     int(s.FullFactorizations),
		BypassedEvals:          s.BypassedEvals,
		LinearStampHits:        s.LinearStampHits,
		CoreBudget:             int(s.CoreBudget),
		PipelineWorkers:        int(s.PipelineWorkers),
		IntraWorkers:           int(s.IntraWorkers),
		PipelineSerialized:     s.PipelineSerialized,
	}
}

// snapRecovery / unsnapRecovery convert the recovery log.
func snapRecovery(rl *RecoveryLog) []checkpoint.RecoveryEvent {
	evs := rl.Events()
	out := make([]checkpoint.RecoveryEvent, len(evs))
	for i, e := range evs {
		out[i] = checkpoint.RecoveryEvent{T: e.T, Kind: e.Kind, Detail: e.Detail}
	}
	return out
}

func unsnapRecovery(evs []checkpoint.RecoveryEvent) *RecoveryLog {
	rl := &RecoveryLog{}
	for _, e := range evs {
		rl.Note(e.T, e.Kind, e.Detail)
	}
	return rl
}

// badCheckpoint builds the typed error every resume-validation failure
// surfaces.
func badCheckpoint(format string, args ...any) error {
	return &faults.SimError{
		Phase: "checkpoint", Node: -1,
		Cause: fmt.Errorf("%w: %s", faults.ErrBadCheckpoint, fmt.Sprintf(format, args...)),
	}
}

// CaptureState snapshots a run at an accepted-step boundary: the trailing
// history window (deep-copied — the serial engine recycles evicted points),
// the step controller's position, the junction-limiting state, the LU
// factorization (its pivot sequence is what makes serial resume
// bit-identical), the recorded waveform (aliased — rows are immutable once
// appended), cumulative stats and the recovery log. total carries the run's
// cumulative statistics, including any segments before an earlier resume;
// ps is the solver whose workspace holds the authoritative limiting and
// factorization state (the serial solver, or pipeline lane 0).
func CaptureState(sys *circuit.System, ps *PointSolver, opts *Options,
	w *waveform.Set, rl *RecoveryLog, hist *integrate.History,
	total Stats, t, h, hUsed float64, afterBreak bool, warmup, scheme int) *checkpoint.State {

	pts := make([]*integrate.Point, hist.Len())
	for i := range pts {
		p := hist.At(i)
		pts[i] = &integrate.Point{T: p.T, X: num.Copy(p.X), Q: num.Copy(p.Q), Qdot: num.Copy(p.Qdot)}
	}

	return &checkpoint.State{
		N:          sys.N,
		NumStates:  sys.NumStates,
		NumDevices: len(sys.Circuit.Devices()),
		PatternNNZ: sys.PatternNNZ(),
		TStop:      opts.TStop,
		Method:     int(opts.Method),
		Scheme:     scheme,
		T:          t,
		H:          h,
		HUsed:      hUsed,
		AfterBreak: afterBreak,
		Warmup:     warmup,
		Generation: ps.WS.BypassGeneration(),
		Hist:       pts,
		SPrev:      num.Copy(ps.WS.SPrev),
		SNext:      num.Copy(ps.WS.SNext),
		LU:         ps.WS.Solver.FactorState(),
		Stats:      snapStats(total),
		Recovery:   snapRecovery(rl),
		WaveNames:  w.Names,
		WaveIndex:  w.Index,
		WaveTimes:  w.Times[:len(w.Times):len(w.Times)],
		WaveData:   w.Data[:len(w.Data):len(w.Data)],
	}
}

// SalvageResult rebuilds a partial Result from a retained checkpoint
// snapshot. It is the facade's last resort when a panic (contained at the
// API boundary) kept the engine from returning its own partial result: the
// waveform, stats, recovery log and final solution of the last snapshot are
// everything that provably survived. Returns nil when st is nil or its
// waveform cannot be rebuilt.
func SalvageResult(st *checkpoint.State) *Result {
	if st == nil {
		return nil
	}
	w, err := waveform.Restore(st.WaveNames, st.WaveIndex, st.WaveTimes, st.WaveData)
	if err != nil {
		return nil
	}
	res := &Result{
		W:        w,
		Stats:    unsnapStats(st.Stats),
		Recovery: unsnapRecovery(st.Recovery),
	}
	if n := len(st.Hist); n > 0 {
		res.FinalX = num.Copy(st.Hist[n-1].X)
	}
	return res
}

// Resumed is the engine state RestoreState rebuilds from a checkpoint.
type Resumed struct {
	Hist       *integrate.History
	W          *waveform.Set
	RL         *RecoveryLog
	Base       Stats // stats accumulated before the interruption
	T          float64
	H          float64
	HUsed      float64
	AfterBreak bool
	Warmup     int
}

// RestoreState validates a checkpoint against the live system and run
// options and rebuilds the engine state it describes: history window,
// waveform, step position, limiting state, the LU factorization, and the
// incremental-engine generation. The point solver's workspace is mutated in
// place; every failure surfaces faults.ErrBadCheckpoint.
func RestoreState(st *checkpoint.State, sys *circuit.System, ps *PointSolver, opts *Options) (*Resumed, error) {
	if err := st.Matches(sys.N, sys.NumStates, len(sys.Circuit.Devices()),
		sys.PatternNNZ(), opts.TStop, int(opts.Method)); err != nil {
		return nil, err
	}
	// The waveform must describe the same record set this run would build;
	// otherwise the resumed tail would append mismatched columns.
	expect := RecordSet(sys, *opts)
	if len(expect.Index) != len(st.WaveIndex) {
		return nil, badCheckpoint("record set mismatch: %d signals, checkpoint has %d",
			len(expect.Index), len(st.WaveIndex))
	}
	for i, idx := range expect.Index {
		if st.WaveIndex[i] != idx {
			return nil, badCheckpoint("record set mismatch at signal %d", i)
		}
	}
	hist, err := integrate.RestoreHistory(st.Hist)
	if err != nil {
		return nil, badCheckpoint("%v", err)
	}
	last := hist.Last()
	if last == nil || last.T != st.T {
		return nil, badCheckpoint("history does not end at checkpoint time %g", st.T)
	}
	w, err := waveform.Restore(st.WaveNames, st.WaveIndex, st.WaveTimes, st.WaveData)
	if err != nil {
		return nil, badCheckpoint("%v", err)
	}
	if n := w.Len(); n == 0 || w.Times[n-1] != st.T {
		return nil, badCheckpoint("waveform does not end at checkpoint time %g", st.T)
	}
	if st.H <= 0 {
		return nil, badCheckpoint("non-positive step %g", st.H)
	}
	copy(ps.WS.SPrev, st.SPrev)
	copy(ps.WS.SNext, st.SNext)
	if st.LU != nil {
		if err := ps.WS.Solver.RestoreFactor(st.LU); err != nil {
			return nil, badCheckpoint("%v", err)
		}
	}
	ps.WS.RestoreBypassGeneration(st.Generation)
	return &Resumed{
		Hist:       hist,
		W:          w,
		RL:         unsnapRecovery(st.Recovery),
		Base:       unsnapStats(st.Stats),
		T:          st.T,
		H:          st.H,
		HUsed:      st.HUsed,
		AfterBreak: st.AfterBreak,
		Warmup:     st.Warmup,
	}, nil
}
