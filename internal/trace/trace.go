// Package trace is the observability backbone of the simulator: a
// low-overhead, concurrency-safe event stream the engines emit into, with
// periodic metrics snapshots, pluggable observers and exporters (JSONL,
// Chrome trace_event JSON, Prometheus text).
//
// The hot-path contract is the nil tracer: a nil *Tracer is a valid tracer
// whose Emit is a no-op, so every engine guards its emissions with a single
// pointer test and a run without an observer pays nothing — no allocations,
// no locks, no clock reads. With an observer attached, events are
// serialized under one mutex (stamping a global sequence number and a
// run-relative wall clock) and handed to the observer synchronously in
// emission order; observers that need decoupling buffer internally (see
// Recorder's bounded ring).
//
// Event semantics are chosen so that a recorded stream reconciles exactly
// with the end-of-run transient.Stats counters: one KindSolve per Newton
// point-solve attempt (Stats.Solves), one KindAccept per published point
// (Stats.Points), one KindLTEReject per truncation-error rejection, one
// KindDiscard per thrown-away speculative point, one KindRecovery per
// successful recovery-ladder climb. Replay recomputes those counters from a
// stream.
package trace

import (
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KindNone           Kind = iota
	KindPredict             // speculative warm-start work (forward pipelining)
	KindSolve               // one Newton point-solve attempt
	KindAccept              // a point entered the published waveform
	KindLTEReject           // truncation-error control rejected a candidate
	KindDiscard             // a speculative point was thrown away unused
	KindRecovery            // a recovery-ladder rung rescued a point
	KindSerialFallback      // the pipeline degraded to serial integration
	KindPhase               // a timed sub-phase of a solve (see Phase)
	KindWorker              // worker occupancy span; no longer emitted, decodes in older logs
	KindCancel              // the run observed context cancellation
	KindCheckpoint          // a durable checkpoint was written (Dur = encode+write time)
	KindLaneRetire          // an ensemble lane detached from the gang (Detail = reason)
	KindWindowSeed          // a Parareal window was launched from a coarse seed (Stage = window)
	KindWindowConverge      // a Parareal window passed its convergence gate (Stage = window)
	KindWindowRedo          // a Parareal window was redone from its exact predecessor state
	kindCount
)

var kindNames = [kindCount]string{
	"", "predict", "solve", "accept", "lte-reject", "discard",
	"recovery", "serial-fallback", "phase", "worker", "cancel", "checkpoint",
	"lane-retire", "window-seed", "window-converge", "window-redo",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString parses a wire name produced by Kind.String.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if i > 0 && n == s {
			return Kind(i), true
		}
	}
	return KindNone, false
}

// Phase identifies the timed sub-phase a KindPhase event measured.
type Phase uint8

// Solve sub-phases.
const (
	PhaseNone       Phase = iota
	PhaseDeviceLoad       // device evaluation + matrix assembly
	PhaseFactor           // sparse LU factorization (or bypass, or exact reuse)
	PhaseTriSolve         // forward/backward triangular solves
	PhaseLTE              // truncation-error estimation
	phaseCount
)

var phaseNames = [phaseCount]string{"", "device-load", "factor", "tri-solve", "lte"}

// String returns the stable wire name of the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseFromString parses a wire name produced by Phase.String.
func PhaseFromString(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if i > 0 && n == s {
			return Phase(i), true
		}
	}
	return PhaseNone, false
}

// Event flag bits.
const (
	// FlagFailed marks a solve attempt that returned an error.
	FlagFailed uint8 = 1 << 0
	// FlagBypassed marks a factorization answered by reusing the prior LU
	// although the matrix values drifted (within the bypass tolerance).
	FlagBypassed uint8 = 1 << 1
	// FlagResumed marks a solve warm-started from speculative iterations.
	FlagResumed uint8 = 1 << 2
	// FlagLinearHit marks a device-load phase that started from a cached
	// linear stamp template (incremental assembly LRU hit). Such events also
	// carry the load's bypassed-device-eval count in Iters.
	FlagLinearHit uint8 = 1 << 3
	// FlagReused marks a factorization skipped because the matrix values
	// were bit-for-bit those a Refactor had already turned into the LU in
	// hand: an exact reuse, unlike FlagBypassed.
	FlagReused uint8 = 1 << 4
)

// Event is one structured trace record. The struct is fixed-size and
// pointer-free apart from the rarely-set Detail string, so recorders can
// hold millions of them without per-event allocation.
type Event struct {
	Seq    uint64  // global emission order (shared with snapshots)
	Wall   int64   // nanoseconds since the tracer was created
	Dur    int64   // span duration in nanoseconds (0 for instants)
	T      float64 // simulation time the event refers to
	H      float64 // step size, where meaningful
	Norm   float64 // LTE norm, where meaningful
	Stage  int32   // pipeline stage number (0 for the serial engine)
	Iters  int32   // Newton iterations, where meaningful
	Worker int16   // emitting worker (-1: coordinator / not attributable)
	Kind   Kind
	Phase  Phase
	Flags  uint8
	Detail string // rare human-readable context (recovery rung, reason)
}

// Snapshot is a periodic metrics sample, emitted every SnapshotEvery
// accepted points (see New). Counters are cumulative since run start.
type Snapshot struct {
	Seq             uint64  // shared sequence with events
	Wall            int64   // nanoseconds since run start
	T               float64 // simulation time at the snapshot
	H               float64 // step size of the most recent accepted point
	Points          int64   // accepted time points
	Solves          int64   // Newton point solves attempted
	NRIters         int64   // Newton iterations (incl. speculative warm-starts)
	LTERejects      int64   // truncation-error rejections
	Discarded       int64   // speculative points thrown away
	Recoveries      int64   // recovery-ladder rescues
	BypassHits      int64   // factorizations answered by LU reuse
	BypassedEvals   int64   // device evaluations answered by journal replay
	LinearStampHits int64   // device loads started from a cached linear template
	PointsPerSec    float64 // accept rate since the previous snapshot
}

// Observer receives the structured run telemetry. Callbacks are invoked
// synchronously, in emission order, from whichever goroutine emitted —
// implementations must be safe for concurrent use with themselves only if
// they are shared between tracers, and should return quickly (buffer
// internally when post-processing is slow).
type Observer interface {
	OnEvent(Event)
	OnSnapshot(Snapshot)
}

// multi fans one event stream out to several observers.
type multi []Observer

func (m multi) OnEvent(ev Event) {
	for _, o := range m {
		o.OnEvent(ev)
	}
}

func (m multi) OnSnapshot(s Snapshot) {
	for _, o := range m {
		o.OnSnapshot(s)
	}
}

// Multi combines observers into one that forwards every callback to each,
// in order. Nil entries are skipped; with zero non-nil observers it returns
// nil (which callers should treat as "no observer").
func Multi(obs ...Observer) Observer {
	var m multi
	for _, o := range obs {
		if o != nil {
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	default:
		return m
	}
}

// DefaultSnapshotEvery is the snapshot cadence (in accepted points) used
// when New is given a non-positive cadence.
const DefaultSnapshotEvery = 128

// Tracer serializes the engines' event emissions: it stamps sequence
// numbers and run-relative wall time, maintains the rolling counters behind
// periodic snapshots, and forwards everything to the observer. A nil
// *Tracer is valid and ignores all emissions — that is the production fast
// path when no observer is attached.
type Tracer struct {
	mu    sync.Mutex
	obs   Observer
	start time.Time
	seq   uint64
	every int64 // snapshot cadence in accepted points

	// Rolling counters feeding snapshots.
	points, solves, nrIters     int64
	lteRejects, discarded       int64
	recoveries, bypassHits      int64
	evalBypasses, linearHits    int64
	lastSnapPoints, lastSnapWal int64
}

// New returns a tracer forwarding to obs, snapshotting every snapshotEvery
// accepted points (<= 0 selects DefaultSnapshotEvery). A nil obs returns a
// nil tracer: emissions become no-ops.
func New(obs Observer, snapshotEvery int) *Tracer {
	if obs == nil {
		return nil
	}
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	return &Tracer{obs: obs, start: time.Now(), every: int64(snapshotEvery)}
}

// Active reports whether emissions reach an observer. It is the test
// engines should use before assembling an Event.
func (t *Tracer) Active() bool { return t != nil }

// Emit stamps and forwards one event, updating the snapshot counters and
// emitting a snapshot when an accept crosses the cadence boundary. Safe for
// concurrent use; a nil receiver ignores the call.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	// Deferred so a panicking observer cannot strand the mutex: the
	// facade's containment path emits a final checkpoint event while the
	// original Emit frame is still unwinding.
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	ev.Wall = time.Since(t.start).Nanoseconds()
	switch ev.Kind {
	case KindSolve:
		t.solves++
		t.nrIters += int64(ev.Iters)
	case KindPredict:
		t.nrIters += int64(ev.Iters)
	case KindAccept:
		t.points++
	case KindLTEReject:
		t.lteRejects++
	case KindDiscard:
		t.discarded++
	case KindRecovery:
		t.recoveries++
	case KindPhase:
		if ev.Phase == PhaseFactor && ev.Flags&FlagBypassed != 0 {
			t.bypassHits++
		}
		if ev.Phase == PhaseDeviceLoad {
			t.evalBypasses += int64(ev.Iters)
			if ev.Flags&FlagLinearHit != 0 {
				t.linearHits++
			}
		}
	}
	t.obs.OnEvent(ev)
	if ev.Kind == KindAccept && t.points%t.every == 0 {
		t.snapshotLocked(ev)
	}
}

// snapshotLocked builds and forwards a snapshot; t.mu must be held.
func (t *Tracer) snapshotLocked(at Event) {
	t.seq++
	s := Snapshot{
		Seq:             t.seq,
		Wall:            at.Wall,
		T:               at.T,
		H:               at.H,
		Points:          t.points,
		Solves:          t.solves,
		NRIters:         t.nrIters,
		LTERejects:      t.lteRejects,
		Discarded:       t.discarded,
		Recoveries:      t.recoveries,
		BypassHits:      t.bypassHits,
		BypassedEvals:   t.evalBypasses,
		LinearStampHits: t.linearHits,
	}
	if dw := at.Wall - t.lastSnapWal; dw > 0 {
		s.PointsPerSec = float64(t.points-t.lastSnapPoints) / (float64(dw) / 1e9)
	}
	t.lastSnapPoints = t.points
	t.lastSnapWal = at.Wall
	t.obs.OnSnapshot(s)
}
