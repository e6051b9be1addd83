package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonlRecord is the wire form of one JSONL line: a tagged union of Event
// ("event") and Snapshot ("snapshot") with kind/phase names spelled out so
// the log is greppable and stable across Kind renumbering.
type jsonlRecord struct {
	Type   string  `json:"type"`
	Seq    uint64  `json:"seq"`
	Wall   int64   `json:"wall_ns"`
	Dur    int64   `json:"dur_ns,omitempty"`
	Kind   string  `json:"kind,omitempty"`
	Phase  string  `json:"phase,omitempty"`
	Worker int16   `json:"worker,omitempty"`
	Stage  int32   `json:"stage,omitempty"`
	T      float64 `json:"t"`
	H      float64 `json:"h,omitempty"`
	Norm   float64 `json:"norm,omitempty"`
	Iters  int32   `json:"iters,omitempty"`
	Flags  uint8   `json:"flags,omitempty"`
	Detail string  `json:"detail,omitempty"`

	// Snapshot-only counters.
	Points          int64   `json:"points,omitempty"`
	Solves          int64   `json:"solves,omitempty"`
	NRIters         int64   `json:"nr_iters,omitempty"`
	LTERejects      int64   `json:"lte_rejects,omitempty"`
	Discarded       int64   `json:"discarded,omitempty"`
	Recoveries      int64   `json:"recoveries,omitempty"`
	BypassHits      int64   `json:"bypass_hits,omitempty"`
	BypassedEvals   int64   `json:"bypassed_evals,omitempty"`
	LinearStampHits int64   `json:"linear_stamp_hits,omitempty"`
	PointsPerSec    float64 `json:"points_per_sec,omitempty"`
}

// WriteJSONL renders events and snapshots as one JSON object per line,
// interleaved by sequence number (both streams share one sequence, so the
// merge reproduces emission order).
func WriteJSONL(w io.Writer, events []Event, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	ei, si := 0, 0
	for ei < len(events) || si < len(snaps) {
		var rec jsonlRecord
		if si >= len(snaps) || (ei < len(events) && events[ei].Seq < snaps[si].Seq) {
			ev := events[ei]
			ei++
			rec = jsonlRecord{
				Type: "event", Seq: ev.Seq, Wall: ev.Wall, Dur: ev.Dur,
				Kind: ev.Kind.String(), Worker: ev.Worker, Stage: ev.Stage,
				T: ev.T, H: ev.H, Norm: ev.Norm, Iters: ev.Iters,
				Flags: ev.Flags, Detail: ev.Detail,
			}
			if ev.Phase != PhaseNone {
				rec.Phase = ev.Phase.String()
			}
		} else {
			s := snaps[si]
			si++
			rec = jsonlRecord{
				Type: "snapshot", Seq: s.Seq, Wall: s.Wall, T: s.T, H: s.H,
				Points: s.Points, Solves: s.Solves, NRIters: s.NRIters,
				LTERejects: s.LTERejects, Discarded: s.Discarded,
				Recoveries: s.Recoveries, BypassHits: s.BypassHits,
				BypassedEvals: s.BypassedEvals, LinearStampHits: s.LinearStampHits,
				PointsPerSec: s.PointsPerSec,
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream produced by WriteJSONL back into events and
// snapshots. Blank lines are skipped; unknown record types are an error so
// corrupted logs fail loudly.
func ReadJSONL(r io.Reader) ([]Event, []Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []Event
	var snaps []Snapshot
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch rec.Type {
		case "event":
			k, ok := KindFromString(rec.Kind)
			if !ok {
				return nil, nil, fmt.Errorf("trace: line %d: unknown kind %q", line, rec.Kind)
			}
			ev := Event{
				Seq: rec.Seq, Wall: rec.Wall, Dur: rec.Dur, Kind: k,
				Worker: rec.Worker, Stage: rec.Stage, T: rec.T, H: rec.H,
				Norm: rec.Norm, Iters: rec.Iters, Flags: rec.Flags, Detail: rec.Detail,
			}
			if rec.Phase != "" {
				p, ok := PhaseFromString(rec.Phase)
				if !ok {
					return nil, nil, fmt.Errorf("trace: line %d: unknown phase %q", line, rec.Phase)
				}
				ev.Phase = p
			}
			events = append(events, ev)
		case "snapshot":
			snaps = append(snaps, Snapshot{
				Seq: rec.Seq, Wall: rec.Wall, T: rec.T, H: rec.H,
				Points: rec.Points, Solves: rec.Solves, NRIters: rec.NRIters,
				LTERejects: rec.LTERejects, Discarded: rec.Discarded,
				Recoveries: rec.Recoveries, BypassHits: rec.BypassHits,
				BypassedEvals: rec.BypassedEvals, LinearStampHits: rec.LinearStampHits,
				PointsPerSec: rec.PointsPerSec,
			})
		default:
			return nil, nil, fmt.Errorf("trace: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return events, snaps, nil
}

// chromeEvent is one element of the Chrome trace_event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in chrome://tracing and Perfetto for flame-view inspection of
// the pipeline stages.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTid maps a worker id to a Chrome thread id: the coordinator (-1)
// becomes tid 0, worker k becomes tid k+1.
func chromeTid(worker int16) int { return int(worker) + 1 }

// WriteChromeTrace renders events and snapshots as a Chrome trace_event
// JSON array. Span events (solves, speculative warm-starts, solve phases)
// become complete ("X") events on the emitting worker's
// thread lane; point lifecycle events (accept, reject, discard, recovery,
// serial-fallback, cancel) become instant ("i") events; snapshots become
// counter ("C") tracks for step size and points/sec.
func WriteChromeTrace(w io.Writer, events []Event, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Thread-name metadata: name the lanes that appear in the stream.
	seen := map[int16]bool{}
	for _, ev := range events {
		if seen[ev.Worker] {
			continue
		}
		seen[ev.Worker] = true
		name := fmt.Sprintf("worker %d", ev.Worker)
		if ev.Worker < 0 {
			name = "coordinator"
		}
		if err := emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: chromeTid(ev.Worker),
			Args: map[string]any{"name": name},
		}); err != nil {
			return err
		}
	}

	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Kind.String(), Cat: "sim", Pid: 1, Tid: chromeTid(ev.Worker),
			Ts: float64(ev.Wall) / 1e3,
			Args: map[string]any{
				"t":     ev.T,
				"stage": ev.Stage,
			},
		}
		if ev.Kind == KindPhase {
			ce.Name = ev.Phase.String()
			ce.Cat = "phase"
		}
		if ev.H != 0 {
			ce.Args["h"] = ev.H
		}
		if ev.Norm != 0 {
			ce.Args["norm"] = ev.Norm
		}
		if ev.Iters != 0 {
			ce.Args["iters"] = ev.Iters
		}
		if ev.Flags != 0 {
			ce.Args["flags"] = ev.Flags
		}
		if ev.Detail != "" {
			ce.Args["detail"] = ev.Detail
		}
		if ev.Dur > 0 {
			// Span: stamp the start so concurrent workers nest correctly.
			ce.Ph = "X"
			ce.Ts = float64(ev.Wall-ev.Dur) / 1e3
			ce.Dur = float64(ev.Dur) / 1e3
		} else {
			ce.Ph = "i"
			ce.Scope = "t"
		}
		if err := emit(ce); err != nil {
			return err
		}
	}

	for _, s := range snaps {
		if err := emit(chromeEvent{
			Name: "step size", Ph: "C", Pid: 1, Ts: float64(s.Wall) / 1e3,
			Args: map[string]any{"h": s.H},
		}); err != nil {
			return err
		}
		if err := emit(chromeEvent{
			Name: "points/sec", Ph: "C", Pid: 1, Ts: float64(s.Wall) / 1e3,
			Args: map[string]any{"rate": s.PointsPerSec},
		}); err != nil {
			return err
		}
	}

	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ReplayCounts are the Stats-reconcilable counters recomputed from a
// recorded event stream (see Replay).
type ReplayCounts struct {
	Points          int // KindAccept events
	Solves          int // KindSolve events (incl. failed attempts)
	NRIters         int // iterations summed over solve + predict events
	LTERejects      int // KindLTEReject events
	Discarded       int // KindDiscard events
	Recoveries      int // KindRecovery events
	SerialFallbacks int // KindSerialFallback events
	BypassHits      int // bypassed-factorization phase events
	ReuseHits       int // exactly reused factorization phase events
	BypassedEvals   int // device evals replayed, summed over device-load phases
	LinearStampHits int // device-load phases flagged as linear-template hits
	Cancels         int // KindCancel events
	WindowSeeds     int // KindWindowSeed events (Parareal windows launched)
	WindowConverges int // KindWindowConverge events (windows past their gate)
	WindowRedos     int // KindWindowRedo events (windows redone from exact state)
}

// Replay recomputes the run counters from a recorded stream. On a complete
// (undropped) trace these reconcile exactly with the run's transient.Stats:
// Points, Solves, NRIters, LTERejects, Discarded and Recoveries match the
// fields of the same name.
func Replay(events []Event) ReplayCounts {
	var c ReplayCounts
	for _, ev := range events {
		switch ev.Kind {
		case KindAccept:
			c.Points++
		case KindSolve:
			c.Solves++
			c.NRIters += int(ev.Iters)
		case KindPredict:
			c.NRIters += int(ev.Iters)
		case KindLTEReject:
			c.LTERejects++
		case KindDiscard:
			c.Discarded++
		case KindRecovery:
			c.Recoveries++
		case KindSerialFallback:
			c.SerialFallbacks++
		case KindCancel:
			c.Cancels++
		case KindWindowSeed:
			c.WindowSeeds++
		case KindWindowConverge:
			c.WindowConverges++
		case KindWindowRedo:
			c.WindowRedos++
		case KindPhase:
			if ev.Phase == PhaseFactor && ev.Flags&FlagBypassed != 0 {
				c.BypassHits++
			}
			if ev.Phase == PhaseFactor && ev.Flags&FlagReused != 0 {
				c.ReuseHits++
			}
			if ev.Phase == PhaseDeviceLoad {
				c.BypassedEvals += int(ev.Iters)
				if ev.Flags&FlagLinearHit != 0 {
					c.LinearStampHits++
				}
			}
		}
	}
	return c
}
