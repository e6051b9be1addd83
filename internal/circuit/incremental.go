// Incremental MNA assembly: linear-stamp caching and SPICE3-style device
// bypass.
//
// Every Newton iteration at every (speculative or committed) time point
// normally re-evaluates all devices through per-device Eval interface calls.
// Two observations make most of that work redundant:
//
//  1. Linear devices (R, C, L, sources, controlled sources) contribute
//     Jacobian stamps that are constant and F/Q vectors that are exactly
//     J_F·x and J_Q·x. For a fixed Alpha0 their Jacobian contribution is a
//     constant template that can be copied instead of re-stamped.
//  2. Nonlinear devices frequently sit at unchanged operating points between
//     iterations and between adjacent pipeline points. When every
//     controlling voltage moved less than reltol·|v|+abstol since the last
//     evaluation, replaying the journaled stamp deltas is indistinguishable
//     from re-evaluating (the classic SPICE3 bypass).
//
// The engine has two halves. The per-System incBasis (built once, immutable,
// shared by all workspaces) holds the exact linear Jacobian split and the
// per-device stamp footprints. The per-Workspace incState holds the mutable
// template LRU and bypass journals, so concurrent WavePipe points never
// share device state: each pipeline lane owns an independent bypass/cache
// generation.
//
// Safety policy (see DESIGN.md):
//   - bypass is a two-stage test: the voltage tolerance AND the linearized
//     predicted-residual check (replayable) must both pass — voltage alone is
//     unsafe for exponential devices,
//   - a journal recorded under active junction limiting is not replayed,
//   - journals are keyed by (Alpha0 bits, Gmin bits, generation); any
//     step-size change or gmin ramp misses the key, and LTE rejections,
//     recovery actions, and adopted foreign state bump the generation,
//   - NoLimit bookkeeping loads and source-stepping loads always take the
//     plain path,
//   - a load with bypassed evaluations is never allowed to be the iteration
//     that declares convergence (enforced in internal/newton),
//   - the engine covers the serial load path only; pool-attached
//     workspaces are left untouched.
package circuit

import (
	"math"

	"wavepipe/internal/sparse"
)

// LinearStamper marks a device whose F and Q stamps are exactly linear in
// the iterate (F = J_F·x, Q = J_Q·x with constant Jacobians) and whose only
// time dependence, if any, lives in the source vector B. The returned flag
// reports whether the device stamps B at all: such devices (independent
// sources) are re-evaluated every load for their B contribution, while their
// constant Jacobian lives in the cached template.
//
// Implementing this interface is a correctness promise, not a hint: the
// finite-difference Jacobian tests in internal/device are the safety net.
type LinearStamper interface {
	LinearStamps() (timeVaryingB bool)
}

// DefaultBypassAbsTol is the absolute term of the bypass voltage test when
// the caller does not supply one (1 µV, the SPICE3 vntol default).
const DefaultBypassAbsTol = 1e-6

// DefaultBypassAbsCurrent is the absolute floor of the predicted-residual
// bypass guard (1 pA, the SPICE3 abstol default). The voltage test alone is
// unsafe for exponential devices — a 0.7 mV move on a conducting junction is
// a ~3% current change, enough to make Newton limit-cycle near convergence —
// so bypass additionally requires the linearized residual change to be
// negligible (the SPICE3 cdhat-vs-cd test).
const DefaultBypassAbsCurrent = 1e-12

// bypassMinNonlinear is the profitability gate of the device-bypass stage.
// A load whose converging iteration bypassed anything must be followed by a
// plain certification iteration (see internal/newton), which costs one full
// load+factor+solve per time point. Bypassing a handful of cheap device
// evaluations can never pay for that, so circuits with fewer nonlinear
// devices than this keep the linear-template layer but evaluate nonlinear
// devices plainly. Latency-rich digital circuits (tens to hundreds of
// mostly-quiescent transistors) clear the gate easily.
const bypassMinNonlinear = 16

// Dynamic profitability gate. The static device-count gate cannot see whether
// a circuit actually sits still: a busy circuit clears it yet bypasses so few
// evaluations per load that the certification loads dominate. The engine
// therefore accounts the realized bypass fraction over windows of
// bypassWindow loads (certification loads count against it — they are real
// cost); a window below bypassMinHitRate sends the workspace to the
// template-only path for bypassCooldown loads before probing again, so a
// circuit that quiets down later still gets its bypass wins.
const (
	bypassWindow     = 128
	bypassMinHitRate = 0.5
	bypassCooldown   = 2048
)

// templateWays is the associativity of the per-workspace linear template
// LRU. Variable-step runs revisit a handful of step sizes (and therefore
// Alpha0 values); four ways cover the trap/Gear alternation plus the halved
// and doubled neighbors without thrashing.
const templateWays = 4

// incBasis is the immutable Build-time half of the incremental engine,
// shared by every workspace of a System.
type incBasis struct {
	// jf and jq hold the exact linear dF/dx and dQ/dx: the split-assembly
	// probe routes AddJ into jf and AddJQ raw into jq, so the separation has
	// no finite-difference error. The Alpha0-blended template jf + α0·jq is
	// cached per workspace.
	jf, jq *sparse.Matrix

	// Compact forms of jf/jq: the full pattern is dominated by nonlinear
	// slots that are zero in both, so the template blend and the linear
	// F/Q rebuild iterate only the entries that exist. linPos/linJF/linJQ
	// drive the blend (tv[linPos[t]] = linJF[t] + α0·linJQ[t]); the
	// (row, col, value) triples drive the two matrix-vector products.
	linPos       []int
	linJF, linJQ []float64
	jfR, jfC     []int
	jfV          []float64
	jqR, jqC     []int
	jqV          []float64

	// sources lists linear devices with time-varying B (independent
	// sources); they are re-evaluated each load with their J/F/Q writes
	// routed into dump buffers so only B lands in the workspace.
	sources []int

	// nonlinear lists the device indices evaluated (or bypassed) each load.
	nonlinear []int

	// The remaining slices are indexed by global device index.
	canBypass []bool  // false when the device stamps B (time-varying)
	devSlots  [][]int // dedup'd Jacobian slots (journal footprint)
	devPos    [][]int // CSC position per devSlots entry (direct Values index)
	devRows   [][]int // dedup'd F/Q rows (journal footprint)
	devCols   [][]int // dedup'd controlling unknowns (bypass read set)
	devState0 []int   // first per-worker state slot
	devStates []int   // number of per-worker state slots

	// devSlotRow/devSlotCol map each dedup'd slot to the index of its
	// equation row within devRows and of its controlling unknown within
	// devCols; the predicted-residual bypass guard uses them to accumulate
	// Σ J[k]·Δv per row without touching global-sized scratch.
	devSlotRow [][]int
	devSlotCol [][]int

	// maxRows is the largest per-device row footprint, sizing the guard's
	// per-workspace accumulator.
	maxRows int
}

// incrementalBasis returns the System's incremental-assembly basis, building
// it on first use. Returns nil when the circuit does not support the engine
// (a device probe panicked). Safe for concurrent callers.
func (s *System) incrementalBasis() *incBasis {
	s.incOnce.Do(func() { s.inc = buildIncBasis(s) })
	return s.inc
}

// buildIncBasis probes the compiled circuit once and constructs the shared
// basis. Like buildColoring it bails out (returning nil) if any device
// panics during the probe, which simply disables the incremental engine.
func buildIncBasis(s *System) (basis *incBasis) {
	defer func() {
		if recover() != nil {
			basis = nil
		}
	}()
	devices := s.Circuit.devices
	nd := len(devices)
	if nd == 0 {
		return nil
	}
	// Mirror Build's Bind assignment to recover each device's state window.
	devState0 := make([]int, nd)
	devStates := make([]int, nd)
	st := 0
	for i, d := range devices {
		devState0[i] = st
		devStates[i] = d.States()
		st += devStates[i]
	}
	b := &incBasis{
		jf:         s.pattern.Clone(),
		jq:         s.pattern.Clone(),
		canBypass:  make([]bool, nd),
		devSlots:   make([][]int, nd),
		devPos:     make([][]int, nd),
		devRows:    make([][]int, nd),
		devCols:    make([][]int, nd),
		devSlotRow: make([][]int, nd),
		devSlotCol: make([][]int, nd),
		devState0:  devState0,
		devStates:  devStates,
	}
	n := s.N
	dumpF := make([]float64, n)
	dumpQ := make([]float64, n)
	dumpB := make([]float64, n)
	// Split probe at x = 0 for the linear devices: AddJ routes into jf and
	// AddJQ raw into jq (the mq routing used by AC assembly), giving an
	// exact J_F / J_Q separation with no finite-difference error. F, Q and
	// B writes are discarded — for a linear device F(0) = Q(0) = 0 and its
	// B contribution, if any, is re-stamped every load.
	linCtx := EvalCtx{
		X:         make([]float64, n),
		SrcScale:  1,
		FirstIter: true,
		NoLimit:   true,
		SPrev:     make([]float64, s.NumStates),
		SNext:     make([]float64, s.NumStates),
		m:         b.jf,
		mq:        b.jq,
		F:         dumpF,
		Q:         dumpQ,
		B:         dumpB,
	}
	// Recording probe for the nonlinear devices: capture the F/Q/B rows each
	// one writes, so rows never named in Reserve still enter its journal
	// footprint, and so B-stamping devices are barred from bypass.
	rec := &probeRecorder{}
	probeCtx := EvalCtx{
		X:         make([]float64, n),
		SrcScale:  1,
		FirstIter: true,
		NoLimit:   true,
		SPrev:     make([]float64, s.NumStates),
		SNext:     make([]float64, s.NumStates),
		m:         s.pattern.Clone(),
		F:         dumpF,
		Q:         dumpQ,
		B:         dumpB,
		rec:       rec,
	}
	seenRow := make([]int, n)
	seenCol := make([]int, n)
	seenSlot := make([]int, s.pattern.NNZ())
	var keptRows, keptCols []int
	for di, d := range devices {
		if ls, ok := d.(LinearStamper); ok && devStates[di] == 0 {
			d.Eval(&linCtx)
			if ls.LinearStamps() {
				b.sources = append(b.sources, di)
			}
			continue
		}
		// Nonlinear (or stateful) device: record its replay footprint.
		b.nonlinear = append(b.nonlinear, di)
		rec.rows, rec.bRows = rec.rows[:0], rec.bRows[:0]
		d.Eval(&probeCtx)
		b.canBypass[di] = len(rec.bRows) == 0
		// Dedup the Jacobian slots: devices may legitimately reserve the
		// same slot twice (the MOSFET's shared bulk-junction entries), and a
		// journal replay must add each delta exactly once.
		keptRows, keptCols = keptRows[:0], keptCols[:0]
		for k, slot := range s.devSlots[di] {
			if seenSlot[slot] != di+1 {
				seenSlot[slot] = di + 1
				b.devSlots[di] = append(b.devSlots[di], slot)
				b.devPos[di] = append(b.devPos[di], s.pattern.SlotPos(slot))
				keptRows = append(keptRows, s.devSlotRows[di][k])
				keptCols = append(keptCols, s.devSlotCols[di][k])
			}
		}
		for _, r := range append(s.devRows[di], rec.rows...) {
			if seenRow[r] != di+1 {
				seenRow[r] = di + 1
				b.devRows[di] = append(b.devRows[di], r)
			}
		}
		for _, c := range s.devCols[di] {
			if seenCol[c] != di+1 {
				seenCol[c] = di + 1
				b.devCols[di] = append(b.devCols[di], c)
			}
		}
		// Map each kept slot's (row, col) onto its index in the dedup'd
		// footprint; both are guaranteed present (a slot only exists when
		// row and col are non-Ground, and Reserve named both).
		b.devSlotRow[di] = make([]int, len(keptRows))
		b.devSlotCol[di] = make([]int, len(keptCols))
		for k, r := range keptRows {
			b.devSlotRow[di][k] = indexOf(b.devRows[di], r)
		}
		for k, c := range keptCols {
			b.devSlotCol[di][k] = indexOf(b.devCols[di], c)
		}
		if len(b.devRows[di]) > b.maxRows {
			b.maxRows = len(b.devRows[di])
		}
	}
	// Compress the linear split: record only the pattern entries where jf or
	// jq is nonzero, with (row, col, value) triples for the mat-vec products.
	for col := 0; col < n; col++ {
		m := b.jf
		for p := m.ColPtr[col]; p < m.ColPtr[col+1]; p++ {
			fv, qv := b.jf.Values[p], b.jq.Values[p]
			if fv == 0 && qv == 0 {
				continue
			}
			b.linPos = append(b.linPos, p)
			b.linJF = append(b.linJF, fv)
			b.linJQ = append(b.linJQ, qv)
			if fv != 0 {
				b.jfR = append(b.jfR, m.RowIdx[p])
				b.jfC = append(b.jfC, col)
				b.jfV = append(b.jfV, fv)
			}
			if qv != 0 {
				b.jqR = append(b.jqR, m.RowIdx[p])
				b.jqC = append(b.jqC, col)
				b.jqV = append(b.jqV, qv)
			}
		}
	}
	return b
}

// indexOf returns the position of v in xs. The footprints it searches are a
// handful of entries long, so a linear scan beats any map.
func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// devJournal is one nonlinear device's bypass cache: the controlling
// voltages at its last evaluation and the stamp deltas it wrote, replayable
// onto a freshly templated workspace.
type devJournal struct {
	valid               bool
	limited             bool // recorded under active junction limiting — never replayed
	gen                 uint64
	alphaBits, gminBits uint64
	v                   []float64 // controlling unknowns at capture (read set)
	jd                  []float64 // Jacobian slot deltas
	fd                  []float64 // F row deltas
	qd                  []float64 // Q row deltas
	st                  []float64 // per-worker state window written at capture
}

// tmplWay is one way of the linear-template LRU.
type tmplWay struct {
	valid     bool
	alphaBits uint64
	used      uint64
	values    []float64
}

// incState is the mutable per-workspace half of the incremental engine.
type incState struct {
	basis    *incBasis
	rel, abs float64

	// doBypass gates the device-bypass stage (journaling + replay); false
	// when the circuit has too few nonlinear devices for bypass to pay for
	// the plain certification iteration it forces at convergence. The
	// linear-template layer is unaffected.
	doBypass bool

	// gen is this workspace's bypass generation; bumping it invalidates
	// every journal at once (step rejections, recovery actions, adopted
	// foreign state).
	gen      uint64
	skipOnce bool // next eligible load takes the plain path (one-shot)

	stamp uint64 // LRU clock
	ways  [templateWays]tmplWay

	journals []devJournal

	// dump buffers absorb the J/F/Q writes of per-load source evaluations
	// (their constant stamps already live in the template); lazily
	// allocated, reused for the life of the workspace.
	dumpM        *sparse.Matrix
	dumpF, dumpQ []float64

	// pred accumulates the predicted per-row residual change during the
	// bypass guard; sized to the largest device footprint at enable time.
	pred []float64

	// Dynamic profitability accounting: bypassed evaluations within the
	// current window of loads, and the remaining plain-path loads of an
	// unprofitable window's cooldown.
	winLoads    int
	winBypassed int64
	coolLoads   int

	lastBypassed int
	lastLinear   bool

	bypassedEvals int64
	linearHits    int64
}

// SetDeviceBypass enables the incremental assembly engine on this workspace
// with the given relative voltage tolerance (typically the solver reltol).
// abs ≤ 0 selects DefaultBypassAbsTol; rel ≤ 0 disables the engine. Enabling
// is a no-op when the circuit does not support it (a Build-time probe
// failed), keeping the plain path in charge.
func (ws *Workspace) SetDeviceBypass(rel, abs float64) {
	if rel <= 0 {
		ws.inc = nil
		return
	}
	basis := ws.Sys.incrementalBasis()
	if basis == nil {
		ws.inc = nil
		return
	}
	if abs <= 0 {
		abs = DefaultBypassAbsTol
	}
	ws.inc = &incState{
		basis:    basis,
		rel:      rel,
		abs:      abs,
		doBypass: len(basis.nonlinear) >= bypassMinNonlinear,
		journals: make([]devJournal, len(ws.Sys.Circuit.devices)),
		pred:     make([]float64, basis.maxRows),
	}
}

// DeviceBypassEnabled reports whether the incremental engine is active.
func (ws *Workspace) DeviceBypassEnabled() bool { return ws.inc != nil }

// InvalidateDeviceBypass discards every device-bypass journal (the linear
// template survives — it depends only on Alpha0). Called after LTE
// rejections, recovery-ladder actions, history truncations, and whenever the
// workspace adopts foreign limiting state.
func (ws *Workspace) InvalidateDeviceBypass() {
	if ws.inc != nil {
		ws.inc.gen++
	}
}

// BypassGeneration returns the incremental engine's current generation
// counter (0 when device bypass is disabled). Checkpoints record it and
// regression tests assert that recovery-ladder escalations advance it.
func (ws *Workspace) BypassGeneration() uint64 {
	if ws.inc == nil {
		return 0
	}
	return ws.inc.gen
}

// RestoreBypassGeneration continues the generation counter from a
// checkpointed value. Journals are never serialized, so nothing can replay
// across a resume; restoring the counter only preserves its monotonicity
// for observability. Values at or below the current counter are ignored.
func (ws *Workspace) RestoreBypassGeneration(gen uint64) {
	if ws.inc != nil && gen > ws.inc.gen {
		ws.inc.gen = gen
	}
}

// DisableBypassOnce suppresses journal replay for the next eligible load:
// the assembly stays incremental (the linear template is exact) but every
// nonlinear device is fully evaluated and re-journaled. The Newton
// convergence guard uses it so a load with bypassed evaluations is never the
// iteration that declares convergence, and warm-start bookkeeping uses it to
// leave behind an exact full assembly.
func (ws *Workspace) DisableBypassOnce() {
	if ws.inc != nil {
		ws.inc.skipOnce = true
	}
}

// LastLoadBypassed returns how many device evaluations the most recent Load
// bypassed (0 when the engine is off or the load took the plain path).
func (ws *Workspace) LastLoadBypassed() int {
	if ws.inc == nil {
		return 0
	}
	return ws.inc.lastBypassed
}

// LastLoadLinearHit reports whether the most recent Load started from a
// cached linear template (an LRU hit).
func (ws *Workspace) LastLoadLinearHit() bool {
	if ws.inc == nil {
		return false
	}
	return ws.inc.lastLinear
}

// DeviceBypassCounters returns the cumulative incremental-assembly counters:
// bypassed device evaluations and linear-template LRU hits.
func (ws *Workspace) DeviceBypassCounters() (bypassedEvals, linearHits int64) {
	if ws.inc == nil {
		return 0, 0
	}
	return ws.inc.bypassedEvals, ws.inc.linearHits
}

// replayable runs the two-stage bypass test.
//
// Stage one is the classic SPICE3 voltage test: every controlling unknown
// must sit within rel·max(|v|,|v_journal|)+abs of its journaled value.
//
// Stage two mirrors SPICE3's cdhat-vs-cd check: even when every voltage
// passed, the *linearized* residual change Σ J[k]·Δv must be negligible
// against the device's journaled contribution on every row it stamps.
// Without it, a conducting junction (I ∝ e^(v/vt)) tolerates millivolt moves
// whose replayed-stamp error rivals the Newton convergence band, and the
// iteration limit-cycles.
//
// On success inc.pred holds the per-row predicted change (indexed like
// devRows[di]); the replay applies it as a first-order correction to the
// journaled F.
func (inc *incState) replayable(di int, j *devJournal, x []float64, alpha0 float64) bool {
	basis := inc.basis
	cols := basis.devCols[di]
	moved := false
	for k, c := range cols {
		r := j.v[k]
		v := x[c]
		d := v - r
		if d != 0 {
			moved = true
		}
		if d < 0 {
			d = -d
		}
		ar := r
		if ar < 0 {
			ar = -ar
		}
		av := v
		if av < 0 {
			av = -av
		}
		if ar > av {
			av = ar
		}
		if d > inc.rel*av+inc.abs {
			return false
		}
	}
	rows := basis.devRows[di]
	pred := inc.pred[:len(rows)]
	for i := range pred {
		pred[i] = 0
	}
	if !moved {
		// Exactly the journaled operating point: the prediction is zero and
		// the replay is exact.
		return true
	}
	slotRow, slotCol := basis.devSlotRow[di], basis.devSlotCol[di]
	for k := range basis.devSlots[di] {
		ci := slotCol[k]
		pred[slotRow[k]] += j.jd[k] * (x[cols[ci]] - j.v[ci])
	}
	for i, d := range pred {
		if d < 0 {
			d = -d
		}
		// jd was captured at the same Alpha0 (keyed by alphaBits), so the
		// blended reference fd + α0·qd is the residual contribution the
		// journal replays into row i.
		ref := j.fd[i] + alpha0*j.qd[i]
		if ref < 0 {
			ref = -ref
		}
		if d > inc.rel*ref+DefaultBypassAbsCurrent {
			return false
		}
	}
	return true
}

// template returns the Alpha0-blended linear template values, serving from
// the LRU when this Alpha0 was seen recently and otherwise evicting the
// least recently used way. Way buffers are allocated once and reused across
// evictions, so steady-state loads allocate nothing.
func (inc *incState) template(alpha0 float64) []float64 {
	bits := math.Float64bits(alpha0)
	inc.stamp++
	for w := range inc.ways {
		way := &inc.ways[w]
		if way.valid && way.alphaBits == bits {
			way.used = inc.stamp
			inc.lastLinear = true
			inc.linearHits++
			return way.values
		}
	}
	victim := &inc.ways[0]
	for w := 1; w < templateWays; w++ {
		if inc.ways[w].used < victim.used {
			victim = &inc.ways[w]
		}
	}
	basis := inc.basis
	if victim.values == nil {
		victim.values = make([]float64, basis.jf.NNZ())
	}
	tv := victim.values
	// Only entries with a linear contribution ever change; positions outside
	// linPos stay zero for the life of the way buffer.
	for t, p := range basis.linPos {
		tv[p] = basis.linJF[t] + alpha0*basis.linJQ[t]
	}
	victim.valid = true
	victim.alphaBits = bits
	victim.used = inc.stamp
	inc.lastLinear = false
	return tv
}

// loadIncremental assembles the system through the incremental engine.
// Returns false when this load must take the plain path (bookkeeping loads,
// source stepping, or a one-shot bypass suppression), leaving the workspace
// untouched.
func (ws *Workspace) loadIncremental(x []float64, p LoadParams) bool {
	inc := ws.inc
	// NoLimit bookkeeping loads must evaluate charges exactly at the
	// converged solution; source-stepping loads rescale B under the
	// template's feet. Both take the plain path.
	if p.NoLimit || p.SrcScale != 1 {
		return false
	}
	// A one-shot replay suppression still assembles incrementally — the
	// template and MulVec products are exact — but every nonlinear device is
	// fully evaluated (and journaled, so a certification load doubles as the
	// journal refresh at the converged point).
	replay := !inc.skipOnce
	inc.skipOnce = false
	basis := inc.basis
	// Linear layer: one memcpy of the blended template replaces re-stamping
	// every linear device, and the compact split triples rebuild the linear
	// part of F and Q without touching the nonlinear-dominated pattern.
	copy(ws.M.Values, inc.template(p.Alpha0))
	for i := range ws.F {
		ws.F[i] = 0
	}
	for t, r := range basis.jfR {
		ws.F[r] += basis.jfV[t] * x[basis.jfC[t]]
	}
	for i := range ws.Q {
		ws.Q[i] = 0
	}
	for t, r := range basis.jqR {
		ws.Q[r] += basis.jqV[t] * x[basis.jqC[t]]
	}
	for i := range ws.B {
		ws.B[i] = 0
	}
	devices := ws.Sys.Circuit.devices
	ctx := &ws.evalCtx
	*ctx = EvalCtx{
		X:         x,
		T:         p.Time,
		Alpha0:    p.Alpha0,
		Gmin:      p.Gmin,
		SrcScale:  p.SrcScale,
		FirstIter: p.FirstIter,
		NoLimit:   p.NoLimit,
		SPrev:     ws.SPrev,
		SNext:     ws.SNext,
		m:         ws.M,
		F:         ws.F,
		Q:         ws.Q,
		B:         ws.B,
	}
	if len(basis.sources) > 0 {
		// Independent sources re-stamp only B each load; their constant
		// Jacobian and F/Q contributions are already in the template and the
		// MulVec products, so those writes drain into dump buffers.
		if inc.dumpM == nil {
			inc.dumpM = ws.M.Clone()
			inc.dumpF = make([]float64, ws.Sys.N)
			inc.dumpQ = make([]float64, ws.Sys.N)
		}
		ctx.m, ctx.F, ctx.Q = inc.dumpM, inc.dumpF, inc.dumpQ
		for _, di := range basis.sources {
			devices[di].Eval(ctx)
		}
		ctx.m, ctx.F, ctx.Q = ws.M, ws.F, ws.Q
	}
	alphaBits := math.Float64bits(p.Alpha0)
	gminBits := math.Float64bits(p.Gmin)
	bypassed := 0
	limited := false
	if !inc.doBypass || inc.coolLoads > 0 {
		// Below the profitability gate, or cooling down after an unprofitable
		// accounting window: evaluate nonlinear devices plainly (no
		// journaling, no replay) on top of the templated linear layer.
		if inc.coolLoads > 0 {
			inc.coolLoads--
		}
		for _, di := range basis.nonlinear {
			devices[di].Eval(ctx)
		}
		ws.Limited = ctx.Limited
		inc.lastBypassed = 0
		if p.NodeGmin > 0 {
			for i, slot := range ws.Sys.diagSlots {
				ws.M.Add(slot, p.NodeGmin)
				ws.F[i] += p.NodeGmin * x[i]
			}
		}
		ws.applyClamps(x, p)
		ws.injectLoadFault(p)
		return true
	}
	for _, di := range basis.nonlinear {
		j := &inc.journals[di]
		cols := basis.devCols[di]
		if replay && basis.canBypass[di] && j.valid && !j.limited &&
			j.gen == inc.gen && j.alphaBits == alphaBits && j.gminBits == gminBits &&
			inc.replayable(di, j, x, p.Alpha0) {
			// Bypass: replay the journaled stamp deltas and state. The F
			// replay is corrected to first order with the Σ J[k]·Δv terms
			// replayable just accumulated in inc.pred — a frozen residual
			// would stall Newton inside the tolerance ball (Δx stops
			// shrinking once the residual stops responding to x), while the
			// linearized replay is a consistent model Newton contracts on.
			mv := ws.M.Values
			for k, pos := range basis.devPos[di] {
				mv[pos] += j.jd[k]
			}
			for k, r := range basis.devRows[di] {
				ws.F[r] += j.fd[k] + inc.pred[k]
				ws.Q[r] += j.qd[k]
			}
			s0 := basis.devState0[di]
			for k, v := range j.st {
				ws.SNext[s0+k] = v
			}
			bypassed++
			continue
		}
		// Capture: snapshot the device's footprint, evaluate, journal the
		// deltas for later replay.
		pos := basis.devPos[di]
		rows := basis.devRows[di]
		if j.jd == nil {
			j.jd = make([]float64, len(pos))
			j.fd = make([]float64, len(rows))
			j.qd = make([]float64, len(rows))
			j.st = make([]float64, basis.devStates[di])
			j.v = make([]float64, len(cols))
		}
		mv := ws.M.Values
		for k, pp := range pos {
			j.jd[k] = mv[pp]
		}
		for k, r := range rows {
			j.fd[k] = ws.F[r]
			j.qd[k] = ws.Q[r]
		}
		ctx.Limited = false
		devices[di].Eval(ctx)
		j.limited = ctx.Limited
		limited = limited || ctx.Limited
		for k, pp := range pos {
			j.jd[k] = mv[pp] - j.jd[k]
		}
		for k, r := range rows {
			j.fd[k] = ws.F[r] - j.fd[k]
			j.qd[k] = ws.Q[r] - j.qd[k]
		}
		s0 := basis.devState0[di]
		for k := range j.st {
			j.st[k] = ws.SNext[s0+k]
		}
		for k, c := range cols {
			j.v[k] = x[c]
		}
		j.alphaBits, j.gminBits, j.gen = alphaBits, gminBits, inc.gen
		j.valid = true
	}
	ws.Limited = limited
	inc.lastBypassed = bypassed
	inc.bypassedEvals += int64(bypassed)
	inc.winBypassed += int64(bypassed)
	if inc.winLoads++; inc.winLoads >= bypassWindow {
		if float64(inc.winBypassed) < bypassMinHitRate*float64(bypassWindow)*float64(len(basis.nonlinear)) {
			inc.coolLoads = bypassCooldown
		}
		inc.winLoads, inc.winBypassed = 0, 0
	}
	if p.NodeGmin > 0 {
		for i, slot := range ws.Sys.diagSlots {
			ws.M.Add(slot, p.NodeGmin)
			ws.F[i] += p.NodeGmin * x[i]
		}
	}
	ws.applyClamps(x, p)
	ws.injectLoadFault(p)
	return true
}
