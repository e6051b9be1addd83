// Package circuit provides the modified-nodal-analysis (MNA) backbone: node
// and branch bookkeeping, the Device stamping contract, and compiled Systems
// with per-worker evaluation Workspaces.
//
// The circuit DAE is kept in the residual form
//
//	R(x, t) = F(x) + d/dt Q(x) − B(t) = 0
//
// where x stacks node voltages and branch currents, F collects static
// (resistive) currents, Q collects charges and fluxes, and B collects
// source terms. Devices stamp F, Q, B and the Jacobians dF/dx and dQ/dx;
// the integration engines replace d/dt Q by a discretization
// Alpha0·Q(x) + (history terms) and solve with Newton's method.
package circuit

import (
	"fmt"
	"math"
	"sync"

	"wavepipe/internal/faults"
	"wavepipe/internal/sched"
	"wavepipe/internal/sparse"
	"wavepipe/internal/trace"
)

// Ground is the node index of the reference node. Stamps addressed to
// Ground are discarded.
const Ground = -1

// Device is the contract every circuit element implements. Devices must be
// stateless with respect to Eval: per-instance mutable state (junction
// limiting history) lives in the per-worker state slices of the EvalCtx, at
// offsets assigned through Bind. This is what makes concurrent evaluation
// of the same circuit at different time points safe.
type Device interface {
	// Name returns the instance name (for example "R12" or "M3").
	Name() string
	// Branches returns how many extra current unknowns the device needs.
	Branches() int
	// States returns how many per-worker state slots the device needs.
	States() int
	// Bind tells the device the base index of its branch unknowns (an
	// absolute index into the solution vector) and of its state slots.
	Bind(branch0, state0 int)
	// Reserve registers all Jacobian pattern slots the device will write.
	Reserve(r *Reserver)
	// Eval accumulates the device contribution at the iterate in ctx.
	Eval(ctx *EvalCtx)
}

// Circuit is a netlist under construction: a set of named nodes and device
// instances. Build compiles it into a System.
type Circuit struct {
	Title     string
	nodeNames []string
	nodeIndex map[string]int
	devices   []Device
}

// New returns an empty circuit.
func New(title string) *Circuit {
	return &Circuit{Title: title, nodeIndex: make(map[string]int)}
}

// Node returns the index for the named node, creating it on first use.
// The names "0", "gnd" and "GND" denote the ground node.
func (c *Circuit) Node(name string) int {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground
	}
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIndex[name] = i
	return i
}

// FindNode returns the index of a previously created node.
func (c *Circuit) FindNode(name string) (int, bool) {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground, true
	}
	i, ok := c.nodeIndex[name]
	return i, ok
}

// NodeName returns the name of node i (or "0" for Ground).
func (c *Circuit) NodeName(i int) string {
	if i == Ground {
		return "0"
	}
	return c.nodeNames[i]
}

// NumNodes returns the number of non-ground nodes created so far.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// Add appends a device instance.
func (c *Circuit) Add(d Device) { c.devices = append(c.devices, d) }

// Devices returns the device instances (shared slice; do not mutate).
func (c *Circuit) Devices() []Device { return c.devices }

// Build compiles the circuit: assigns branch and state indices, reserves
// the Jacobian pattern and freezes it into a System.
func (c *Circuit) Build() (*System, error) {
	if len(c.devices) == 0 {
		return nil, fmt.Errorf("circuit %q: no devices", c.Title)
	}
	numNodes := len(c.nodeNames)
	branch := numNodes
	state := 0
	for _, d := range c.devices {
		d.Bind(branch, state)
		branch += d.Branches()
		state += d.States()
	}
	n := branch
	b := sparse.NewBuilder(n)
	r := &Reserver{
		b:           b,
		devRows:     make([][]int, len(c.devices)),
		devSlots:    make([][]int, len(c.devices)),
		devCols:     make([][]int, len(c.devices)),
		devSlotRows: make([][]int, len(c.devices)),
		devSlotCols: make([][]int, len(c.devices)),
	}
	for i, d := range c.devices {
		r.current, r.devIdx = d, i
		d.Reserve(r)
	}
	// Reserve every diagonal so gmin continuation can always shunt node
	// rows, and so the structural pattern never loses diagonals.
	diag := make([]int, numNodes)
	for i := 0; i < numNodes; i++ {
		diag[i] = b.Reserve(i, i)
	}
	m := b.Compile()
	// Detect completely floating nodes: a node row with only its reserved
	// diagonal and no device stamp is almost certainly a netlist error.
	touched := make([]bool, n)
	for _, rc := range r.touchedRows {
		if rc >= 0 {
			touched[rc] = true
		}
	}
	for i := 0; i < numNodes; i++ {
		if !touched[i] {
			return nil, fmt.Errorf("circuit %q: node %q has no device connected", c.Title, c.nodeNames[i])
		}
	}
	return &System{
		Circuit:      c,
		N:            n,
		NumNodes:     numNodes,
		NumBranches:  n - numNodes,
		NumStates:    state,
		pattern:      m,
		diagSlots:    diag,
		colorClasses: buildColoring(c, m, n, state, r.devRows),
		devSlots:     r.devSlots,
		devCols:      r.devCols,
		devRows:      r.devRows,
		devSlotRows:  r.devSlotRows,
		devSlotCols:  r.devSlotCols,
	}, nil
}

// Reserver hands out Jacobian pattern slots during Build. In lookup mode
// (BindLanes) it resolves slots against a frozen host pattern instead of a
// Builder, recording the first miss as a structural-mismatch error.
type Reserver struct {
	b           *sparse.Builder
	lookup      *sparse.Matrix
	lookupErr   error
	current     Device
	devIdx      int
	devRows     [][]int // per-device rows named in J calls (coloring footprint)
	devSlots    [][]int // per-device Jacobian slots (incremental-assembly footprint)
	devCols     [][]int // per-device columns named in J calls (bypass read set)
	devSlotRows [][]int // row index per devSlots entry (aligned 1:1 with devSlots)
	devSlotCols [][]int // column index per devSlots entry (aligned 1:1 with devSlots)
	touchedRows []int
}

// J reserves the Jacobian slot (row, col) and returns its id, or -1 when
// either index is Ground (stamps to -1 are discarded at Eval time).
func (r *Reserver) J(row, col int) int {
	if row != Ground {
		r.devRows[r.devIdx] = append(r.devRows[r.devIdx], row)
	}
	if col != Ground {
		r.devCols[r.devIdx] = append(r.devCols[r.devIdx], col)
	}
	if row == Ground || col == Ground {
		return -1
	}
	r.touchedRows = append(r.touchedRows, row)
	if r.lookup != nil {
		slot := r.lookup.SlotAt(row, col)
		if slot < 0 && r.lookupErr == nil {
			r.lookupErr = fmt.Errorf("stamp (%d,%d) not in host pattern", row, col)
		}
		r.devSlots[r.devIdx] = append(r.devSlots[r.devIdx], slot)
		r.devSlotRows[r.devIdx] = append(r.devSlotRows[r.devIdx], row)
		r.devSlotCols[r.devIdx] = append(r.devSlotCols[r.devIdx], col)
		return slot
	}
	slot := r.b.Reserve(row, col)
	r.devSlots[r.devIdx] = append(r.devSlots[r.devIdx], slot)
	r.devSlotRows[r.devIdx] = append(r.devSlotRows[r.devIdx], row)
	r.devSlotCols[r.devIdx] = append(r.devSlotCols[r.devIdx], col)
	return slot
}

// System is a compiled circuit: a frozen Jacobian pattern plus the device
// list. A System is immutable and safe to share across workers; all mutable
// evaluation state lives in Workspaces.
type System struct {
	Circuit     *Circuit
	N           int // total unknowns (nodes + branches)
	NumNodes    int
	NumBranches int
	NumStates   int

	pattern   *sparse.Matrix
	diagSlots []int

	// colorClasses partitions the device indices into write-conflict-free
	// classes (see colored.go); nil when Build could not produce a coloring
	// (a device probe panicked) and the colored load path is unavailable.
	colorClasses [][]int

	// colPerm caches the fill-reducing column ordering of the Jacobian
	// pattern. The pattern never changes after Build, so every workspace's
	// solver shares one ordering instead of recomputing it — the ordering
	// is by far the most allocation-heavy step of a full factorization.
	colPermOnce sync.Once
	colPerm     []int

	// devSlots/devCols/devRows record, per device, the Jacobian slots, the
	// columns (controlling unknowns), and the rows it named in Reserve. The
	// incremental assembly engine turns them into the dedup'd stamp
	// footprints it journals and replays (see incremental.go).
	devSlots [][]int
	devCols  [][]int
	devRows  [][]int
	// devSlotRows/devSlotCols give the (row, col) coordinates of each
	// devSlots entry, aligned index-for-index. The bypass engine's
	// predicted-residual guard needs them to map a Jacobian slot back to
	// the equation row it perturbs and the unknown it is controlled by.
	devSlotRows [][]int
	devSlotCols [][]int

	// inc caches the Build-time incremental-assembly basis (linear stamp
	// template + per-device footprints); built lazily on the first workspace
	// that enables device bypass, nil when the circuit does not support it.
	incOnce sync.Once
	inc     *incBasis

	// reduced records how this System was derived from a larger circuit by
	// the parasitic-reduction pass (nil when built directly); see reduced.go.
	reduced *ReducedInfo
}

// fillOrdering returns the shared fill-reducing ordering, computing it on
// first use. Safe for concurrent callers. The computation goes through the
// sparse-level ordering cache, so sequential Builds of an identical deck
// (and the lanes of an ensemble) reuse one minimum-degree analysis instead
// of recomputing it per System.
func (s *System) fillOrdering() []int {
	s.colPermOnce.Do(func() {
		s.colPerm = sparse.SharedOrdering(s.pattern, sparse.OrderMinDegree)
	})
	return s.colPerm
}

// Prewarm eagerly computes the lazily derived artifacts that every run of
// this System shares — today the fill-reducing column ordering (the coloring
// and device footprints are already fixed at Build). The artifact cache
// calls it on insert so a cache hit skips straight to timestepping without
// paying the symbolic analysis on its first factorization.
func (s *System) Prewarm() { s.fillOrdering() }

// ColorClasses returns the conflict-free device classes computed at Build
// time (nil when unavailable). The outer slice is indexed by color; do not
// mutate.
func (s *System) ColorClasses() [][]int { return s.colorClasses }

// PatternNNZ returns the structural nonzero count of the MNA pattern. It is
// part of the circuit fingerprint durable checkpoints validate on resume.
func (s *System) PatternNNZ() int { return s.pattern.NNZ() }

// Workspace owns the mutable buffers one worker needs to assemble and solve
// the circuit equations: a value clone of the Jacobian, the F/Q/B vectors,
// the nonlinear limiting state, and a sparse solver with its reusable
// factorization.
type Workspace struct {
	Sys    *System
	M      *sparse.Matrix
	Solver *sparse.Solver
	F      []float64 // static currents
	Q      []float64 // charges / fluxes
	B      []float64 // source terms
	SPrev  []float64 // limiting state: previous Newton iterate
	SNext  []float64 // limiting state: current Newton iterate
	// Limited reports whether any device clamped its controlling voltage
	// during the last Load. An iterate produced under active limiting must
	// not be declared converged (the linearization is not the true model).
	Limited bool

	// MC holds dQ/dx after LoadSplit (AC analysis); nil until first use.
	MC *sparse.Matrix

	// Faults is the per-run fault-injection harness (nil in production
	// runs — every check site is nil-safe). It is shared by all solver
	// layers operating on this workspace.
	Faults *faults.Injector

	// Abort is the run's cooperative stop flag (nil in unguarded runs —
	// every poll site is nil-safe). The Newton loop polls it once per
	// iteration so a tripped deadline or watchdog interrupts even a hung
	// solve at the next iteration boundary.
	Abort *faults.Abort

	// Trace is the run's event stream (nil when no observer is attached —
	// every emission site is nil-safe, costing one pointer test). Worker
	// identifies this workspace's lane in the trace (-1 when the run is
	// serial / unattributed).
	Trace  *trace.Tracer
	Worker int16

	// ForceParallelLoad makes the colored load spawn real worker goroutines
	// even on a single-CPU host, where it would otherwise run the color
	// classes serially (identical results, no spinning). Race tests use it to
	// exercise the concurrent path regardless of GOMAXPROCS.
	ForceParallelLoad bool

	// devs, when non-nil, overrides the device list the serial assembly
	// paths evaluate (see SetDevices in lanes.go — ensemble lane variants).
	devs []Device

	loadWorkers int
	loadMode    LoadMode
	shards      []*shard
	pool        *sched.Pool
	evalCtx     EvalCtx   // pooled context for the serial load path
	wctx        []EvalCtx // pooled per-worker contexts for the colored path
	colorBar    sched.Barrier
	iterSave    []float64 // pooled copy of the Newton iterate (bypass guard)

	// inc holds the per-workspace incremental-assembly state (linear stamp
	// template LRU + per-device bypass journals); nil unless SetDeviceBypass
	// enabled it. Each workspace owns an independent copy, so concurrent
	// pipeline points never share mutable device-bypass state.
	inc *incState
}

// SetPool attaches a gang pool (see internal/sched) to the workspace: device
// loads run across the pool's workers using the Build-time color classes,
// and the sparse solver executes its level-scheduled LU kernels on the same
// gang. The pool's width becomes the load worker count. The caller keeps
// ownership and must Close the pool when the run ends; a nil pool detaches.
//
// Unlike SetLoadWorkers, attaching a pool never allocates the sharded
// matrix clones: when the coloring is unprofitable the load simply stays
// serial, which keeps results independent of the gang width (colored stamps
// are bit-identical across worker counts; sharded reductions are not).
func (ws *Workspace) SetPool(p *sched.Pool) {
	ws.pool = p
	ws.Solver.Sched = p
	if p.Workers() > 1 {
		ws.loadWorkers = p.Workers()
	} else if ws.shards == nil {
		ws.loadWorkers = 1
	}
}

// Pool returns the attached gang pool (nil when serial).
func (ws *Workspace) Pool() *sched.Pool { return ws.pool }

// SaveIterate stashes a copy of the iterate in a pooled workspace buffer.
// The Newton factorization-bypass guard uses it to rewind a quasi-Newton
// step and redo it against a fresh factorization before accepting.
func (ws *Workspace) SaveIterate(x []float64) {
	if ws.iterSave == nil {
		ws.iterSave = make([]float64, ws.Sys.N)
	}
	copy(ws.iterSave, x)
}

// RestoreIterate copies the last SaveIterate snapshot back into x.
func (ws *Workspace) RestoreIterate(x []float64) {
	copy(x, ws.iterSave)
}

// NewWorkspace allocates a workspace (one per concurrent worker).
func (s *System) NewWorkspace() *Workspace {
	m := s.pattern.Clone()
	sol := sparse.NewSolver(m, sparse.OrderMinDegree)
	sol.ColPerm = s.fillOrdering()
	return &Workspace{
		Sys:    s,
		M:      m,
		Solver: sol,
		F:      make([]float64, s.N),
		Q:      make([]float64, s.N),
		B:      make([]float64, s.N),
		SPrev:  make([]float64, s.NumStates),
		SNext:  make([]float64, s.NumStates),
		Worker: -1,
	}
}

// LoadParams bundles the knobs of one assembly pass.
type LoadParams struct {
	Time      float64 // waveform evaluation time
	Alpha0    float64 // d/dt Q ≈ Alpha0·Q(x) + history (0 for DC)
	Gmin      float64 // junction + node-diagonal shunt conductance
	NodeGmin  float64 // extra conductance added on every node diagonal (gmin stepping)
	SrcScale  float64 // source scaling in [0,1] (source stepping); 1 = full
	FirstIter bool    // first Newton iteration at this point (limiting seed)
	// NoLimit disables junction-voltage limiting: post-convergence
	// bookkeeping loads must evaluate charges at the exact solution, not a
	// clamped voltage (the per-worker limiting state may be stale there).
	NoLimit bool
	// ClampIdx/ClampV/ClampG pull the listed node unknowns toward target
	// voltages through a conductance ClampG — the mechanism behind
	// .NODESET's first operating-point pass.
	ClampIdx []int
	ClampV   []float64
	ClampG   float64
}

// Load assembles the Jacobian (dF/dx + Alpha0·dQ/dx) and the F, Q, B
// vectors at iterate x.
func (ws *Workspace) Load(x []float64, p LoadParams) {
	if inc := ws.inc; inc != nil {
		// Incremental assembly covers the serial path only (the profitability
		// policy in incremental.go); each WavePipe lane loads serially inside
		// its own workspace, so this is the common pipeline configuration.
		if ws.loadWorkers <= 1 && ws.loadIncremental(x, p) {
			return
		}
		inc.lastBypassed, inc.lastLinear = 0, false
	}
	if ws.loadWorkers > 1 {
		if ws.useColored() {
			ws.loadColored(x, p)
			return
		}
		if len(ws.shards) > 0 {
			ws.loadParallel(x, p)
			return
		}
		// Pool-attached workspace whose coloring is unprofitable: the sharded
		// clones were never allocated, so assemble serially below.
	}
	ws.M.Zero()
	for i := range ws.F {
		ws.F[i] = 0
		ws.Q[i] = 0
		ws.B[i] = 0
	}
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
	for _, d := range ws.deviceList() {
		d.Eval(ctx)
	}
	ws.Limited = ctx.Limited
	if p.NodeGmin > 0 {
		for i, slot := range ws.Sys.diagSlots {
			ws.M.Add(slot, p.NodeGmin)
			ws.F[i] += p.NodeGmin * x[i]
		}
	}
	ws.applyClamps(x, p)
	ws.injectLoadFault(p)
}

// injectLoadFault applies a scheduled assembly fault (tests only; Faults is
// nil otherwise). Bookkeeping loads (NoLimit) are spared: poisoning the
// post-convergence charge load would corrupt the integration history behind
// the recovery machinery's back instead of failing the solve in front of it.
func (ws *Workspace) injectLoadFault(p LoadParams) {
	if ws.Faults == nil || p.NoLimit {
		return
	}
	if cls, ok := ws.Faults.At(faults.SiteLoad, p.Time); ok && cls == faults.NonFinite {
		ws.F[0] = math.NaN()
	}
}

// applyClamps adds the .NODESET clamp conductances.
func (ws *Workspace) applyClamps(x []float64, p LoadParams) {
	if p.ClampG <= 0 {
		return
	}
	for k, i := range p.ClampIdx {
		if i < 0 || i >= ws.Sys.NumNodes {
			continue
		}
		ws.M.Add(ws.Sys.diagSlots[i], p.ClampG)
		ws.F[i] += p.ClampG * (x[i] - p.ClampV[k])
	}
}

// LoadSplit assembles dF/dx into M and dQ/dx into MC separately at the
// iterate x — the small-signal linearization AC analysis needs. Unlike
// Load it never folds Alpha0 into the Jacobian.
func (ws *Workspace) LoadSplit(x []float64, p LoadParams) {
	if ws.MC == nil {
		ws.MC = ws.M.Clone()
	}
	ws.M.Zero()
	ws.MC.Zero()
	for i := range ws.F {
		ws.F[i] = 0
		ws.Q[i] = 0
		ws.B[i] = 0
	}
	ctx := &ws.evalCtx
	*ctx = EvalCtx{
		X:         x,
		T:         p.Time,
		Alpha0:    0,
		Gmin:      p.Gmin,
		SrcScale:  p.SrcScale,
		FirstIter: p.FirstIter,
		SPrev:     ws.SPrev,
		SNext:     ws.SNext,
		m:         ws.M,
		mq:        ws.MC,
		F:         ws.F,
		Q:         ws.Q,
		B:         ws.B,
	}
	for _, d := range ws.deviceList() {
		d.Eval(ctx)
	}
	ws.Limited = ctx.Limited
	if p.NodeGmin > 0 {
		for i, slot := range ws.Sys.diagSlots {
			ws.M.Add(slot, p.NodeGmin)
			ws.F[i] += p.NodeGmin * x[i]
		}
	}
}

// ACSource is implemented by independent sources that carry a small-signal
// (AC) stimulus specification.
type ACSource interface {
	// StampAC accumulates the complex stimulus into the AC right-hand side.
	StampAC(b []complex128)
}

// Residual writes R = F + Alpha0·Q + qhist − B into r. qhist may be nil
// (DC analyses). r must have length N.
func (ws *Workspace) Residual(alpha0 float64, qhist, r []float64) {
	for i := range r {
		r[i] = ws.F[i] + alpha0*ws.Q[i] - ws.B[i]
	}
	if qhist != nil {
		for i := range r {
			r[i] += qhist[i]
		}
	}
}

// FlipState makes the state written by the last Eval pass the "previous"
// state for the next Newton iteration.
func (ws *Workspace) FlipState() {
	ws.SPrev, ws.SNext = ws.SNext, ws.SPrev
}

// CopyStateFrom copies the limiting state of another workspace (used when a
// speculative worker adopts the state of the worker whose point it follows).
// Adopting foreign state invalidates any device-bypass journals recorded
// against this workspace's own history.
func (ws *Workspace) CopyStateFrom(other *Workspace) {
	copy(ws.SPrev, other.SPrev)
	copy(ws.SNext, other.SNext)
	ws.InvalidateDeviceBypass()
}

// EvalCtx is the device evaluation context for one assembly pass.
type EvalCtx struct {
	X         []float64
	T         float64
	Alpha0    float64
	Gmin      float64
	SrcScale  float64
	FirstIter bool
	NoLimit   bool
	SPrev     []float64
	SNext     []float64

	m  *sparse.Matrix
	mq *sparse.Matrix // non-nil during split (G/C) assembly
	F  []float64
	Q  []float64
	B  []float64

	// rec is non-nil only during the Build-time coloring probe; it records
	// every F/Q/B row a device writes so rows that were never named in
	// Reserve (current sources stamp B without reserving Jacobian slots)
	// still enter the device's conflict footprint.
	rec *probeRecorder

	// Limited is set by devices that clamp a controlling voltage (for
	// example pn-junction limiting); it blocks convergence this iteration.
	Limited bool
}

// V returns the voltage of node i (0 for Ground). For branch unknowns it
// returns the branch current.
func (e *EvalCtx) V(i int) float64 {
	if i == Ground {
		return 0
	}
	return e.X[i]
}

// AddJ accumulates a static-Jacobian (dF/dx) entry. slot -1 is discarded.
func (e *EvalCtx) AddJ(slot int, v float64) {
	if slot >= 0 {
		e.m.Add(slot, v)
	}
}

// AddJQ accumulates a reactive-Jacobian (dQ/dx) entry, scaled by Alpha0 —
// or routed unscaled into the separate C matrix during a split assembly
// (AC analysis).
func (e *EvalCtx) AddJQ(slot int, v float64) {
	if slot < 0 {
		return
	}
	if e.mq != nil {
		e.mq.Add(slot, v)
		return
	}
	e.m.Add(slot, e.Alpha0*v)
}

// AddF accumulates a static current into row i. Ground rows are discarded.
func (e *EvalCtx) AddF(i int, v float64) {
	if i != Ground {
		if e.rec != nil {
			e.rec.note(i)
		}
		e.F[i] += v
	}
}

// AddQ accumulates a charge/flux into row i.
func (e *EvalCtx) AddQ(i int, v float64) {
	if i != Ground {
		if e.rec != nil {
			e.rec.note(i)
		}
		e.Q[i] += v
	}
}

// AddB accumulates a source term into row i, scaled by SrcScale.
func (e *EvalCtx) AddB(i int, v float64) {
	if i != Ground {
		if e.rec != nil {
			e.rec.noteB(i)
		}
		e.B[i] += e.SrcScale * v
	}
}
