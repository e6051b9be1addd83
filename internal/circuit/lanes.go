package circuit

import (
	"fmt"

	"wavepipe/internal/sparse"
)

// Lane support: the ensemble engine runs K parameter-variants of one
// topology in lockstep. All lanes share the host System's symbolic work —
// the compiled Jacobian pattern, the fill-reducing ordering, and the LU
// level schedules keyed by that pattern — while each lane owns a value
// clone of the matrix and its own F/Q/B/limiting buffers, all carved from
// contiguous struct-of-arrays blocks strided by lane.
//
// The invariants that make sharing sound:
//   - BindLanes only succeeds for circuits structurally identical to the
//     host (same node names in order, same device sequence with the same
//     branch/state arity, same Reserve footprint), so every lane device
//     holds slot ids valid on any clone of the host pattern.
//   - Lane workspaces assemble serially (no pool, no device bypass), so
//     per-lane results are bit-identical to a serial run of the same
//     variant.

// SetDevices overrides the device list this workspace's serial assembly
// paths evaluate, so a lane workspace compiled against the host pattern
// stamps its own variant's device instances. Only the serial Load/LoadSplit
// paths honor the override; parallel loads and the incremental engine index
// the host System's devices and must not be combined with it (NewLaneWorkspaces
// never enables them). A nil devs restores the host circuit's devices.
func (ws *Workspace) SetDevices(devs []Device) { ws.devs = devs }

// deviceList returns the devices the serial assembly paths iterate.
func (ws *Workspace) deviceList() []Device {
	if ws.devs != nil {
		return ws.devs
	}
	return ws.Sys.Circuit.devices
}

// BindLanes binds a structurally identical variant circuit against this
// System's frozen Jacobian pattern: devices receive the same branch/state
// bases the host's Build assigned, and their Reserve calls are replayed
// through a slot lookup on the host pattern instead of a fresh Builder. On
// success every device in c holds slot ids valid on any clone of the host
// pattern; on mismatch (different nodes, device sequence, arity, or stamp
// footprint) an error identifies the first divergence and c's devices are
// left bound to possibly inconsistent indices — discard the circuit.
func (s *System) BindLanes(c *Circuit) error {
	host := s.Circuit
	if len(c.devices) != len(host.devices) {
		return fmt.Errorf("circuit %q: lane has %d devices, host %q has %d",
			c.Title, len(c.devices), host.Title, len(host.devices))
	}
	if len(c.nodeNames) != s.NumNodes {
		return fmt.Errorf("circuit %q: lane has %d nodes, host has %d",
			c.Title, len(c.nodeNames), s.NumNodes)
	}
	for i, name := range c.nodeNames {
		if host.nodeNames[i] != name {
			return fmt.Errorf("circuit %q: node %d is %q, host has %q",
				c.Title, i, name, host.nodeNames[i])
		}
	}
	branch := s.NumNodes
	state := 0
	for i, d := range c.devices {
		h := host.devices[i]
		if d.Name() != h.Name() || d.Branches() != h.Branches() || d.States() != h.States() {
			return fmt.Errorf("circuit %q: device %d is %s(br=%d,st=%d), host has %s(br=%d,st=%d)",
				c.Title, i, d.Name(), d.Branches(), d.States(), h.Name(), h.Branches(), h.States())
		}
		d.Bind(branch, state)
		branch += d.Branches()
		state += d.States()
	}
	if branch != s.N || state != s.NumStates {
		return fmt.Errorf("circuit %q: lane binds %d unknowns/%d states, host has %d/%d",
			c.Title, branch, state, s.N, s.NumStates)
	}
	r := &Reserver{
		lookup:      s.pattern,
		devRows:     make([][]int, len(c.devices)),
		devSlots:    make([][]int, len(c.devices)),
		devCols:     make([][]int, len(c.devices)),
		devSlotRows: make([][]int, len(c.devices)),
		devSlotCols: make([][]int, len(c.devices)),
	}
	for i, d := range c.devices {
		r.current, r.devIdx = d, i
		d.Reserve(r)
		if r.lookupErr != nil {
			return fmt.Errorf("circuit %q: device %s: %w", c.Title, d.Name(), r.lookupErr)
		}
	}
	return nil
}

// NewLaneWorkspaces allocates k workspaces whose mutable buffers stride
// contiguous struct-of-arrays blocks: one K·nnz value block behind the K
// matrix clones, one K·3N block behind F/Q/B, and one K·2·NumStates block
// behind the limiting state. Lane i's slices are adjacent in memory so
// lockstep assembly stays cache-friendly across lanes. Each workspace's
// solver shares the System's fill ordering; Worker is set to the lane index
// for trace attribution. The caller typically follows up with SetDevices to
// point each lane at its variant's device instances.
func (s *System) NewLaneWorkspaces(k int) []*Workspace {
	nnz := s.pattern.NNZ()
	n := s.N
	ns := s.NumStates
	vals := make([]float64, k*nnz)
	vecs := make([]float64, k*3*n)
	states := make([]float64, k*2*ns)
	lanes := make([]*Workspace, k)
	for i := 0; i < k; i++ {
		m := s.pattern.CloneWithValues(vals[i*nnz : (i+1)*nnz : (i+1)*nnz])
		sol := sparse.NewSolver(m, sparse.OrderMinDegree)
		sol.ColPerm = s.fillOrdering()
		vb := vecs[i*3*n : (i+1)*3*n]
		sb := states[i*2*ns : (i+1)*2*ns]
		lanes[i] = &Workspace{
			Sys:    s,
			M:      m,
			Solver: sol,
			F:      vb[0:n:n],
			Q:      vb[n : 2*n : 2*n],
			B:      vb[2*n : 3*n : 3*n],
			SPrev:  sb[0:ns:ns],
			SNext:  sb[ns : 2*ns : 2*ns],
			Worker: int16(i),
		}
	}
	return lanes
}

// BatchLoad assembles several lane workspaces at one Newton iteration in
// lockstep: device-outer, lane-inner, so the model dispatch for device d is
// amortized over all lanes and the lanes' stamps land in their adjacent
// struct-of-arrays blocks. Nil entries in lanes are skipped (retired or
// already-converged lanes). Per lane the operation sequence — zeroing,
// evaluation order, limiting capture, NodeGmin, clamps, fault injection —
// is exactly that of the serial Load, so each lane's assembled system is
// bit-identical to what its own Load(xs[i], ps[i]) would produce.
func BatchLoad(lanes []*Workspace, xs [][]float64, ps []LoadParams) {
	nd := 0
	for li, ws := range lanes {
		if ws == nil {
			continue
		}
		ws.M.Zero()
		for i := range ws.F {
			ws.F[i] = 0
			ws.Q[i] = 0
			ws.B[i] = 0
		}
		p := ps[li]
		ctx := &ws.evalCtx
		*ctx = EvalCtx{
			X:         xs[li],
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
		if l := len(ws.deviceList()); l > nd {
			nd = l
		}
	}
	for di := 0; di < nd; di++ {
		for _, ws := range lanes {
			if ws == nil {
				continue
			}
			if dl := ws.deviceList(); di < len(dl) {
				dl[di].Eval(&ws.evalCtx)
			}
		}
	}
	for li, ws := range lanes {
		if ws == nil {
			continue
		}
		p := ps[li]
		ws.Limited = ws.evalCtx.Limited
		if p.NodeGmin > 0 {
			x := xs[li]
			for i, slot := range ws.Sys.diagSlots {
				ws.M.Add(slot, p.NodeGmin)
				ws.F[i] += p.NodeGmin * x[i]
			}
		}
		ws.applyClamps(xs[li], p)
		ws.injectLoadFault(p)
	}
}
