package circuit

import (
	"sync"

	"wavepipe/internal/sparse"
)

// shard holds one goroutine's private accumulation buffers for the
// fine-grained parallel device load.
type shard struct {
	m       *sparse.Matrix
	f       []float64
	q       []float64
	b       []float64
	limited bool
}

// LoadWorkers > 1 routes Load through the fine-grained parallel path: the
// device list is split across that many goroutines, each accumulating into
// private buffers that are then reduced. This is the "conventional
// finer-grained parallel device model evaluation" baseline the WavePipe
// paper positions itself against.
//
// The reduction cost (nnz + 3·N per worker) is intrinsic to the approach
// and part of what limits its scaling.
func (ws *Workspace) SetLoadWorkers(n int) {
	ws.loadWorkers = n
	if n > 1 && len(ws.shards) < n {
		for len(ws.shards) < n {
			ws.shards = append(ws.shards, &shard{
				m: ws.M.Clone(),
				f: make([]float64, ws.Sys.N),
				q: make([]float64, ws.Sys.N),
				b: make([]float64, ws.Sys.N),
			})
		}
	}
}

// loadParallel performs the sharded assembly. Device state slots are
// disjoint per device, so SNext can be shared across shards.
func (ws *Workspace) loadParallel(x []float64, p LoadParams) {
	ws.M.Zero()
	for i := range ws.F {
		ws.F[i] = 0
		ws.Q[i] = 0
		ws.B[i] = 0
	}
	devices := ws.Sys.Circuit.devices
	nw := ws.loadWorkers
	if nw > len(devices) {
		nw = len(devices)
	}
	var wg sync.WaitGroup
	for s := 0; s < nw; s++ {
		sh := ws.shards[s]
		lo := s * len(devices) / nw
		hi := (s + 1) * len(devices) / nw
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.m.Zero()
			for i := range sh.f {
				sh.f[i] = 0
				sh.q[i] = 0
				sh.b[i] = 0
			}
			ctx := EvalCtx{
				X:         x,
				T:         p.Time,
				Alpha0:    p.Alpha0,
				Gmin:      p.Gmin,
				SrcScale:  p.SrcScale,
				FirstIter: p.FirstIter,
				NoLimit:   p.NoLimit,
				SPrev:     ws.SPrev,
				SNext:     ws.SNext,
				m:         sh.m,
				F:         sh.f,
				Q:         sh.q,
				B:         sh.b,
			}
			for _, d := range devices[lo:hi] {
				d.Eval(&ctx)
			}
			sh.limited = ctx.Limited
		}()
	}
	wg.Wait()
	// Reduce.
	ws.Limited = false
	for s := 0; s < nw; s++ {
		sh := ws.shards[s]
		ws.Limited = ws.Limited || sh.limited
		for i, v := range sh.m.Values {
			ws.M.Values[i] += v
		}
		for i := range ws.F {
			ws.F[i] += sh.f[i]
			ws.Q[i] += sh.q[i]
			ws.B[i] += sh.b[i]
		}
	}
	if p.NodeGmin > 0 {
		for i, slot := range ws.Sys.diagSlots {
			ws.M.Add(slot, p.NodeGmin)
			ws.F[i] += p.NodeGmin * x[i]
		}
	}
	ws.applyClamps(x, p)
	ws.injectLoadFault(p)
}
