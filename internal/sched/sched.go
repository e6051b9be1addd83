// Package sched provides the shared two-level scheduling primitives used by
// the simulator: a gang-scheduled worker Pool for intra-point parallelism
// (colored device load, level-scheduled sparse LU) and a global core Budget
// that both parallelism levels draw from, so that
//
//	pipeline threads × intra-point gang width ≤ CoreBudget
//
// never oversubscribes the machine. Pools are cheap, long-lived objects: the
// workers are persistent goroutines that park on a channel between gangs, so
// the per-call cost of Run is two channel operations per worker instead of a
// goroutine spawn. The calling goroutine always participates as worker 0,
// which is what makes the budget arithmetic exact — a pipeline worker that
// owns a gang of width k costs k cores total, not k+1.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxGang caps a single pool's width. Level-scheduled LU and colored load
// saturate well before this on every circuit in the suite; the cap only
// guards against absurd -cores values creating thousands of spinners.
const maxGang = 64

// ForceGang is the one switch that drives gangs concurrently where they
// would otherwise degrade: while true, every pool's Gang() reports true
// regardless of GOMAXPROCS. Race and equivalence tests set it, and reset it
// when they finish, to drive the concurrent kernels bitwise-identically on
// single-CPU hosts. Raising GOMAXPROCS above the hardware thread count
// instead would push the spin barriers into OS time-slicing (milliseconds
// per crossing); with GOMAXPROCS=1 the gang round-robins cooperatively
// through Gosched. Not for production use: a forced gang on one CPU is
// strictly slower than the degraded sequential sweep.
var ForceGang atomic.Bool

// Pool is a gang of persistent workers. Run(fn) executes fn(w) for
// w = 0..Workers()-1 concurrently, with the caller acting as worker 0, and
// returns when every worker has finished. A Pool has a single owner: Run must
// not be called concurrently with itself or with Close.
//
// Kernels that synchronize inside fn (e.g. with a Barrier sized to
// Workers()) MUST check Gang() first and fall back to a serial variant when
// it reports false: when the gang cannot actually run concurrently, Run
// degrades to calling fn sequentially, which would deadlock a barrier.
type Pool struct {
	n     int              // gang width including the caller
	tasks []chan func(int) // one per hired worker (n-1)
	wg    sync.WaitGroup

	mu     sync.Mutex
	pv     any // first panic recovered from a gang member
	closed bool

	budget  *Budget // set when the pool was carved out of a Budget
	granted int     // extra cores reserved from budget (n-1 at creation)
}

// NewPool returns a pool of gang width n (caller included). Widths ≤ 1
// return nil: the nil *Pool is valid and means "serial" everywhere.
func NewPool(n int) *Pool {
	if n > maxGang {
		n = maxGang
	}
	if n <= 1 {
		return nil
	}
	p := &Pool{n: n, tasks: make([]chan func(int), n-1)}
	for i := range p.tasks {
		ch := make(chan func(int))
		p.tasks[i] = ch
		w := i + 1
		go func() {
			for fn := range ch {
				p.runGuarded(fn, w)
				p.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the gang width. The nil pool has width 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.n
}

// Gang reports whether Run will actually execute the gang concurrently.
// On a single-CPU host (GOMAXPROCS=1) spinning gang members would only slow
// the caller down, so Run degrades to a sequential sweep unless ForceGang is
// set; kernels use Gang to pick between their concurrent and serial forms.
func (p *Pool) Gang() bool {
	return p != nil && p.n > 1 && (ForceGang.Load() || runtime.GOMAXPROCS(0) > 1)
}

// Run executes fn(w) for every worker w in [0, Workers()) and returns once
// all have completed. If any fn panics, the first recovered value is
// re-panicked on the caller after the gang has drained, so engine-level
// panic fences (wavepipe's guardTask) see it exactly like a serial panic.
// With a nil pool, or when Gang() is false, fn is called sequentially.
func (p *Pool) Run(fn func(w int)) {
	if !p.Gang() {
		for w := 0; w < p.Workers(); w++ {
			fn(w)
		}
		return
	}
	p.mu.Lock()
	p.pv = nil
	p.mu.Unlock()
	p.wg.Add(p.n - 1)
	for _, ch := range p.tasks {
		ch <- fn
	}
	p.runGuarded(fn, 0)
	p.wg.Wait()
	p.mu.Lock()
	pv := p.pv
	p.mu.Unlock()
	if pv != nil {
		panic(pv)
	}
}

func (p *Pool) runGuarded(fn func(int), w int) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.pv == nil {
				p.pv = r
			}
			p.mu.Unlock()
		}
	}()
	fn(w)
}

// Close stops the hired workers and releases the pool's reservation back to
// its Budget. Safe on nil and safe to call twice.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, ch := range p.tasks {
		close(ch)
	}
	if p.budget != nil {
		p.budget.Release(p.granted)
	}
}

// Budget tracks a global core budget shared by every parallelism level of a
// run. The engines reserve their pipeline lanes first, then carve intra-point
// gangs out of the remainder, so the total reservation never exceeds Total.
type Budget struct {
	total int64
	used  atomic.Int64
}

// NewBudget returns a budget of total cores. total ≤ 0 yields a zero budget
// (every Reserve grants nothing).
func NewBudget(total int) *Budget {
	if total < 0 {
		total = 0
	}
	return &Budget{total: int64(total)}
}

// Total returns the budget's size.
func (b *Budget) Total() int {
	if b == nil {
		return 0
	}
	return int(b.total)
}

// InUse returns the number of cores currently reserved.
func (b *Budget) InUse() int {
	if b == nil {
		return 0
	}
	return int(b.used.Load())
}

// Reserve grants min(n, free) cores and records them as in use; it returns
// the granted count (possibly 0). Callers must Release what they were
// granted.
func (b *Budget) Reserve(n int) int {
	if b == nil || n <= 0 {
		return 0
	}
	for {
		used := b.used.Load()
		free := b.total - used
		if free <= 0 {
			return 0
		}
		g := int64(n)
		if g > free {
			g = free
		}
		if b.used.CompareAndSwap(used, used+g) {
			return int(g)
		}
	}
}

// Release returns n previously reserved cores to the budget.
func (b *Budget) Release(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(int64(-n))
}

// NewPool reserves up to gang-1 extra cores (the gang leader is the calling
// worker, assumed already accounted for by the caller's own reservation) and
// returns a pool of width 1+granted. When nothing extra is available it
// returns nil, i.e. serial. Closing the pool releases the reservation.
func (b *Budget) NewPool(gang int) *Pool {
	if gang > maxGang {
		gang = maxGang
	}
	if b == nil || gang <= 1 {
		return nil
	}
	g := b.Reserve(gang - 1)
	if g == 0 {
		return nil
	}
	p := NewPool(1 + g)
	if p == nil { // 1+g == 1 cannot happen (g ≥ 1), but stay safe
		b.Release(g)
		return nil
	}
	p.budget = b
	p.granted = g
	return p
}

// SplitBudget divides a global core budget among identical gangs of width
// gang, capped at maxUnits concurrent gangs. It returns how many gangs may
// run at once and the per-gang core budget, chosen so that
// units × perUnit ≤ total — the invariant the time-parallel window
// coordinator relies on so windows × pipeline × intra-point parallelism
// never oversubscribes the machine. A non-positive total means the budget
// is unmanaged: every unit may run with an unmanaged (zero) inner budget.
func SplitBudget(total, gang, maxUnits int) (units, perUnit int) {
	if maxUnits < 1 {
		maxUnits = 1
	}
	if gang < 1 {
		gang = 1
	}
	if total <= 0 {
		return maxUnits, 0
	}
	units = total / gang
	if units < 1 {
		units = 1
	}
	if units > maxUnits {
		units = maxUnits
	}
	return units, total / units
}
