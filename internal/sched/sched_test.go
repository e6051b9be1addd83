package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunCoversAllWorkers checks every worker index runs exactly once
// per gang, across many gangs, with ForceGang so the concurrent path is
// exercised even on a single-CPU host (and under -race).
func TestPoolRunCoversAllWorkers(t *testing.T) {
	ForceGang.Store(true)
	defer ForceGang.Store(false)
	p := NewPool(4)
	if p == nil {
		t.Fatal("NewPool(4) returned nil")
	}
	defer p.Close()
	hits := make([]atomic.Int64, p.Workers())
	const gangs = 200
	for g := 0; g < gangs; g++ {
		p.Run(func(w int) { hits[w].Add(1) })
	}
	for w := range hits {
		if got := hits[w].Load(); got != gangs {
			t.Fatalf("worker %d ran %d times, want %d", w, got, gangs)
		}
	}
}

// TestPoolBarrierStress drives a barrier-synchronized kernel (the shape the
// LU and colored-load kernels use) through many phases under -race.
func TestPoolBarrierStress(t *testing.T) {
	ForceGang.Store(true)
	defer ForceGang.Store(false)
	p := NewPool(4)
	defer p.Close()
	var bar Barrier
	const phases = 50
	shared := make([]int64, phases) // phase i written by worker i%4, read by all in phase i+1
	for rep := 0; rep < 20; rep++ {
		for i := range shared {
			shared[i] = 0
		}
		bar.Reset(int32(p.Workers()))
		p.Run(func(w int) {
			var sense uint32
			for ph := 0; ph < phases; ph++ {
				if ph%p.Workers() == w {
					v := int64(ph + 1)
					if ph > 0 {
						v += shared[ph-1] // read prior phase: ordering via barrier
					}
					shared[ph] = v
				}
				bar.Wait(&sense)
			}
		})
		want := int64(0)
		for ph := 0; ph < phases; ph++ {
			want += int64(ph + 1)
			if shared[ph] != want {
				t.Fatalf("rep %d phase %d: got %d want %d", rep, ph, shared[ph], want)
			}
		}
	}
}

// TestPoolPanicPropagates checks a gang member's panic is re-raised on the
// caller after the gang drains, and that the pool is reusable afterwards.
func TestPoolPanicPropagates(t *testing.T) {
	ForceGang.Store(true)
	defer ForceGang.Store(false)
	p := NewPool(3)
	defer p.Close()
	var bar Barrier
	for _, bad := range []int{0, 1, 2} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("worker %d: recovered %v, want boom", bad, r)
				}
			}()
			bar.Reset(int32(p.Workers()))
			p.Run(func(w int) {
				defer func() {
					if r := recover(); r != nil {
						bar.Poison()
						panic(r)
					}
				}()
				var sense uint32
				bar.Wait(&sense)
				if w == bad {
					panic("boom")
				}
				bar.Wait(&sense)
			})
			t.Fatalf("worker %d: Run returned without panicking", bad)
		}()
		// Pool must still work after a poisoned gang.
		var ok atomic.Int64
		p.Run(func(w int) { ok.Add(1) })
		if ok.Load() != int64(p.Workers()) {
			t.Fatalf("pool unusable after panic: %d/%d workers ran", ok.Load(), p.Workers())
		}
	}
}

// TestPoolDegradesSequentially checks the nil pool and the non-Gang path run
// the function serially, in worker order.
func TestPoolDegradesSequentially(t *testing.T) {
	var nilPool *Pool
	order := []int{}
	nilPool.Run(func(w int) { order = append(order, w) })
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("nil pool ran %v, want [0]", order)
	}
	if nilPool.Workers() != 1 || nilPool.Gang() {
		t.Fatalf("nil pool: Workers=%d Gang=%v", nilPool.Workers(), nilPool.Gang())
	}
	if runtime.GOMAXPROCS(0) == 1 {
		p := NewPool(3) // ForceGang unset: degrades on a 1-CPU host
		defer p.Close()
		if p.Gang() {
			t.Skip("GOMAXPROCS changed concurrently")
		}
		order = order[:0]
		p.Run(func(w int) { order = append(order, w) })
		if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
			t.Fatalf("degraded pool ran %v, want [0 1 2]", order)
		}
	}
}

// TestBudgetInvariant checks reservations never exceed the total and that
// pool close releases its grant.
func TestBudgetInvariant(t *testing.T) {
	b := NewBudget(8)
	if got := b.Reserve(4); got != 4 {
		t.Fatalf("Reserve(4) = %d", got)
	}
	// Pipeline lanes reserved; carve four gangs out of the remainder like
	// the wavepipe engine does (intra = budget/threads = 2 → 1 extra each).
	pools := make([]*Pool, 0, 4)
	for i := 0; i < 4; i++ {
		p := b.NewPool(2)
		if p == nil {
			t.Fatalf("gang %d: NewPool(2) = nil with %d free", i, b.Total()-b.InUse())
		}
		pools = append(pools, p)
	}
	if b.InUse() != 8 {
		t.Fatalf("InUse = %d, want 8", b.InUse())
	}
	if p := b.NewPool(4); p != nil {
		t.Fatalf("over-budget NewPool succeeded with width %d", p.Workers())
	}
	for _, p := range pools {
		p.Close()
	}
	if b.InUse() != 4 {
		t.Fatalf("after close InUse = %d, want 4", b.InUse())
	}
	b.Release(4)
	if b.InUse() != 0 {
		t.Fatalf("final InUse = %d, want 0", b.InUse())
	}
	// Partial grant: only 3 free, asking for a gang of 8 → width 4.
	b2 := NewBudget(4)
	b2.Reserve(1)
	p := b2.NewPool(8)
	if p.Workers() != 4 {
		t.Fatalf("partial grant width = %d, want 4", p.Workers())
	}
	p.Close()
}

// TestPoolNoGoroutineLeak runs gangs on several pools, closes them, and
// checks the goroutine count returns to its baseline.
func TestPoolNoGoroutineLeak(t *testing.T) {
	ForceGang.Store(true)
	defer ForceGang.Store(false)
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		p := NewPool(4)
		var n atomic.Int64
		p.Run(func(w int) { n.Add(1) })
		p.Run(func(w int) { n.Add(1) })
		if n.Load() != 8 {
			t.Fatalf("pool %d: %d runs, want 8", i, n.Load())
		}
		p.Close()
		p.Close() // double close is safe
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
