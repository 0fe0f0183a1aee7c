// Package scratch provides reusable arenas for the temporary storage of
// the scheduling variants: the flux and velocity arrays of Table I and
// the carried-cache buffers of the fused schedules.
//
// The paper's whole argument is that these temporaries dominate the
// exemplar's memory behavior, so timing a schedule while the Go heap
// re-allocates them every execution times the garbage collector alongside
// the schedule. An Arena is a bump allocator over one retained backing
// store: the first execution grows it to the schedule's peak demand and
// every later execution re-bumps the same storage with zero allocation.
// A Pool is a concurrency-safe free list of arenas, checked out around
// each box execution — the multicore resource-reuse discipline of
// Wittmann/Hager/Wellein's temporal blocking, applied to Go.
//
// Buffers handed out by an Arena are NOT zeroed: callers must fully
// define every value they read, which the variant executors do by
// construction (flux temporaries are written before read and carried
// caches are seeded at region boundaries).
package scratch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
)

// Arena is a bump allocator of float64 buffers and FAB headers over a
// retained backing store. The zero value is ready to use. An Arena is
// not safe for concurrent use; parallel executors check one out per
// worker thread.
//
// All methods tolerate a nil receiver by falling back to plain heap
// allocation, so code paths can be written once and run pooled or not.
type Arena struct {
	buf  []float64
	off  int
	peak int // high-water mark of off
	fabs []*fab.FAB
	nfab int
	pool *Pool // owner, for grow/retained-bytes accounting (may be nil)
}

// Floats returns a slice of n float64 from the arena, growing the
// backing store if this checkout's demand exceeds the retained capacity.
// Contents are undefined (previous checkouts' data). A nil arena
// allocates from the heap (zeroed, as make is).
func (a *Arena) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if n < 0 {
		panic(fmt.Sprintf("scratch: negative length %d", n))
	}
	if a.off+n > len(a.buf) {
		a.grow(n)
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	if a.off > a.peak {
		a.peak = a.off
	}
	return s
}

// grow replaces the backing store with one large enough for the current
// demand. Buffers already handed out keep pointing into the old backing
// (they stay valid until the next Reset); the dead prefix of the new
// backing is reclaimed then. Growth happens only while an arena warms up
// to a workload's peak demand.
func (a *Arena) grow(n int) {
	need := a.off + n
	newLen := 2 * len(a.buf)
	if newLen < need {
		newLen = need
	}
	if a.pool != nil {
		a.pool.grows.Add(1)
		a.pool.retainedFloats.Add(int64(newLen - len(a.buf)))
	}
	a.buf = make([]float64, newLen)
}

// FAB returns a FAB with ncomp components over b whose storage comes
// from the arena. Contents are undefined — unlike fab.New, the data is
// NOT zeroed. The header itself is recycled across checkouts, so the
// returned pointer must not outlive the next Reset. A nil arena returns
// a plain fab.New.
func (a *Arena) FAB(b box.Box, ncomp int) *fab.FAB {
	if a == nil {
		return fab.New(b, ncomp)
	}
	buf := a.Floats(b.NumPts() * ncomp)
	if a.nfab == len(a.fabs) {
		a.fabs = append(a.fabs, new(fab.FAB))
	}
	f := a.fabs[a.nfab]
	a.nfab++
	f.Adopt(buf, b, ncomp)
	return f
}

// Mark records the arena's current position for Rewind.
type Mark struct {
	off, nfab int
}

// Mark returns the current allocation position. Nil arenas return the
// zero Mark.
func (a *Arena) Mark() Mark {
	if a == nil {
		return Mark{}
	}
	return Mark{off: a.off, nfab: a.nfab}
}

// Rewind releases every allocation made since m was taken, so a loop
// over independent work items (directions, tiles) can reuse the same
// storage per item: mark once before the loop, rewind at the top of each
// iteration. Buffers and FABs handed out after m must no longer be used.
// No-op on a nil arena.
func (a *Arena) Rewind(m Mark) {
	if a == nil {
		return
	}
	a.off, a.nfab = m.off, m.nfab
}

// Reset releases every allocation the arena has handed out. Equivalent
// to Rewind of a mark taken when the arena was empty.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.off, a.nfab = 0, 0
}

// PeakBytes reports the most storage the arena has had handed out at one
// time since it was created: the working set of the schedules that used
// it, which the doubling backing store (BytesRetained) only bounds.
func (a *Arena) PeakBytes() int64 {
	if a == nil {
		return 0
	}
	return int64(a.peak) * 8
}

// BytesRetained reports the backing storage the arena keeps for reuse.
func (a *Arena) BytesRetained() int64 {
	if a == nil {
		return 0
	}
	return int64(len(a.buf)) * 8
}

// Pool is a concurrency-safe free list of arenas. Executors check an
// arena out around each box execution and back in when done; a checkout
// served from the free list reuses that arena's warmed backing store, so
// repeated executions of the same workload allocate nothing.
type Pool struct {
	mu   sync.Mutex
	free []*Arena
	// maxArenaBytes, when positive, is the largest backing store Checkin
	// keeps: a bigger arena is dropped for the collector instead.
	maxArenaBytes int64

	hits           atomic.Uint64
	misses         atomic.Uint64
	grows          atomic.Uint64
	retainedFloats atomic.Int64
	arenas         atomic.Int64
	inUse          atomic.Int64
}

// Default is the pool the variant executors draw from. Services expose
// its Stats through their metrics endpoint.
var Default = NewPool()

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{}
}

// NewCappedPool returns an empty pool that keeps no arena whose backing
// store exceeds maxArenaBytes: Checkin drops such an arena, and its
// bytes leave BytesRetained. A pool whose arenas hold per-run state
// sized by the request uses it, so that one huge run does not pin its
// storage for the life of the process.
func NewCappedPool(maxArenaBytes int64) *Pool {
	return &Pool{maxArenaBytes: maxArenaBytes}
}

// Checkout returns an arena for exclusive use until Checkin. An arena
// from the free list counts as a hit; an empty free list builds a fresh
// (cold) arena and counts as a miss.
func (p *Pool) Checkout() *Arena {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.hits.Add(1)
		p.inUse.Add(1)
		return a
	}
	p.mu.Unlock()
	p.misses.Add(1)
	p.arenas.Add(1)
	p.inUse.Add(1)
	return &Arena{pool: p}
}

// Checkin resets a and returns it to the free list, or drops it when
// its backing store exceeds the pool's cap (see NewCappedPool). Checkin
// of nil is a no-op. An arena must be checked in at most once per
// checkout.
func (p *Pool) Checkin(a *Arena) {
	if a == nil {
		return
	}
	a.Reset()
	p.inUse.Add(-1)
	if p.maxArenaBytes > 0 && a.BytesRetained() > p.maxArenaBytes {
		p.retainedFloats.Add(-int64(len(a.buf)))
		return
	}
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// PoolStats is a snapshot of a pool's behavior, for metrics gauges.
type PoolStats struct {
	// Hits and Misses count checkouts served from the free list versus
	// checkouts that had to build a new arena.
	Hits, Misses uint64
	// Grows counts backing-store growths inside checkouts (arena
	// warm-up; zero in steady state).
	Grows uint64
	// Arenas is the number of arenas the pool has built; InUse how many
	// are currently checked out.
	Arenas, InUse int64
	// BytesRetained is the total backing storage retained across all of
	// the pool's arenas, free and checked out.
	BytesRetained int64
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Grows:         p.grows.Load(),
		Arenas:        p.arenas.Load(),
		InUse:         p.inUse.Load(),
		BytesRetained: p.retainedFloats.Load() * 8,
	}
}
