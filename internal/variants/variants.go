// Package variants implements every inter-loop scheduling variant of the
// study as an executor over the exemplar state. All executors compute
// bit-for-bit identical results to kernel.Reference: the flux expressions
// funnel through kernel.FaceAvg/kernel.Flux2, every cell receives its three
// direction contributions in x, y, z order, and recomputation (overlapped
// tiles) re-evaluates the same expressions on the same read-only inputs.
//
// The files of this package mirror Section IV:
//
//	series.go     — IV-A, the original series of modular loops
//	shiftfuse.go  — IV-B, shifted and fused loops (serial and per-iteration
//	                wavefront)
//	blockedwf.go  — IV-C, shifted/fused/tiled loops in tile wavefronts
//	overlapped.go — IV-D, overlapped (communication-avoiding) tiles
package variants

import (
	"fmt"
	"sync"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/parallel"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
	"stencilsched/internal/wavefront"
)

// Stats reports what a variant execution allocated and did, feeding the
// Table I temporary-storage accounting and the wavefront-efficiency
// analysis. Byte counts are per concurrently executing context (for P<Box
// tile schedules: per thread times threads actually used).
type Stats struct {
	Variant sched.Variant
	// TempFluxBytes is the peak flux temporary storage.
	TempFluxBytes int64
	// TempVelBytes is the peak velocity temporary storage.
	TempVelBytes int64
	// FacesEvaluated counts face-average evaluations per component,
	// including recomputed ones; UniqueFaces counts the distinct faces. The
	// ratio is the overlapped-tile redundancy factor.
	FacesEvaluated int64
	UniqueFaces    int64
	// Wavefront is filled by the wavefront-parallel variants.
	Wavefront wavefront.Stats
}

// RecomputeFactor returns FacesEvaluated/UniqueFaces (1 when unknown).
func (s Stats) RecomputeFactor() float64 {
	if s.UniqueFaces == 0 {
		return 1
	}
	return float64(s.FacesEvaluated) / float64(s.UniqueFaces)
}

// statePool recycles the per-execution state headers so the steady-state
// hot path does not allocate them. States are cleared before return to
// the pool so retired executions do not pin solution FABs.
var statePool = sync.Pool{New: func() any { return new(state) }}

// Exec runs variant v on one box. phi0 must cover kernel.GrownBox(valid)
// and phi1 must cover valid; results accumulate into phi1, exactly like
// kernel.Reference. threads is the within-box thread count and is honored
// only by P<Box variants; P>=Box variants run the box serially (their
// parallelism is across boxes — see ExecLevel).
//
// Temporary storage (flux and velocity arrays, carried caches) comes
// from arenas checked out of scratch.Default around the box execution,
// so repeated executions of same-shaped work reach a steady state that
// allocates nothing from the Go heap.
func Exec(v sched.Variant, phi0, phi1 *fab.FAB, valid box.Box, threads int) Stats {
	if err := v.Validate(); err != nil {
		panic(fmt.Sprintf("variants: %v", err))
	}
	kernel.CheckState(phi0, phi1, valid)
	st := statePool.Get().(*state)
	st.init(phi0, phi1, valid)
	defer func() {
		*st = state{}
		statePool.Put(st)
	}()
	ar := scratch.Default.Checkout()
	defer scratch.Default.Checkin(ar)
	if v.Par == sched.OverBoxes {
		threads = 1
	}
	threads = parallel.Threads(threads)
	var stats Stats
	switch v.Family {
	case sched.Series:
		stats = execSeries(st, v.Comp, threads, ar)
	case sched.ShiftFuse:
		stats = execShiftFuse(st, v.Comp, v.Par == sched.WithinBox, threads, ar)
	case sched.BlockedWavefront:
		stats = execBlockedWF(st, v.Comp, ivect.IntVect(v.TileShape()), threads, ar)
	case sched.OverlappedTile:
		stats = execOverlapped(st, v.Intra, ivect.IntVect(v.TileShape()), threads, ar)
	}
	stats.Variant = v
	return stats
}

// State bundles one box's solution data for level execution.
type State struct {
	Valid      box.Box
	Phi0, Phi1 *fab.FAB
}

// NewLevelState allocates exemplar state for each box.
func NewLevelState(boxes []box.Box) []State {
	out := make([]State, len(boxes))
	for i, b := range boxes {
		phi0, phi1 := kernel.NewState(b)
		out[i] = State{Valid: b, Phi0: phi0, Phi1: phi1}
	}
	return out
}

// ExecLevel runs variant v across a set of boxes with the given total
// thread count — the paper's two parallelization granularities:
//
//   - P>=Box: threads are distributed over boxes (dynamic, since real runs
//     have many more boxes than threads) and each box executes serially;
//   - P<Box: boxes execute one after another and all threads work inside
//     the current box.
//
// It returns the Stats of the last box executed (all boxes are identically
// shaped in the study).
func ExecLevel(v sched.Variant, states []State, threads int) Stats {
	return ExecLevelThen(v, states, threads, nil)
}

// Epilogue consumes the divergence of states[i] right after its sweep,
// on the goroutine that swept it, while the box is still in cache. div
// is defined over states[i].Valid.
type Epilogue func(i int, div *fab.FAB)

// ExecLevelThen is ExecLevel with a per-box epilogue: with a non-nil
// then, each sweep computes a fresh divergence, zeroing its output over
// Valid first, and hands it to then(i, div) as soon as it is done. A
// state with a nil Phi1 sweeps into a box-sized slab of a per-worker
// scratch arena, reused box after box, so a level needs no divergence
// arrays of its own; the slab is only valid inside then. Epilogues of
// P>=Box sweeps run concurrently, one per worker.
func ExecLevelThen(v sched.Variant, states []State, threads int, then Epilogue) Stats {
	lr := levelPool.Get().(*levelRun)
	lr.v, lr.states, lr.then = v, states, then
	if v.Par == sched.OverBoxes {
		// Only the last box's Stats are reported (identically shaped
		// boxes); exactly one worker executes that index, and Dynamic's
		// join orders its write before the read here. The per-call
		// parameters live in a pooled carrier with a pre-bound body so the
		// measured hot path does not allocate a closure per level sweep.
		if lr.bodyFn == nil {
			lr.bodyFn = lr.body
		}
		lr.workers(parallel.Threads(threads))
		parallel.Dynamic(threads, len(states), 1, lr.bodyFn)
	} else {
		lr.workers(1)
		for i := range states {
			lr.last = lr.exec(0, i, threads)
		}
	}
	last := lr.last
	for i, ar := range lr.slabs {
		if ar != nil {
			scratch.Default.Checkin(ar)
			lr.slabs[i] = nil
		}
	}
	lr.states, lr.then, lr.last = nil, nil, Stats{}
	levelPool.Put(lr)
	return last
}

// levelRun carries one ExecLevelThen sweep's parameters and result.
type levelRun struct {
	v      sched.Variant
	states []State
	then   Epilogue
	slabs  []*scratch.Arena // by worker, checked out on first use
	last   Stats
	bodyFn func(tid, i int)
}

var levelPool = sync.Pool{New: func() any { return new(levelRun) }}

// workers sizes the slab table for n workers; every entry is nil.
func (lr *levelRun) workers(n int) {
	if cap(lr.slabs) < n {
		lr.slabs = make([]*scratch.Arena, n)
	}
	lr.slabs = lr.slabs[:n]
}

func (lr *levelRun) body(tid, i int) {
	st := lr.exec(tid, i, 1)
	if i == len(lr.states)-1 {
		lr.last = st
	}
}

// exec sweeps states[i] on worker tid and runs the epilogue.
func (lr *levelRun) exec(tid, i, threads int) Stats {
	s := lr.states[i]
	if lr.then == nil {
		return Exec(lr.v, s.Phi0, s.Phi1, s.Valid, threads)
	}
	div := s.Phi1
	if div == nil {
		ar := lr.slabs[tid]
		if ar == nil {
			ar = scratch.Default.Checkout()
			lr.slabs[tid] = ar
		}
		ar.Reset()
		div = ar.FAB(s.Valid, kernel.NComp)
	}
	div.Zero(s.Valid)
	st := Exec(lr.v, s.Phi0, div, s.Valid, threads)
	lr.then(i, div)
	return st
}

// state caches the raw-slice view of the exemplar data that the executors'
// inner loops address with incremental offsets, the pointer-offset idiom of
// Section III-C.
type state struct {
	valid box.Box
	phi0  *fab.FAB
	phi1  *fab.FAB
	// per-direction strides of phi0's layout (x is unit stride)
	str0 [3]int
	sc0  int // component stride of phi0
	str1 [3]int
	sc1  int
	// comps0 and comps1 cache the single-component slices of phi0 and
	// phi1, so the fused executors can take per-component slice tables
	// (comps0[cLo:cHi]) without allocating inside tile loops.
	comps0 [kernel.NComp][]float64
	comps1 [kernel.NComp][]float64
}

// init fills s for one box execution; states are pooled and re-initialized
// rather than re-allocated.
func (s *state) init(phi0, phi1 *fab.FAB, valid box.Box) {
	s0y, s0z, s0c := phi0.Strides()
	s1y, s1z, s1c := phi1.Strides()
	s.valid = valid
	s.phi0 = phi0
	s.phi1 = phi1
	s.str0 = [3]int{1, s0y, s0z}
	s.sc0 = s0c
	s.str1 = [3]int{1, s1y, s1z}
	s.sc1 = s1c
	for c := 0; c < kernel.NComp; c++ {
		s.comps0[c] = phi0.Comp(c)
		s.comps1[c] = phi1.Comp(c)
	}
}

func newState(phi0, phi1 *fab.FAB, valid box.Box) *state {
	s := new(state)
	s.init(phi0, phi1, valid)
	return s
}

// off0 returns the flat offset of point p in one component slice of phi0.
func (s *state) off0(p ivect.IntVect) int {
	lo := s.phi0.Box().Lo
	return (p[0] - lo[0]) + s.str0[1]*(p[1]-lo[1]) + s.str0[2]*(p[2]-lo[2])
}

// off1 returns the flat offset of point p in one component slice of phi1.
func (s *state) off1(p ivect.IntVect) int {
	lo := s.phi1.Box().Lo
	return (p[0] - lo[0]) + s.str1[1]*(p[1]-lo[1]) + s.str1[2]*(p[2]-lo[2])
}

// comp0 and comp1 return single-component slices.
func (s *state) comp0(c int) []float64 { return s.comps0[c] }
func (s *state) comp1(c int) []float64 { return s.comps1[c] }

// uniqueFaces returns the number of distinct faces of the valid box summed
// over directions.
func (s *state) uniqueFaces() int64 {
	var n int64
	for d := 0; d < ivect.SpaceDim; d++ {
		n += int64(s.valid.SurroundingFaces(d).NumPts())
	}
	return n
}

// velocityField computes the three face-centered advection-velocity arrays
// vel[d][face] = FaceAvg(phi0, comp d+1) over the faces of region (a cell
// box), in parallel over z slabs. It is the precomputation pass of the
// fused schedules; Table I charges it 3(N+1)^3 temporary values.
//
// The returned FABs are defined on region.SurroundingFaces(d), with
// storage drawn from ar (undefined contents, fully overwritten here); a
// nil arena falls back to heap allocation.
func velocityField(s *state, region box.Box, threads int, ar *scratch.Arena) [3]*fab.FAB {
	var vel [3]*fab.FAB
	for d := 0; d < 3; d++ {
		faces := region.SurroundingFaces(d)
		v := ar.FAB(faces, 1)
		out := v.Comp(0)
		vy, vz, _ := v.Strides()
		ph := s.comp0(kernel.VelComp(d))
		sd := s.str0[d]
		nz := faces.Size()[2]
		if threads <= 1 {
			// Serial callers (P>=Box boxes, per-tile recomputation) run the
			// slab body directly: a closure here would heap-allocate on
			// every tile of the overlapped schedules.
			faceAvgSlabs(s, out, ph, faces, vy, vz, sd, 0, nz)
		} else {
			parallel.ForChunked(threads, nz, func(_, zlo, zhi int) {
				faceAvgSlabs(s, out, ph, faces, vy, vz, sd, zlo, zhi)
			})
		}
		vel[d] = v
	}
	return vel
}

// velAcc is a raw-slice accessor for a single-component face FAB, used in
// the fused inner loops instead of bounds-checked Get.
type velAcc struct {
	data   []float64
	lo     ivect.IntVect
	sy, sz int
}

func newVelAcc(f *fab.FAB) velAcc {
	sy, sz, _ := f.Strides()
	return velAcc{data: f.Comp(0), lo: f.Box().Lo, sy: sy, sz: sz}
}

// off returns the offset of face p in data; the x row starting at p
// follows it, the next row in y is sy further on.
func (v velAcc) off(p ivect.IntVect) int {
	return (p[0] - v.lo[0]) + v.sy*(p[1]-v.lo[1]) + v.sz*(p[2]-v.lo[2])
}

// checkoutWorkerArenas returns one arena per worker thread for the
// tile-parallel executors, reusing the caller's execution arena for
// worker 0 (it holds no live allocations when these executors start).
// Arenas beyond the first come from the default pool; checkinWorkerArenas
// returns them. This is Table I's factor P made literal: temporary
// storage scales with the threads actually used, and is retained for the
// next execution rather than re-allocated.
func checkoutWorkerArenas(threads int, ar *scratch.Arena) []*scratch.Arena {
	ars := make([]*scratch.Arena, threads)
	ars[0] = ar
	for i := 1; i < threads; i++ {
		ars[i] = scratch.Default.Checkout()
	}
	return ars
}

func checkinWorkerArenas(ars []*scratch.Arena) {
	for _, a := range ars[1:] {
		scratch.Default.Checkin(a)
	}
}

// velBytes sums the storage of a velocity field.
func velBytes(vel [3]*fab.FAB) int64 {
	var b int64
	for _, v := range vel {
		if v != nil {
			b += v.Bytes()
		}
	}
	return b
}
