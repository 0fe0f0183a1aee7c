package variants

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/parallel"
	"stencilsched/internal/scratch"
	"stencilsched/internal/tiling"
)

// ExecHierarchicalOT is a prototype of hierarchical overlapped tiling
// (Zhou et al. [50], the related work the paper identifies as the
// automation path for its schedules): two nested levels of overlapped
// tiles. Outer tiles are distributed to threads; within each outer tile
// the fused overlapped-tile schedule runs serially over inner tiles sized
// for the upper cache levels. The grouping changes the traversal order —
// inner tiles of one outer tile run consecutively, keeping the outer
// tile's footprint hot in the shared cache — while recomputation happens
// at inner-tile surfaces exactly as in the flat fused OT schedule.
//
// Like every schedule in this package, results are bit-identical to
// kernel.Reference. It is exposed as a future-work executor rather than a
// sched.Variant: the paper studies flat schedules, and the registry
// mirrors the paper.
func ExecHierarchicalOT(phi0, phi1 *fab.FAB, valid box.Box, outer, inner ivect.IntVect, threads int) Stats {
	kernel.CheckState(phi0, phi1, valid)
	for d := 0; d < 3; d++ {
		if inner[d] <= 0 || outer[d] <= 0 {
			panic(fmt.Sprintf("variants: bad hierarchical tile shapes %v / %v", outer, inner))
		}
		if inner[d] > outer[d] {
			panic(fmt.Sprintf("variants: inner tile %v exceeds outer %v", inner, outer))
		}
	}
	s := statePool.Get().(*state)
	s.init(phi0, phi1, valid)
	defer func() {
		*s = state{}
		statePool.Put(s)
	}()
	stats := Stats{UniqueFaces: s.uniqueFaces()}

	outerDec := tiling.DecomposeVect(valid, outer)
	threads = parallel.Threads(threads)
	ars := checkoutWorkerArenas(threads, scratch.Default.Checkout())
	defer scratch.Default.Checkin(ars[0])
	defer checkinWorkerArenas(ars)

	var evaluated int64
	evals := make([]int64, len(outerDec.Tiles))
	parallel.Dynamic(threads, outerDec.NumTiles(), 1, func(tid, i int) {
		ot := outerDec.Tiles[i].Cells
		innerDec := tiling.DecomposeVect(ot, inner)
		evals[i] = innerDec.OverlapStats().EvaluatedFaces
		for _, it := range innerDec.Tiles {
			fusedTile(s, it.Cells, ars[tid])
		}
	})
	for _, e := range evals {
		evaluated += e
	}
	stats.FacesEvaluated = evaluated
	p := int64(threads)
	stats.TempFluxBytes = int64(1+inner[0]+inner[0]*inner[1]) * 8 * p
	var tface int64
	for d := 0; d < 3; d++ {
		f := inner
		f[d]++
		tface += int64(f.Prod())
	}
	stats.TempVelBytes = tface * 8 * p
	return stats
}
