package variants

import (
	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/parallel"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
	"stencilsched/internal/tiling"
)

// execOverlapped runs the overlapped-tile (communication-avoiding) schedule
// of Section IV-D (Fig. 8c). The box is partitioned into T^3 tiles and each
// tile independently evaluates every face flux its own cells consume —
// faces on shared tile surfaces are evaluated by both neighbors, trading
// redundant computation for the removal of all inter-tile dependences.
// Because the recomputed fluxes are the same expressions over the same
// read-only phi0, results remain bitwise identical to the reference.
//
// intra selects the schedule within each tile: BasicSched runs the original
// series of loops on the tile (with tile-sized flux and velocity
// temporaries); FusedSched runs the shifted-and-fused sweep seeded by
// direct recomputation at the tile surface (Table I's per-thread
// 2 + 2T + 2T^2 flux and 3(T+1)^3 velocity temporaries).
//
// Tiles are distributed to threads dynamically; each thread holds one
// scratch arena, reset per tile, so temporary storage scales with P (the
// paper's Table I factor) and is retained for the next execution. threads
// must already be clamped (Exec does), and ar — reused as worker 0's
// arena — must hold no live allocations.
func execOverlapped(s *state, intra sched.IntraTile, shape ivect.IntVect, threads int, ar *scratch.Arena) Stats {
	stats := Stats{UniqueFaces: s.uniqueFaces()}
	dec := tiling.DecomposeVect(s.valid, shape)
	stats.FacesEvaluated = dec.OverlapStats().EvaluatedFaces

	ars := checkoutWorkerArenas(threads, ar)
	defer checkinWorkerArenas(ars)

	// Per-thread temporary sizes, computed analytically from the largest
	// tile (measuring inside the parallel loop would race).
	p := int64(threads)
	var tileFaceMax, tileFaceSum int64
	t0 := dec.Tiles[0].Cells
	for d := 0; d < 3; d++ {
		n := int64(t0.SurroundingFaces(d).NumPts())
		tileFaceSum += n
		if n > tileFaceMax {
			tileFaceMax = n
		}
	}

	if intra == sched.BasicSched {
		// Run the original series-of-loops schedule on each tile. The tile
		// plays the role of the box: all of its surrounding faces are
		// evaluated locally into tile-sized temporaries. Each worker
		// reuses one pooled sub-state across its tiles.
		subs := make([]*state, threads)
		parallel.Dynamic(threads, dec.NumTiles(), 1, func(tid, i int) {
			tar := ars[tid]
			tar.Reset()
			sub := subs[tid]
			if sub == nil {
				sub = statePool.Get().(*state)
				subs[tid] = sub
			}
			*sub = *s
			sub.valid = dec.Tiles[i].Cells
			execSeries(sub, sched.CLO, 1, tar)
		})
		for _, sub := range subs {
			if sub != nil {
				*sub = state{}
				statePool.Put(sub)
			}
		}
		stats.TempFluxBytes = tileFaceMax * kernel.NComp * 8 * p
		stats.TempVelBytes = tileFaceMax * 8 * p
		return stats
	}

	parallel.Dynamic(threads, dec.NumTiles(), 1, func(tid, i int) {
		fusedTile(s, dec.Tiles[i].Cells, ars[tid])
	})
	stats.TempFluxBytes = int64(1+shape[0]+shape[0]*shape[1]) * 8 * p
	stats.TempVelBytes = tileFaceSum * 8 * p
	return stats
}

// fusedTile runs the fused intra-tile schedule on one tile: per-tile
// velocity recomputation plus the fused sweep with carried scalar/row/
// plane caches seeded at the tile surface. The caches carry nothing
// across tiles or components (every pass seeds them at the tile
// boundary), so resetting the worker's arena per tile is safe and keeps
// the retained peak at one tile's velocity field plus carried caches.
func fusedTile(s *state, tile box.Box, tar *scratch.Arena) {
	tar.Reset()
	// One component in flight: the studied OT variants are CLO (the
	// paper dropped CLI inside tiles after untiled CLI proved
	// uniformly slower).
	f := newFusedSweep(s, velocityField(s, tile, 1, tar), tile, 1, false, tar)
	f.runAllComps(tile)
}
