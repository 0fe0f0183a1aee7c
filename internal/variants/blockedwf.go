package variants

import (
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
	"stencilsched/internal/tiling"
	"stencilsched/internal/wavefront"
)

// execBlockedWF runs the shifted, fused and tiled schedule of Section IV-C
// (Fig. 8b): the fused iteration space is tiled with T^3 tiles, tile
// (i,j,k) depends on its three lexicographic predecessor tiles through the
// carried flux values, and tiles on the same anti-diagonal execute
// concurrently.
//
// Carried flux values cross tile boundaries through global co-dimension
// caches — one slot per lattice column in each direction (the paper's "flux
// cache", 3-D for CLO and 4-D for CLI), indexed relative to the valid box.
// Slots double as the intra-tile carried values: each cell reads its
// low-face flux from the slot and leaves its high-face flux there, so the
// same sweep (fusedSweep.run) works for any tile shape — a single tile
// covering the box is the serial shifted-and-fused sweep, a one-cell tile
// the per-iteration wavefront. Within a wavefront no two tiles share a
// column in any direction (tiles sharing an (y,z) column differ only in
// the x tile index and therefore sit on different anti-diagonals), so the
// wavefront barrier is the only synchronization required.
func execBlockedWF(s *state, comp sched.CompLoop, shape ivect.IntVect, threads int, ar *scratch.Arena) Stats {
	stats := Stats{UniqueFaces: s.uniqueFaces()}
	stats.FacesEvaluated = stats.UniqueFaces
	vel := velocityField(s, s.valid, threads, ar)
	stats.TempVelBytes = velBytes(vel)

	dec := tiling.DecomposeVect(s.valid, shape)
	nc := compsInFlight(comp)
	f := newFusedSweep(s, vel, s.valid, nc, true, ar)
	stats.TempFluxBytes = f.cacheBytes()

	// One closure serves every component run (the sweep carries the
	// component range) instead of allocating one per run. It runs once per
	// tile inside wavefront workers, so it must not allocate.
	body := func(_ int, tv ivect.IntVect) {
		f.run(dec.TileAt(tv).Cells)
	}
	for c := 0; c < kernel.NComp; c += nc {
		f.cLo, f.cHi = c, c+nc
		stats.Wavefront = wavefront.Run(dec.Grid.Size(), threads, body)
	}
	return stats
}
