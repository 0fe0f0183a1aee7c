package variants

import (
	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
	"stencilsched/internal/wavefront"
)

// execShiftFuse runs the shifted-and-fused schedule of Section IV-B
// (Fig. 8a). The three advection-velocity face fields are precomputed
// (Table I charges the fused schedules 3(N+1)^3 velocity temporaries), and
// then a single sweep over cells computes, per cell, the six face fluxes it
// needs and accumulates all three direction contributions at once. Flux
// values are reused across iterations through carried caches — a scalar in
// x, a row in y and a plane in z — which creates the (x-1),(y-1),(z-1)
// dependences that force either serial execution or wavefront parallelism.
//
// withinBox selects P<Box: a per-iteration wavefront over cells (the
// variant the paper notes "ruins spatial locality in the X-direction").
// Otherwise the sweep is serial within the box.
func execShiftFuse(s *state, comp sched.CompLoop, withinBox bool, threads int, ar *scratch.Arena) Stats {
	stats := Stats{UniqueFaces: s.uniqueFaces()}
	stats.FacesEvaluated = stats.UniqueFaces
	vel := velocityField(s, s.valid, threads, ar)
	stats.TempVelBytes = velBytes(vel)

	// Serial: scalar/row/plane carried caches (Table I's 2 + 2N + 2N^2
	// flux temporaries per in-flight component). Per-iteration wavefront:
	// one slot per lattice column in each direction, because cells of
	// different rows and planes are in flight between the same barriers.
	nc := compsInFlight(comp)
	f := newFusedSweep(s, vel, s.valid, nc, withinBox, ar)
	stats.TempFluxBytes = f.cacheBytes()
	if !withinBox {
		f.runAllComps(s.valid)
		return stats
	}
	// A cell is a one-cell tile of the blocked wavefront: its cache slots
	// are written only by its lexicographic predecessors in earlier
	// wavefronts, so the barrier between wavefronts is the only
	// synchronization needed. The closure gets its own copy of the sweep
	// so that the serial path above keeps f off the heap.
	w := f
	body := func(_ int, rel ivect.IntVect) {
		p := w.org.Add(rel)
		w.run(box.Box{Lo: p, Hi: p})
	}
	for c := 0; c < kernel.NComp; c += nc {
		w.cLo, w.cHi = c, c+nc
		stats.Wavefront = wavefront.Run(s.valid.Size(), threads, body)
	}
	return stats
}

// compsInFlight is how many components a fused schedule carries through
// one sweep of the box: all of them for CLI, one (and a sweep per
// component) for CLO.
func compsInFlight(comp sched.CompLoop) int {
	if comp == sched.CLO {
		return 1
	}
	return kernel.NComp
}

// fusedSweep is the shifted-and-fused sweep shared by every schedule of the
// fused family: the serial sweep, the per-iteration and blocked wavefronts
// (one run per cell or tile) and the fused overlapped tiles (one sweep per
// tile). It holds raw views of the three velocity fields and the carried
// flux caches, which are indexed relative to org: a cell on a low face of
// org recomputes its low-face flux directly (the loop "shift" of Fig. 8a),
// every other cell reads the flux its predecessor left in the cache and
// leaves its own high-face flux there.
type fusedSweep struct {
	s          *state
	vx, vy, vz velAcc
	org        ivect.IntVect // low corner of the box the caches cover
	// cLo, cHi are the components in flight: run sweeps [cLo, cHi), and
	// the caches have cHi-cLo component slots.
	cLo, cHi int
	// fx holds the x flux leaving a row, fy a row of y fluxes, fz a plane
	// of z fluxes, each per in-flight component (strides fxC, fyC, fzC).
	// A sweep of org alone carries one fx scalar and one fy row; tiles of
	// org in flight between barriers need a slot per lattice column (fx
	// by (y,z), fy by (x,z)), which non-zero y and z strides select.
	fx, fy, fz    []float64
	fxY, fxZ, fxC int
	fyZ, fyC      int
	fzY, fzC      int
}

// newFusedSweep draws the carried caches over org for nc in-flight
// components (initially [0, nc)) from ar. perColumn selects the
// one-slot-per-column layout of the wavefront schedules. Contents are
// undefined: every slot is seeded at org's low faces before it is read.
func newFusedSweep(s *state, vel [3]*fab.FAB, org box.Box, nc int, perColumn bool, ar *scratch.Arena) fusedSweep {
	sz := org.Size()
	f := fusedSweep{
		s: s, vx: newVelAcc(vel[0]), vy: newVelAcc(vel[1]), vz: newVelAcc(vel[2]),
		org: org.Lo, cHi: nc,
		fxC: 1, fyC: sz[0], fzY: sz[0], fzC: sz[0] * sz[1],
	}
	if perColumn {
		f.fxY, f.fxZ, f.fxC = 1, sz[1], sz[1]*sz[2]
		f.fyZ, f.fyC = sz[0], sz[0]*sz[2]
	}
	f.fx = ar.Floats(nc * f.fxC)
	f.fy = ar.Floats(nc * f.fyC)
	f.fz = ar.Floats(nc * f.fzC)
	return f
}

// cacheBytes is the carried-cache storage, Table I's flux temporaries.
func (f *fusedSweep) cacheBytes() int64 {
	return int64(len(f.fx)+len(f.fy)+len(f.fz)) * 8
}

// run sweeps the cells of tile (a sub-box of org, or org itself) in
// lexicographic order for the components in flight. Everything that does
// not vary along x — offsets, velocity and cache rows, whether the row sits
// on a low face of org — is resolved before the row: the offsets of a
// plane's first row once per plane, stepped by the y strides from there
// (a 16-cell row is a few dozen vector instructions, so per-row offset
// arithmetic from an IntVect shows in the profile); the cells are
// kernel.FusedRow's. With several components in flight (CLI) the component
// loop sits here, between the y and the x loop.
func (f *fusedSweep) run(tile box.Box) {
	s := f.s
	sy, sz := s.str0[1], s.str0[2]
	x0 := tile.Lo[0]
	n := tile.Hi[0] - x0 + 1
	xi := x0 - f.org[0]
	for z := tile.Lo[2]; z <= tile.Hi[2]; z++ {
		zi := z - f.org[2]
		p := ivect.New(x0, tile.Lo[1], z)
		o0, o1 := s.off0(p), s.off1(p)
		ox, oy, oz := f.vx.off(p), f.vy.off(p), f.vz.off(p)
		for y := tile.Lo[1]; y <= tile.Hi[1]; y++ {
			yi := y - f.org[1]
			vx := f.vx.data[ox:] // faces x0 .. x0+n: low face of the row, then each cell's high face
			vy, vz := f.vy.data[oy:], f.vz.data[oz:]
			for c := f.cLo; c < f.cHi; c++ {
				ph := s.comps0[c]
				ci := c - f.cLo
				fy := f.fy[ci*f.fyC+zi*f.fyZ+xi:][:n]
				fz := f.fz[ci*f.fzC+yi*f.fzY+xi:][:n]
				if yi == 0 {
					kernel.SeedRow(fy, vy, ph, o0, sy)
				}
				if zi == 0 {
					kernel.SeedRow(fz, vz, ph, o0, sz)
				}
				fx := &f.fx[ci*f.fxC+zi*f.fxZ+yi*f.fxY]
				if xi == 0 {
					*fx = kernel.Flux2(vx[0], kernel.FaceAvg(ph, o0, 1))
				}
				*fx = kernel.FusedRow(s.comps1[c][o1:o1+n], ph, o0, sy, sz,
					vx[1:], vy[f.vy.sy:], vz[f.vz.sz:], fy, fz, *fx)
			}
			o0, o1 = o0+sy, o1+s.str1[1]
			ox, oy, oz = ox+f.vx.sy, oy+f.vy.sy, oz+f.vz.sy
		}
	}
}

// runAllComps sweeps tile for every component, as many at a time as the
// caches hold in flight: the serial schedule of a box or an overlapped tile.
func (f *fusedSweep) runAllComps(tile box.Box) {
	nc := f.cHi - f.cLo
	for c := 0; c < kernel.NComp; c += nc {
		f.cLo, f.cHi = c, c+nc
		f.run(tile)
	}
}
