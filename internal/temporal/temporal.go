// Package temporal implements temporal blocking — wavefront-in-time
// execution of K explicit Euler steps per sweep — over the exemplar
// kernel. It is the intra-node counterpart of the deep-halo supersteps
// internal/dist runs between ranks: a spatial tile is grown by K*NGhost
// ghost layers, stepped K times on shrinking regions (recomputation
// traded for locality), and only the fully-stepped interior is written
// back. Because every cell value depends only on its stencil inputs
// with identical floating-point operations regardless of how the sweep
// is decomposed, the tiled engine is bitwise identical to composing
// kernel.Reference K times on the whole box.
//
// Two execution contracts are provided:
//
//   - Apply follows the conformance-runner convention but over K steps:
//     phi1 accumulates the K-step state delta, phi1 += state_K - phi0,
//     over the valid box (phi0 must cover valid grown by K*NGhost).
//   - Step is the in-place form internal/dist composes with its deep
//     halos: the K-stepped values are written into an output FAB over
//     the owned box, with sub-step regions clipped so never-stepped
//     cells beyond a physical boundary stay untouched (zero).
package temporal

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/parallel"
	"stencilsched/internal/scratch"
	"stencilsched/internal/variants/generated"
)

// Config selects the shape of a temporal sweep.
type Config struct {
	// K is the number of Euler steps fused into one sweep. K=1 is a
	// single step (no temporal reuse, but the same contract).
	K int
	// TileEdge is the spatial tile edge; tiles partition the valid box
	// and each carries its own grown working set. <=0 runs the whole
	// box as one tile.
	TileEdge int
	// Threads is the worker count across tiles; <=1 is serial. Tiles
	// write disjoint regions, so the result is thread-independent.
	Threads int
	// Dt is the Euler step; 0 means kernel.EulerDt.
	Dt float64
}

func (c Config) dt() float64 {
	if c.Dt == 0 {
		return kernel.EulerDt
	}
	return c.Dt
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("temporal: K=%d must be >= 1", c.K)
	}
	return nil
}

// GhostDepth is the ghost-layer depth a K-step sweep reads: each Euler
// step consumes one stencil radius of the shell.
func GhostDepth(k int) int { return k * kernel.NGhost }

// AddDiff adds (a - b) to dst over r for every component: the K-step
// delta contract. All three implementations of a temporal schedule
// (reference, tiled engine, schedc-generated code) funnel their final
// writeback through this exact expression so results stay bitwise
// reproducible.
func AddDiff(dst, a, b *fab.FAB, r box.Box) {
	if dst.NComp() != a.NComp() || dst.NComp() != b.NComp() {
		panic(fmt.Sprintf("temporal: adddiff ncomp mismatch %d/%d/%d",
			dst.NComp(), a.NComp(), b.NComp()))
	}
	r = r.Intersect(dst.Box()).Intersect(a.Box()).Intersect(b.Box())
	if r.IsEmpty() {
		return
	}
	nx := r.Hi[0] - r.Lo[0] + 1
	dd, ad, bd := dst.Data(), a.Data(), b.Data()
	for c := 0; c < dst.NComp(); c++ {
		for z := r.Lo[2]; z <= r.Hi[2]; z++ {
			for y := r.Lo[1]; y <= r.Hi[1]; y++ {
				p := ivect.New(r.Lo[0], y, z)
				od, oa, ob := dst.Index(p, c), a.Index(p, c), b.Index(p, c)
				for x := 0; x < nx; x++ {
					dd[od+x] += ad[oa+x] - bd[ob+x]
				}
			}
		}
	}
}

// Reference composes kernel.Reference k times — the temporal oracle.
// State starts as a copy of phi0 over valid grown by k*NGhost; Euler
// step j updates the region grown by (k-1-j)*NGhost (the shrinking
// wavefront); the final delta accumulates into phi1 over valid. Every
// optimized temporal schedule is tested for bitwise equality against
// this composition.
func Reference(phi0, phi1 *fab.FAB, valid box.Box, k int, dt float64) {
	kernel.CheckStateK(phi0, phi1, valid, k)
	ng := kernel.NGhost
	state := fab.New(valid.Grow(k*ng), kernel.NComp)
	state.CopyFrom(phi0, state.Box())
	acc := fab.New(valid.Grow((k-1)*ng), kernel.NComp)
	for j := 0; j < k; j++ {
		reg := valid.Grow((k - 1 - j) * ng)
		acc.Fill(0)
		kernel.Reference(state, acc, reg)
		state.Plus(acc, reg, -dt)
	}
	AddDiff(phi1, state, phi0, valid)
}

// stepTile advances one tile k Euler steps in arena storage and returns
// the stepped state FAB (valid over tile.Grow(k*NGhost)). Sub-step
// regions are intersected with clip; state cells outside clip are zero
// and never stepped, matching the physical-boundary ghost convention of
// internal/dist. The caller owns the arena mark.
func stepTile(ar *scratch.Arena, src *fab.FAB, tile, clip box.Box, k int, dt float64) (*fab.FAB, error) {
	ng := kernel.NGhost
	stateBox := tile.Grow(k * ng)
	state := ar.FAB(stateBox, kernel.NComp)
	read := stateBox.Intersect(clip).Intersect(src.Box())
	if read != stateBox {
		// Beyond-clip cells read as zero through every sub-step.
		state.Fill(0)
	}
	state.CopyFrom(src, read)
	acc := ar.FAB(tile.Grow((k-1)*ng), kernel.NComp)
	for j := 0; j < k; j++ {
		reg := tile.Grow((k - 1 - j) * ng).Intersect(clip)
		if reg.IsEmpty() {
			continue
		}
		for c := 0; c < kernel.NComp; c++ {
			acc.FillRegion(reg, c, 0)
		}
		// One flux-divergence application, compiled form of the
		// shifted-and-fused schedule — bit-identical to kernel.Reference.
		if err := generated.RunShiftFuse(state, acc, reg, 1); err != nil {
			return nil, err
		}
		state.Plus(acc, reg, -dt)
	}
	return state, nil
}

// tilesOf partitions valid into the sweep's spatial tiles.
func tilesOf(valid box.Box, edge int) []box.Box {
	if edge <= 0 {
		return []box.Box{valid}
	}
	return valid.Tiles(edge)
}

// forTiles runs fn over every tile with a checked-out arena and returns
// the first error: in parallel across cfg.Threads workers, or directly on
// the caller when the sweep is serial.
func forTiles(valid box.Box, cfg Config, fn func(ar *scratch.Arena, tile box.Box) error) error {
	tiles := tilesOf(valid, cfg.TileEdge)
	if cfg.Threads <= 1 {
		ar := scratch.Default.Checkout()
		defer scratch.Default.Checkin(ar)
		for _, tile := range tiles {
			ar.Reset()
			if err := fn(ar, tile); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tiles))
	parallel.For(cfg.Threads, len(tiles), func(tid, i int) {
		ar := scratch.Default.Checkout()
		defer scratch.Default.Checkin(ar)
		errs[i] = fn(ar, tiles[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Apply runs a K-step temporal sweep under the conformance-runner
// contract: phi0 must cover valid grown by GhostDepth(cfg.K), and phi1
// accumulates the K-step delta over valid. Bitwise identical to
// Reference for any tile edge and thread count.
func Apply(phi0, phi1 *fab.FAB, valid box.Box, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	kernel.CheckStateK(phi0, phi1, valid, cfg.K)
	clip := valid.Grow(GhostDepth(cfg.K))
	return forTiles(valid, cfg, func(ar *scratch.Arena, tile box.Box) error {
		state, err := stepTile(ar, phi0, tile, clip, cfg.K, cfg.dt())
		if err != nil {
			return err
		}
		AddDiff(phi1, state, phi0, tile)
		return nil
	})
}

// Step advances src by cfg.K Euler steps and writes the stepped values
// into out over owned (an exact copy, no floating-point rework). src
// must cover owned grown by GhostDepth(cfg.K) intersected with clip;
// cells outside clip are treated as zero and never stepped — the deep
// halo convention of internal/dist at non-periodic boundaries. out and
// src may be the same FAB only if the sweep is a single tile (tiles
// read their neighbors' pre-step values), so dist passes a separate
// output buffer.
func Step(src, out *fab.FAB, owned, clip box.Box, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if src.NComp() != kernel.NComp || out.NComp() != kernel.NComp {
		return fmt.Errorf("temporal: state must have %d components (got %d, %d)",
			kernel.NComp, src.NComp(), out.NComp())
	}
	need := owned.Grow(GhostDepth(cfg.K)).Intersect(clip)
	if !src.Box().ContainsBox(need) {
		return fmt.Errorf("temporal: src box %v does not cover %v (owned %v grown by %d, clipped)",
			src.Box(), need, owned, GhostDepth(cfg.K))
	}
	if !out.Box().ContainsBox(owned) {
		return fmt.Errorf("temporal: out box %v does not cover owned %v", out.Box(), owned)
	}
	return forTiles(owned, cfg, func(ar *scratch.Arena, tile box.Box) error {
		state, err := stepTile(ar, src, tile, clip, cfg.K, cfg.dt())
		if err != nil {
			return err
		}
		out.CopyFrom(state, tile)
		return nil
	})
}
