// Package amr implements the block-structured adaptive mesh refinement
// substrate the paper's framework context rests on (Section II): Chombo —
// like SAMRAI, BoxLib, AMRClaw and the other frameworks the paper lists —
// solves PDEs within the Berger-Oliger-Colella AMR formulation. This
// package provides a two-level composite grid with:
//
//   - prolongation — filling fine-level ghost cells at the coarse-fine
//     boundary by conservative piecewise-linear interpolation from the
//     coarse level;
//   - restriction — conservative averaging of covered coarse cells from
//     the fine level;
//   - refluxing — replacing the coarse flux on coarse-fine interface faces
//     with the area-averaged fine fluxes, so the composite finite-volume
//     update conserves exactly (the "local conservation property" of
//     Section II);
//   - a composite advance that runs the flux kernel on both levels with
//     any inter-loop scheduling variant.
//
// The fine level is a properly nested refinement of a sub-region of a
// periodic coarse domain. Time stepping is non-subcycled (both levels
// advance with the same dt), the simplest conservative variant.
package amr

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
	"stencilsched/internal/sched"
	"stencilsched/internal/variants"
)

// Hierarchy is a two-level AMR composite grid for the exemplar's
// 5-component state.
type Hierarchy struct {
	// Coarse is the periodic coarse level.
	Coarse *layout.LevelData
	// Fine covers Refine(FineRegion, Ratio); its ghosts are filled from
	// sibling fine boxes and, at the coarse-fine boundary, by
	// interpolation.
	Fine *layout.LevelData
	// FineRegion is the refined sub-region in coarse index space.
	FineRegion box.Box
	// Ratio is the refinement ratio (2 or 4).
	Ratio int
	// DxCoarse is the coarse mesh spacing; the fine spacing is
	// DxCoarse/Ratio.
	DxCoarse float64

	divCoarse []*fab.FAB
	divFine   []*fab.FAB
}

// Config sizes a hierarchy.
type Config struct {
	// CoarseDomainN is the periodic coarse cube domain edge in cells.
	CoarseDomainN int
	// CoarseBoxN and FineBoxN are the box sizes of the two decompositions.
	CoarseBoxN, FineBoxN int
	// FineRegion is the coarse-index region to refine.
	FineRegion box.Box
	// Ratio is the refinement ratio.
	Ratio int
	// DxCoarse defaults to 1.
	DxCoarse float64
	// Threads for all level operations.
	Threads int
}

// New builds the hierarchy. The fine region must be properly nested: grown
// by the ghost depth it must stay inside the coarse domain, so coarse-fine
// interpolation never needs to wrap.
func New(cfg Config) (*Hierarchy, error) {
	if cfg.Ratio != 2 && cfg.Ratio != 4 {
		return nil, fmt.Errorf("amr: ratio %d not supported (2 or 4)", cfg.Ratio)
	}
	if cfg.DxCoarse == 0 {
		cfg.DxCoarse = 1
	}
	domain := box.Cube(cfg.CoarseDomainN)
	if cfg.FineRegion.IsEmpty() || !domain.ContainsBox(cfg.FineRegion.Grow(1)) {
		return nil, fmt.Errorf("amr: fine region %v not properly nested in %v", cfg.FineRegion, domain)
	}
	coarseL, err := layout.Decompose(domain, cfg.CoarseBoxN, [3]bool{true, true, true})
	if err != nil {
		return nil, fmt.Errorf("amr: coarse: %w", err)
	}
	fineDomain := cfg.FineRegion.Refine(cfg.Ratio)
	fineL, err := layout.Decompose(fineDomain, cfg.FineBoxN, [3]bool{})
	if err != nil {
		return nil, fmt.Errorf("amr: fine: %w", err)
	}
	h := &Hierarchy{
		Coarse:     layout.NewLevelData(coarseL, kernel.NComp, kernel.NGhost),
		Fine:       layout.NewLevelData(fineL, kernel.NComp, kernel.NGhost),
		FineRegion: cfg.FineRegion,
		Ratio:      cfg.Ratio,
		DxCoarse:   cfg.DxCoarse,
	}
	for _, b := range coarseL.Boxes {
		h.divCoarse = append(h.divCoarse, fab.New(b, kernel.NComp))
	}
	for _, b := range fineL.Boxes {
		h.divFine = append(h.divFine, fab.New(b, kernel.NComp))
	}
	return h, nil
}

// InitFromFunction fills both levels' valid cells from a cell-center
// pointwise function of physical coordinates (coarse cells are unit-sized
// times DxCoarse).
func (h *Hierarchy) InitFromFunction(threads int, f func(x, y, z float64, c int) float64) {
	dxc := h.DxCoarse
	h.Coarse.FillFromFunction(threads, func(p ivect.IntVect, c int) float64 {
		return f((float64(p[0])+0.5)*dxc, (float64(p[1])+0.5)*dxc, (float64(p[2])+0.5)*dxc, c)
	})
	dxf := dxc / float64(h.Ratio)
	h.Fine.FillFromFunction(threads, func(p ivect.IntVect, c int) float64 {
		return f((float64(p[0])+0.5)*dxf, (float64(p[1])+0.5)*dxf, (float64(p[2])+0.5)*dxf, c)
	})
	h.Restrict(threads)
}

// FillCoarseGhosts performs the periodic coarse exchange.
func (h *Hierarchy) FillCoarseGhosts(threads int) { h.Coarse.Exchange(threads) }

// FillFineGhosts fills every fine ghost cell: first by conservative
// piecewise-linear interpolation from the coarse level (which must have
// valid ghosts itself), then overwriting with real fine data wherever a
// sibling fine box covers the ghost cell.
func (h *Hierarchy) FillFineGhosts(threads int) {
	r := h.Ratio
	h.Fine.ForEachBox(threads, func(i int, valid box.Box, f *fab.FAB) {
		ghosted := valid.Grow(h.Fine.NGhost)
		ghosted.ForEach(func(pf ivect.IntVect) {
			if valid.Contains(pf) {
				return
			}
			pc := pf.CoarsenBy(r)
			cb, cf := h.coarseOwner(pc)
			if cf == nil {
				panic(fmt.Sprintf("amr: no coarse owner for %v (fine ghost %v)", pc, pf))
			}
			_ = cb
			for c := 0; c < kernel.NComp; c++ {
				f.Set(pf, c, interpLinear(cf, pc, pf, r, c))
			}
		})
	})
	h.Fine.Exchange(threads)
}

// coarseOwner finds the coarse box whose ghosted FAB holds cell pc with
// enough neighborhood for slope computation. Periodic wrapping is applied
// through the coarse exchange: the ghosted FABs already hold wrapped data,
// so any box whose grown region contains pc and its +-1 neighbors works.
func (h *Hierarchy) coarseOwner(pc ivect.IntVect) (box.Box, *fab.FAB) {
	for i, b := range h.Coarse.Layout.Boxes {
		if b.Grow(h.Coarse.NGhost - 1).Contains(pc) {
			return b, h.Coarse.Fabs[i]
		}
	}
	return box.Box{}, nil
}

// interpLinear conservatively interpolates the fine value at pf inside
// coarse cell pc with central-difference slopes. The reconstruction has
// zero mean deviation over the coarse cell, so restriction after
// prolongation is the identity, and it is exact for fields linear in the
// coordinates.
func interpLinear(cf *fab.FAB, pc, pf ivect.IntVect, r int, c int) float64 {
	v := cf.Get(pc, c)
	for d := 0; d < 3; d++ {
		slope := (cf.Get(pc.Shift(d, 1), c) - cf.Get(pc.Shift(d, -1), c)) / 2
		// Fine-cell center offset within the coarse cell, in coarse units:
		// ((i mod r) + 0.5)/r - 0.5 in (-1/2, 1/2).
		sub := pf[d] - pc[d]*r
		off := (float64(sub)+0.5)/float64(r) - 0.5
		v += slope * off
	}
	return v
}

// Restrict overwrites covered coarse cells with the conservative average
// of the fine cells above them.
func (h *Hierarchy) Restrict(threads int) {
	r := h.Ratio
	vol := float64(r * r * r)
	h.Coarse.ForEachBox(threads, func(i int, valid box.Box, cfab *fab.FAB) {
		covered := valid.Intersect(h.FineRegion)
		if covered.IsEmpty() {
			return
		}
		covered.ForEach(func(pc ivect.IntVect) {
			fineCells := box.New(pc, pc).Refine(r)
			for c := 0; c < kernel.NComp; c++ {
				var sum float64
				fineCells.ForEach(func(pf ivect.IntVect) {
					sum += h.fineValue(pf, c)
				})
				cfab.Set(pc, c, sum/vol)
			}
		})
	})
}

// fineValue reads a valid fine cell (panics if uncovered — a nesting bug).
func (h *Hierarchy) fineValue(pf ivect.IntVect, c int) float64 {
	for i, b := range h.Fine.Layout.Boxes {
		if b.Contains(pf) {
			return h.Fine.Fabs[i].Get(pf, c)
		}
	}
	panic(fmt.Sprintf("amr: fine cell %v not covered", pf))
}

// computeDiv runs the flux kernel with the given variant on every box of a
// level, producing the undivided flux difference sum_d (F_hi - F_lo).
func computeDiv(ld *layout.LevelData, div []*fab.FAB, v sched.Variant, threads int) {
	states := make([]variants.State, len(div))
	for i, b := range ld.Layout.Boxes {
		div[i].Fill(0)
		states[i] = variants.State{Valid: b, Phi0: ld.Fabs[i], Phi1: div[i]}
	}
	variants.ExecLevel(v, states, threads)
}

// Reflux corrects the coarse divergence at coarse-fine interfaces: the
// coarse flux on each interface face is replaced by the area average of
// the fine fluxes covering it, and the difference is applied to the
// adjacent uncovered coarse cell. After this correction the composite
// update telescopes exactly.
func (h *Hierarchy) Reflux() {
	r := h.Ratio
	area := float64(r * r)
	for dir := 0; dir < 3; dir++ {
		for _, side := range []int{0, 1} {
			// Coarse interface face plane in direction dir.
			var facePlane box.Box
			if side == 0 {
				facePlane = h.FineRegion.SurroundingFaces(dir)
				facePlane.Hi = facePlane.Hi.With(dir, facePlane.Lo[dir])
			} else {
				facePlane = h.FineRegion.SurroundingFaces(dir)
				facePlane.Lo = facePlane.Lo.With(dir, facePlane.Hi[dir])
			}
			facePlane.ForEach(func(fc ivect.IntVect) {
				// Adjacent uncovered coarse cell: on the low side the face
				// is that cell's high face; on the high side its low face.
				var cell ivect.IntVect
				sign := 1.0
				if side == 0 {
					cell = fc.Shift(dir, -1) // div contribution +F_hi
				} else {
					cell = fc // div contribution -F_lo
					sign = -1.0
				}
				ci, cb := h.coarseBoxOf(cell)
				if ci < 0 {
					panic(fmt.Sprintf("amr: no coarse box for cell %v", cell))
				}
				for c := 0; c < kernel.NComp; c++ {
					coarseFlux := h.coarseFaceFlux(ci, fc, dir, c)
					fineSum := h.fineFaceFluxSum(fc, dir, c)
					delta := fineSum/area - coarseFlux
					old := h.divCoarse[ci].Get(cell, c)
					h.divCoarse[ci].Set(cell, c, old+sign*delta)
				}
				_ = cb
			})
		}
	}
}

// coarseBoxOf returns the index and box of the coarse box owning cell p.
func (h *Hierarchy) coarseBoxOf(p ivect.IntVect) (int, box.Box) {
	for i, b := range h.Coarse.Layout.Boxes {
		if b.Contains(p) {
			return i, b
		}
	}
	return -1, box.Box{}
}

// coarseFaceFlux evaluates the coarse flux at face fc in direction dir for
// component c, using the owning coarse box's ghosted data.
func (h *Hierarchy) coarseFaceFlux(boxIdx int, fc ivect.IntVect, dir, c int) float64 {
	faces := box.New(fc, fc)
	out := fab.New(faces, kernel.NComp)
	kernel.FluxOnFaces(h.Coarse.Fabs[boxIdx], faces, dir, out)
	return out.Get(fc, c)
}

// fineFaceFluxSum sums the fine fluxes on the r^2 fine faces covering
// coarse face fc in direction dir for component c.
func (h *Hierarchy) fineFaceFluxSum(fc ivect.IntVect, dir, c int) float64 {
	r := h.Ratio
	// Fine faces covering the coarse face: refine the transverse extent.
	fineFaces := box.New(fc, fc).Refine(r)
	fineFaces.Hi = fineFaces.Hi.With(dir, fineFaces.Lo[dir])
	var sum float64
	fineFaces.ForEach(func(ff ivect.IntVect) {
		fi := h.fineBoxTouchingFace(ff, dir)
		if fi < 0 {
			panic(fmt.Sprintf("amr: no fine box for face %v dir %d", ff, dir))
		}
		faces := box.New(ff, ff)
		out := fab.New(faces, kernel.NComp)
		kernel.FluxOnFaces(h.Fine.Fabs[fi], faces, dir, out)
		sum += out.Get(ff, c)
	})
	return sum
}

// fineBoxTouchingFace finds a fine box whose ghosted data covers the
// stencil of face ff in direction dir.
func (h *Hierarchy) fineBoxTouchingFace(ff ivect.IntVect, dir int) int {
	need := box.New(ff, ff).GrowLo(dir, kernel.NGhost).GrowHi(dir, kernel.NGhost-1)
	for i, b := range h.Fine.Layout.Boxes {
		if b.Grow(h.Fine.NGhost).ContainsBox(need) {
			return i
		}
	}
	return -1
}

// Step advances the composite solution by dt with the conservative
// sequence: fill ghosts on both levels, evaluate both levels' divergences
// with the chosen scheduling variant, reflux, update, restrict.
func (h *Hierarchy) Step(dt float64, v sched.Variant, threads int) {
	h.FillCoarseGhosts(threads)
	h.FillFineGhosts(threads)
	computeDiv(h.Coarse, h.divCoarse, v, threads)
	computeDiv(h.Fine, h.divFine, v, threads)
	h.Reflux()
	dxc := h.DxCoarse
	dxf := dxc / float64(h.Ratio)
	h.Coarse.ForEachBox(threads, func(i int, valid box.Box, f *fab.FAB) {
		f.Plus(h.divCoarse[i], valid, -dt/dxc)
	})
	h.Fine.ForEachBox(threads, func(i int, valid box.Box, f *fab.FAB) {
		f.Plus(h.divFine[i], valid, -dt/dxf)
	})
	h.Restrict(threads)
}

// CompositeMass returns the volume-weighted integral of component c over
// the composite grid: uncovered coarse cells at coarse volume plus fine
// cells at fine volume. It is exactly conserved by Step on the periodic
// coarse domain.
func (h *Hierarchy) CompositeMass(c int) float64 {
	dxc := h.DxCoarse
	volC := dxc * dxc * dxc
	volF := volC / float64(h.Ratio*h.Ratio*h.Ratio)
	var m float64
	for i, b := range h.Coarse.Layout.Boxes {
		f := h.Coarse.Fabs[i]
		b.ForEach(func(p ivect.IntVect) {
			if !h.FineRegion.Contains(p) {
				m += f.Get(p, c) * volC
			}
		})
	}
	for i, b := range h.Fine.Layout.Boxes {
		f := h.Fine.Fabs[i]
		b.ForEach(func(p ivect.IntVect) {
			m += f.Get(p, c) * volF
		})
	}
	return m
}
