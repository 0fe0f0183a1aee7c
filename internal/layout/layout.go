// Package layout provides the level-of-boxes data management of a
// structured-grid PDE framework: disjoint box layouts (the domain
// decomposition), level data (one ghosted FArrayBox per box), and the
// ghost-cell exchange that fills each box's ghost layers from the valid
// regions of neighboring boxes, with optional periodic wrapping.
//
// It is the mini-Chombo substrate of this reproduction: the paper's
// motivation (Fig. 1) is that small boxes pay a large exchange overhead
// relative to their physical cells, pushing frameworks toward the large
// boxes whose on-node scheduling the study then repairs.
package layout

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/parallel"
)

// Layout is a disjoint decomposition of a rectangular domain into boxes.
type Layout struct {
	// Domain is the problem domain in cells.
	Domain box.Box
	// Periodic marks the directions with periodic boundary conditions.
	Periodic [3]bool
	// Boxes are the disjoint boxes covering Domain, ordered x-fastest by
	// grid position when produced by Decompose.
	Boxes []box.Box
}

// Decompose splits domain into boxes of at most boxSize cells per
// dimension (ragged at the high ends when boxSize does not divide the
// domain), the decomposition Chombo applies to a level.
func Decompose(domain box.Box, boxSize int, periodic [3]bool) (*Layout, error) {
	if domain.IsEmpty() {
		return nil, fmt.Errorf("layout: empty domain")
	}
	if boxSize <= 0 {
		return nil, fmt.Errorf("layout: box size %d must be positive", boxSize)
	}
	l := &Layout{Domain: domain, Periodic: periodic, Boxes: domain.Tiles(boxSize)}
	if err := l.Verify(); err != nil {
		return nil, err
	}
	return l, nil
}

// Verify checks the layout invariants: every box non-empty and inside the
// domain, and the boxes partition the domain exactly.
func (l *Layout) Verify() error {
	total := 0
	for i, b := range l.Boxes {
		if b.IsEmpty() {
			return fmt.Errorf("layout: box %d empty", i)
		}
		if !l.Domain.ContainsBox(b) {
			return fmt.Errorf("layout: box %d (%v) escapes domain %v", i, b, l.Domain)
		}
		total += b.NumPts()
	}
	if total != l.Domain.NumPts() {
		return fmt.Errorf("layout: boxes cover %d of %d domain cells", total, l.Domain.NumPts())
	}
	// Disjointness via the spatial index: each box only checks the
	// handful of boxes sharing its buckets, keeping Verify linear for the
	// paper's 12,288-box layouts.
	ix := newBoxIndex(l)
	var overlapErr error
	for i, a := range l.Boxes {
		i, a := i, a
		ix.query(a, func(j int) {
			if overlapErr == nil && j != i && a.Intersects(l.Boxes[j]) {
				overlapErr = fmt.Errorf("layout: boxes %d and %d overlap", i, j)
			}
		})
		if overlapErr != nil {
			return overlapErr
		}
	}
	return nil
}

// NumBoxes returns the number of boxes in the layout.
func (l *Layout) NumBoxes() int { return len(l.Boxes) }

// periodicShifts enumerates the periodic image shifts relevant for ghost
// filling: per periodic direction {-L, 0, +L}, otherwise {0}.
func (l *Layout) periodicShifts() []ivect.IntVect {
	opts := [3][]int{}
	size := l.Domain.Size()
	for d := 0; d < 3; d++ {
		if l.Periodic[d] {
			opts[d] = []int{-size[d], 0, size[d]}
		} else {
			opts[d] = []int{0}
		}
	}
	var out []ivect.IntVect
	for _, sz := range opts[2] {
		for _, sy := range opts[1] {
			for _, sx := range opts[0] {
				out = append(out, ivect.New(sx, sy, sz))
			}
		}
	}
	return out
}

// Motion is one copy the exchange performs: fill Region of box Dst's
// ghosted FAB by reading box Src's FAB at Region + Shift (Shift is the
// negated periodic image displacement).
type Motion struct {
	Src, Dst int
	Region   box.Box
	Shift    ivect.IntVect
}

// Copier is a precomputed ghost-exchange plan for one layout and ghost
// depth, the analogue of Chombo's Copier. Building it costs O(boxes^2 *
// periodic images); executing it is pure data motion.
type Copier struct {
	Layout *Layout
	NGhost int
	// motions grouped by destination box so the exchange can run
	// destination-parallel without write conflicts.
	byDst [][]Motion
	count int
}

// boxIndex is a uniform spatial hash over the domain accelerating
// "which boxes intersect this region" queries, so copier construction is
// near-linear in the box count rather than quadratic.
type boxIndex struct {
	bucket  ivect.IntVect // bucket size per dimension (max box extent)
	origin  ivect.IntVect
	dims    ivect.IntVect // bucket-grid dimensions
	cells   [][]int       // bucket -> box indices
	stamp   []int         // per-box dedup stamp
	queryID int
}

func newBoxIndex(l *Layout) *boxIndex {
	ix := &boxIndex{origin: l.Domain.Lo, bucket: ivect.Ones, stamp: make([]int, len(l.Boxes))}
	for _, b := range l.Boxes {
		ix.bucket = ix.bucket.Max(b.Size())
	}
	sz := l.Domain.Size()
	for d := 0; d < 3; d++ {
		ix.dims[d] = (sz[d] + ix.bucket[d] - 1) / ix.bucket[d]
	}
	ix.cells = make([][]int, ix.dims.Prod())
	for i, b := range l.Boxes {
		ix.forBuckets(b, func(cell int) {
			ix.cells[cell] = append(ix.cells[cell], i)
		})
	}
	return ix
}

// forBuckets visits the bucket cells overlapping region, clipped to the
// grid.
func (ix *boxIndex) forBuckets(region box.Box, fn func(cell int)) {
	var lo, hi ivect.IntVect
	for d := 0; d < 3; d++ {
		lo[d] = (region.Lo[d] - ix.origin[d]) / ix.bucket[d]
		hi[d] = (region.Hi[d] - ix.origin[d]) / ix.bucket[d]
		if region.Lo[d]-ix.origin[d] < 0 {
			lo[d] = 0 // clip: out-of-domain parts have no boxes anyway
		}
		lo[d] = max(0, min(lo[d], ix.dims[d]-1))
		hi[d] = max(0, min(hi[d], ix.dims[d]-1))
	}
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for x := lo[0]; x <= hi[0]; x++ {
				fn(x + ix.dims[0]*(y+ix.dims[1]*z))
			}
		}
	}
}

// query invokes fn once per box whose bounds may intersect region.
func (ix *boxIndex) query(region box.Box, fn func(boxIdx int)) {
	ix.queryID++
	ix.forBuckets(region, func(cell int) {
		for _, bi := range ix.cells[cell] {
			if ix.stamp[bi] != ix.queryID {
				ix.stamp[bi] = ix.queryID
				fn(bi)
			}
		}
	})
}

// NewCopier builds the exchange plan: for every destination box, every
// ghost cell whose periodic preimage lies in the domain is mapped to the
// unique source box covering that preimage. A spatial index keeps the
// construction near-linear in the box count (12,288 boxes at N=16 on the
// paper's domain would otherwise cost ~10^9 box-pair tests).
func NewCopier(l *Layout, nghost int) *Copier {
	if nghost < 0 {
		panic(fmt.Sprintf("layout: negative ghost depth %d", nghost))
	}
	c := &Copier{Layout: l, NGhost: nghost, byDst: make([][]Motion, len(l.Boxes))}
	shifts := l.periodicShifts()
	ix := newBoxIndex(l)
	for di, db := range l.Boxes {
		ghosted := db.Grow(nghost)
		for _, sh := range shifts {
			// src ∩ ghosted.Shift(-sh) in unshifted source coordinates.
			target := ghosted.ShiftVect(sh.Neg())
			sh := sh
			ix.query(target, func(si int) {
				if si == di && sh == ivect.Zero {
					return // a box's own valid data is already in place
				}
				r := ghosted.Intersect(l.Boxes[si].ShiftVect(sh))
				if r.IsEmpty() {
					return
				}
				c.byDst[di] = append(c.byDst[di], Motion{
					Src: si, Dst: di, Region: r, Shift: sh.Neg(),
				})
				c.count++
			})
		}
	}
	return c
}

// NumMotions returns the number of copy regions in the plan.
func (c *Copier) NumMotions() int { return c.count }

// Motions returns the plan's copy regions grouped by destination box. The
// slices are shared with the copier; callers must not mutate them.
func (c *Copier) Motions() [][]Motion { return c.byDst }

// ExchangeBytes returns the total bytes one exchange moves for the given
// component count — the ghost-communication volume the paper's Figure 1
// motivates minimizing via larger boxes.
func (c *Copier) ExchangeBytes(ncomp int) int64 {
	var cells int64
	for _, ms := range c.byDst {
		for _, m := range ms {
			cells += int64(m.Region.NumPts())
		}
	}
	return cells * int64(ncomp) * 8
}

// LevelData holds one ghosted FAB per layout box, the distributed solution
// container of the framework.
type LevelData struct {
	Layout *Layout
	NComp  int
	NGhost int
	Fabs   []*fab.FAB
	copier *Copier
}

// NewLevelData allocates level data with the given components and ghost
// depth, and precomputes its exchange plan.
func NewLevelData(l *Layout, ncomp, nghost int) *LevelData {
	ld := &LevelData{
		Layout: l,
		NComp:  ncomp,
		NGhost: nghost,
		Fabs:   make([]*fab.FAB, len(l.Boxes)),
		copier: NewCopier(l, nghost),
	}
	for i, b := range l.Boxes {
		ld.Fabs[i] = fab.New(b.Grow(nghost), ncomp)
	}
	return ld
}

// Copier returns the exchange plan.
func (ld *LevelData) Copier() *Copier { return ld.copier }

// Exchange fills every box's ghost cells from the valid data of the boxes
// covering them (including periodic images), in parallel over destination
// boxes. Ghost cells with no periodic preimage in the domain (physical
// boundaries of non-periodic directions) are left untouched.
func (ld *LevelData) Exchange(threads int) {
	parallel.Dynamic(threads, len(ld.Fabs), 1, func(_, di int) {
		for _, m := range ld.copier.byDst[di] {
			ld.Fabs[di].CopyFromShifted(ld.Fabs[m.Src], m.Region, m.Shift, 0, 0, ld.NComp)
		}
	})
}

// ForEachBox runs fn(i, valid, fab) over the level's boxes with the given
// thread count — the P>=Box iteration pattern.
func (ld *LevelData) ForEachBox(threads int, fn func(i int, valid box.Box, f *fab.FAB)) {
	parallel.Dynamic(threads, len(ld.Fabs), 1, func(_, i int) {
		fn(i, ld.Layout.Boxes[i], ld.Fabs[i])
	})
}

// FillFromFunction sets every valid cell (not ghosts) of every box from the
// pointwise function f(p, comp).
func (ld *LevelData) FillFromFunction(threads int, f func(p ivect.IntVect, c int) float64) {
	ld.ForEachBox(threads, func(i int, valid box.Box, fb *fab.FAB) { fb.FillFunc(valid, f) })
}

// SumComp sums component c over all valid regions — a conserved quantity
// for conservative updates.
func (ld *LevelData) SumComp(c int) float64 {
	var s float64
	for i, fb := range ld.Fabs {
		s += fb.SumComp(ld.Layout.Boxes[i], c)
	}
	return s
}

// PaperDomain returns the evaluation domain of Section III-C: 50,331,648
// cells arranged as 512 x 384 x 256, which divides evenly into 12,288 boxes
// of 16^3, 1,536 of 32^3, 192 of 64^3 or 24 of 128^3.
func PaperDomain() box.Box {
	return box.NewSized(ivect.Zero, ivect.New(512, 384, 256))
}
