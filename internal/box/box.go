// Package box provides rectangular index domains over the 3-D integer
// lattice. A Box is the fundamental building block of structured-grid PDE
// frameworks (Chombo, BoxLib, SAMRAI, ...): a logically rectangular patch of
// cells identified by an inclusive low and high corner.
//
// Face-centered quantities such as the fluxes in the paper's exemplar live
// on boxes of face indices. The convention throughout this module is that
// face i in direction d lies between cells i-1 and i; the faces touching the
// cells of a box [lo, hi] therefore span [lo, hi+1] in direction d
// (SurroundingFaces).
package box

import (
	"fmt"

	"stencilsched/internal/ivect"
)

// Box is a rectangular domain of lattice points with inclusive corners.
// A box with any Lo component greater than the matching Hi component is
// empty. The zero value is the single point at the origin; use Empty for an
// empty box.
type Box struct {
	Lo, Hi ivect.IntVect
}

// New returns the box spanning [lo, hi] inclusive.
func New(lo, hi ivect.IntVect) Box { return Box{Lo: lo, Hi: hi} }

// NewSized returns the box with low corner lo and the given size in cells
// per dimension. It panics if any size component is negative.
func NewSized(lo, size ivect.IntVect) Box {
	if size[0] < 0 || size[1] < 0 || size[2] < 0 {
		panic(fmt.Sprintf("box: negative size %v", size))
	}
	return Box{Lo: lo, Hi: lo.Add(size).Sub(ivect.Ones)}
}

// Cube returns the N^3 box with low corner at the origin, the shape used for
// the paper's boxes of size 16, 32, 64 and 128.
func Cube(n int) Box { return NewSized(ivect.Zero, ivect.Uniform(n)) }

// Empty returns a canonical empty box.
func Empty() Box {
	return Box{Lo: ivect.Zero, Hi: ivect.Uniform(-1)}
}

// IsEmpty reports whether b contains no points.
func (b Box) IsEmpty() bool {
	return b.Hi[0] < b.Lo[0] || b.Hi[1] < b.Lo[1] || b.Hi[2] < b.Lo[2]
}

// Size returns the number of points per dimension. Components are zero for
// empty boxes (never negative).
func (b Box) Size() ivect.IntVect {
	var s ivect.IntVect
	for d := 0; d < ivect.SpaceDim; d++ {
		if n := b.Hi[d] - b.Lo[d] + 1; n > 0 {
			s[d] = n
		}
	}
	return s
}

// NumPts returns the total number of points in b.
func (b Box) NumPts() int { return b.Size().Prod() }

// Contains reports whether the point p lies in b.
func (b Box) Contains(p ivect.IntVect) bool {
	return b.Lo.AllLE(p) && p.AllLE(b.Hi)
}

// ContainsBox reports whether every point of o lies in b. An empty o is
// contained in any box.
func (b Box) ContainsBox(o Box) bool {
	if o.IsEmpty() {
		return true
	}
	return b.Contains(o.Lo) && b.Contains(o.Hi)
}

// Equal reports whether b and o cover the same set of points; all empty
// boxes compare equal.
func (b Box) Equal(o Box) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return b.IsEmpty() && o.IsEmpty()
	}
	return b.Lo == o.Lo && b.Hi == o.Hi
}

// Intersect returns the box covering the points common to b and o.
func (b Box) Intersect(o Box) Box {
	return Box{Lo: b.Lo.Max(o.Lo), Hi: b.Hi.Min(o.Hi)}
}

// Intersects reports whether b and o share at least one point.
func (b Box) Intersects(o Box) bool { return !b.Intersect(o).IsEmpty() }

// Grow expands b by n points on every side (shrinks for negative n). Growing
// a cell box by the ghost depth yields the ghosted box of the paper's
// Figure 1 ratio analysis.
func (b Box) Grow(n int) Box { return b.GrowVect(ivect.Uniform(n)) }

// GrowVect expands b by g[d] points on both sides in each direction d.
func (b Box) GrowVect(g ivect.IntVect) Box {
	return Box{Lo: b.Lo.Sub(g), Hi: b.Hi.Add(g)}
}

// GrowDir expands b by n points on both sides in direction d only.
func (b Box) GrowDir(d, n int) Box {
	return Box{Lo: b.Lo.Shift(d, -n), Hi: b.Hi.Shift(d, n)}
}

// Shift translates b by s points in direction d.
func (b Box) Shift(d, s int) Box {
	return Box{Lo: b.Lo.Shift(d, s), Hi: b.Hi.Shift(d, s)}
}

// ShiftVect translates b by the vector v.
func (b Box) ShiftVect(v ivect.IntVect) Box {
	return Box{Lo: b.Lo.Add(v), Hi: b.Hi.Add(v)}
}

// SurroundingFaces returns the box of face indices in direction d touching
// the cells of b: faces [lo_d, hi_d+1] under the convention that face i sits
// between cells i-1 and i. For an N-cell box this is the (N+1)-face box that
// sizes the flux temporaries in the paper's Table I.
func (b Box) SurroundingFaces(d int) Box {
	return Box{Lo: b.Lo, Hi: b.Hi.Shift(d, 1)}
}

// EnclosedCells returns the box of cells whose surrounding faces in
// direction d all lie in the face box b. It inverts SurroundingFaces.
func (b Box) EnclosedCells(d int) Box {
	return Box{Lo: b.Lo, Hi: b.Hi.Shift(d, -1)}
}

// ChopDir splits b at plane index p in direction d, returning the low part
// [lo_d, p-1] and the high part [p, hi_d]. It panics unless lo_d < p <=
// hi_d so that both halves are non-empty.
func (b Box) ChopDir(d, p int) (lo, hi Box) {
	if p <= b.Lo[d] || p > b.Hi[d] {
		panic(fmt.Sprintf("box: chop plane %d outside (%d,%d] in dir %d", p, b.Lo[d], b.Hi[d], d))
	}
	lo = Box{Lo: b.Lo, Hi: b.Hi.With(d, p-1)}
	hi = Box{Lo: b.Lo.With(d, p), Hi: b.Hi}
	return lo, hi
}

// Slabs cuts b into contiguous slabs along direction d, as evenly as
// possible, returning at most n non-empty boxes. This is the z-slice
// decomposition used for the paper's "parallelization within boxes" of the
// baseline schedule.
func (b Box) Slabs(d, n int) []Box {
	if b.IsEmpty() || n <= 0 {
		return nil
	}
	total := b.Hi[d] - b.Lo[d] + 1
	if n > total {
		n = total
	}
	out := make([]Box, 0, n)
	start := b.Lo[d]
	for i := 0; i < n; i++ {
		count := total / n
		if i < total%n {
			count++
		}
		s := b
		s.Lo = s.Lo.With(d, start)
		s.Hi = s.Hi.With(d, start+count-1)
		out = append(out, s)
		start += count
	}
	return out
}

// Tiles decomposes b into tiles of at most t points per dimension, clipped
// to b. The returned slice is ordered with the x tile index fastest,
// matching TileGrid's ForEach order. Tiling a 128-cell box with t = 16
// yields the 8x8x8 tile grid of the paper's OT-16 variants.
func (b Box) Tiles(t int) []Box { return b.TilesVect(ivect.Uniform(t)) }

// TilesVect is Tiles with a per-dimension tile shape — pencils and slabs
// as well as cubes.
func (b Box) TilesVect(t ivect.IntVect) []Box {
	grid := b.TileGridVect(t)
	if grid.IsEmpty() {
		return nil
	}
	out := make([]Box, 0, grid.NumPts())
	grid.ForEach(func(tv ivect.IntVect) {
		out = append(out, b.TileAtVect(t, tv))
	})
	return out
}

// TileGrid returns the box of tile indices produced by tiling b with tiles
// of t points per dimension. Tile (0,0,0) has its low corner at b.Lo.
func (b Box) TileGrid(t int) Box { return b.TileGridVect(ivect.Uniform(t)) }

// TileGridVect is TileGrid with a per-dimension tile shape.
func (b Box) TileGridVect(t ivect.IntVect) Box {
	if t[0] <= 0 || t[1] <= 0 || t[2] <= 0 {
		panic(fmt.Sprintf("box: tile shape %v must be positive", t))
	}
	if b.IsEmpty() {
		return Empty()
	}
	sz := b.Size()
	return NewSized(ivect.Zero, ivect.New(ceilDiv(sz[0], t[0]), ceilDiv(sz[1], t[1]), ceilDiv(sz[2], t[2])))
}

// TileAt returns the tile with tile-grid index tv when b is tiled with t
// points per dimension, clipped to b.
func (b Box) TileAt(t int, tv ivect.IntVect) Box { return b.TileAtVect(ivect.Uniform(t), tv) }

// TileAtVect is TileAt with a per-dimension tile shape.
func (b Box) TileAtVect(t, tv ivect.IntVect) Box {
	lo := b.Lo.Add(tv.Mul(t))
	return Box{Lo: lo, Hi: lo.Add(t).Sub(ivect.Ones)}.Intersect(b)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ForEach visits every point of b in column-major order (x fastest, z
// slowest), the traversal order of the exemplar's unit-stride inner loops.
func (b Box) ForEach(f func(ivect.IntVect)) {
	if b.IsEmpty() {
		return
	}
	for z := b.Lo[2]; z <= b.Hi[2]; z++ {
		for y := b.Lo[1]; y <= b.Hi[1]; y++ {
			for x := b.Lo[0]; x <= b.Hi[0]; x++ {
				f(ivect.New(x, y, z))
			}
		}
	}
}

// Points returns all points of b in column-major order. Intended for tests
// and small boxes; stencil code should iterate with explicit loops.
func (b Box) Points() []ivect.IntVect {
	if b.IsEmpty() {
		return nil
	}
	out := make([]ivect.IntVect, 0, b.NumPts())
	b.ForEach(func(p ivect.IntVect) { out = append(out, p) })
	return out
}

// String formats b as "[lo..hi]" or "[empty]".
func (b Box) String() string {
	if b.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%v..%v]", b.Lo, b.Hi)
}
