// Package fab provides FArrayBox-style multi-component arrays over boxes.
//
// Data layout matches the paper's Section III-C: the solution U on a
// three-dimensional grid is stored as [x, y, z, c] with Fortran (column
// major) ordering — x is unit stride and the component index c varies
// slowest, so the individual components of one cell are far apart in memory.
// That layout choice is load-bearing for the study: it is why the flux
// kernels must re-read the velocity component across the whole box and why
// the temporaries in Table I are sized per component.
package fab

import (
	"fmt"
	"math"
	"math/rand"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
)

// FAB is a dense float64 array over a box with one or more components.
// It corresponds to Chombo's FArrayBox.
type FAB struct {
	bx    box.Box
	ncomp int
	// Cached strides: the flat offset of point (x,y,z) component c is
	// (x-lo0) + sy*(y-lo1) + sz*(z-lo2) + sc*c.
	sy, sz, sc int
	data       []float64
}

// New allocates a zero-filled FAB with ncomp components over b. It panics
// for an empty box or non-positive component count: an unallocatable FAB is
// always a programming error in solver code.
func New(b box.Box, ncomp int) *FAB {
	if b.IsEmpty() {
		panic("fab: empty box")
	}
	if ncomp <= 0 {
		panic(fmt.Sprintf("fab: ncomp %d must be positive", ncomp))
	}
	sz := b.Size()
	f := &FAB{
		bx:    b,
		ncomp: ncomp,
		sy:    sz[0],
		sz:    sz[0] * sz[1],
		sc:    sz[0] * sz[1] * sz[2],
	}
	f.data = make([]float64, f.sc*ncomp)
	return f
}

// Box returns the box the FAB is defined over.
func (f *FAB) Box() box.Box { return f.bx }

// NComp returns the number of components.
func (f *FAB) NComp() int { return f.ncomp }

// Data returns the underlying storage. The slice is laid out [x,y,z,c]
// column-major; mutating it mutates the FAB. Kernel code uses this together
// with Strides for pointer-offset style addressing, the C++-matching idiom
// described in Section III-C of the paper.
func (f *FAB) Data() []float64 { return f.data }

// Strides returns the y, z and component strides of the flat layout. The x
// stride is always 1.
func (f *FAB) Strides() (sy, sz, sc int) { return f.sy, f.sz, f.sc }

// Index returns the flat offset of point p, component c. It panics if p is
// outside the box or c out of range; stencil inner loops should instead
// compute offsets incrementally from Strides.
func (f *FAB) Index(p ivect.IntVect, c int) int {
	if !f.bx.Contains(p) {
		panic(fmt.Sprintf("fab: point %v outside %v", p, f.bx))
	}
	if c < 0 || c >= f.ncomp {
		panic(fmt.Sprintf("fab: component %d out of range [0,%d)", c, f.ncomp))
	}
	return f.offset(p, c)
}

func (f *FAB) offset(p ivect.IntVect, c int) int {
	return (p[0] - f.bx.Lo[0]) + f.sy*(p[1]-f.bx.Lo[1]) + f.sz*(p[2]-f.bx.Lo[2]) + f.sc*c
}

// Get returns the value at point p, component c.
func (f *FAB) Get(p ivect.IntVect, c int) float64 { return f.data[f.Index(p, c)] }

// Set stores v at point p, component c.
func (f *FAB) Set(p ivect.IntVect, c int, v float64) { f.data[f.Index(p, c)] = v }

// Comp returns the storage of a single component as a slice over the box.
func (f *FAB) Comp(c int) []float64 {
	if c < 0 || c >= f.ncomp {
		panic(fmt.Sprintf("fab: component %d out of range [0,%d)", c, f.ncomp))
	}
	return f.data[c*f.sc : (c+1)*f.sc]
}

// Fill sets every value of every component to v.
func (f *FAB) Fill(v float64) {
	for i := range f.data {
		f.data[i] = v
	}
}

// FillComp sets every value of component c to v.
func (f *FAB) FillComp(c int, v float64) {
	s := f.Comp(c)
	for i := range s {
		s[i] = v
	}
}

// FillFunc sets every component c of every point p of r to fn(p, c),
// writing x-rows straight into storage: r is checked against the box
// once, and no value goes through Set. It panics if r is not inside
// f.Box().
func (f *FAB) FillFunc(r box.Box, fn func(p ivect.IntVect, c int) float64) {
	f.FillRows(r, PointRows(fn))
}

// RowFunc fills one x-row of component c: row[i] is the value at
// lo + (i, 0, 0). The row is a slice of FAB storage.
type RowFunc func(row []float64, lo ivect.IntVect, c int)

// PointRows adapts a per-point function to a RowFunc, calling fn once
// per value in x order.
func PointRows(fn func(p ivect.IntVect, c int) float64) RowFunc {
	return func(row []float64, lo ivect.IntVect, c int) {
		for i := range row {
			row[i] = fn(lo, c)
			lo[0]++
		}
	}
}

// FillRows hands every x-row of r, component by component, to fn as a
// slice of storage. r is checked against the box once; it panics if r
// is not inside f.Box(). Initial conditions go through it.
func (f *FAB) FillRows(r box.Box, fn RowFunc) {
	if !f.bx.ContainsBox(r) {
		panic(fmt.Sprintf("fab: fill region %v outside %v", r, f.bx))
	}
	nx := r.Hi[0] - r.Lo[0] + 1
	for c := 0; c < f.ncomp; c++ {
		for z := r.Lo[2]; z <= r.Hi[2]; z++ {
			for y := r.Lo[1]; y <= r.Hi[1]; y++ {
				p := ivect.New(r.Lo[0], y, z)
				o := f.offset(p, c)
				fn(f.data[o:o+nx:o+nx], p, c)
			}
		}
	}
}

func (f *FAB) forRegion(r box.Box, fn func(off int)) {
	r = r.Intersect(f.bx)
	if r.IsEmpty() {
		return
	}
	for z := r.Lo[2]; z <= r.Hi[2]; z++ {
		for y := r.Lo[1]; y <= r.Hi[1]; y++ {
			base := f.offset(ivect.New(r.Lo[0], y, z), 0)
			for x := 0; x <= r.Hi[0]-r.Lo[0]; x++ {
				fn(base + x)
			}
		}
	}
}

// Randomize fills all components with uniform values in [lo, hi) drawn from
// rnd. Deterministic for a seeded source; used by the equivalence tests.
func (f *FAB) Randomize(rnd *rand.Rand, lo, hi float64) {
	for i := range f.data {
		f.data[i] = lo + (hi-lo)*rnd.Float64()
	}
}

// CopyFrom copies all components of src on the intersection of the two
// boxes with r, mimicking Chombo's FArrayBox::copy. The FABs must have equal
// component counts.
func (f *FAB) CopyFrom(src *FAB, r box.Box) {
	if src.ncomp != f.ncomp {
		panic(fmt.Sprintf("fab: copy ncomp mismatch %d vs %d", src.ncomp, f.ncomp))
	}
	f.CopyFromShifted(src, r, ivect.Zero, 0, 0, f.ncomp)
}

// CopyFromShifted copies n components starting at srcComp of src into
// components starting at dstComp of f. For each destination point p in
// r ∩ f.Box(), the value is read from src at p + shift. It is the motion
// primitive behind the ghost-cell exchange: a periodic wrap is a shifted
// copy. The two row offsets are computed once and stepped by the
// strides; rows of up to four values (a ghost exchange's x faces, edges
// and corners) are copied inline rather than through copy().
func (f *FAB) CopyFromShifted(src *FAB, r box.Box, shift ivect.IntVect, srcComp, dstComp, n int) {
	if srcComp < 0 || srcComp+n > src.ncomp || dstComp < 0 || dstComp+n > f.ncomp || n < 0 {
		panic(fmt.Sprintf("fab: copy comps [%d,%d)->[%d,%d) out of range (%d, %d comps)",
			srcComp, srcComp+n, dstComp, dstComp+n, src.ncomp, f.ncomp))
	}
	r = r.Intersect(f.bx).Intersect(src.bx.ShiftVect(shift.Neg()))
	if r.IsEmpty() {
		return
	}
	nx, ny, nz := r.Hi[0]-r.Lo[0]+1, r.Hi[1]-r.Lo[1]+1, r.Hi[2]-r.Lo[2]+1
	d0, s0 := f.offset(r.Lo, dstComp), src.offset(r.Lo.Add(shift), srcComp)
	for c := 0; c < n; c++ {
		for z := 0; z < nz; z++ {
			d, s := d0+c*f.sc+z*f.sz, s0+c*src.sc+z*src.sz
			for y := 0; y < ny; y, d, s = y+1, d+f.sy, s+src.sy {
				if nx <= 4 {
					for x := 0; x < nx; x++ {
						f.data[d+x] = src.data[s+x]
					}
					continue
				}
				copy(f.data[d:d+nx], src.data[s:s+nx])
			}
		}
	}
}

// Plus adds s*src to f on r ∩ f.Box() for all components.
func (f *FAB) Plus(src *FAB, r box.Box, s float64) {
	if src.ncomp != f.ncomp {
		panic(fmt.Sprintf("fab: plus ncomp mismatch %d vs %d", src.ncomp, f.ncomp))
	}
	r = r.Intersect(f.bx).Intersect(src.bx)
	if r.IsEmpty() {
		return
	}
	nx := r.Hi[0] - r.Lo[0] + 1
	for c := 0; c < f.ncomp; c++ {
		for z := r.Lo[2]; z <= r.Hi[2]; z++ {
			// Row offsets of the plane's first row; the y strides step them.
			d := f.offset(ivect.New(r.Lo[0], r.Lo[1], z), c)
			o := src.offset(ivect.New(r.Lo[0], r.Lo[1], z), c)
			for y := r.Lo[1]; y <= r.Hi[1]; y++ {
				dst, sr := f.data[d:d+nx], src.data[o:o+nx]
				for x := range dst {
					dst[x] += s * sr[x]
				}
				d, o = d+f.sy, o+src.sy
			}
		}
	}
}

// Zero sets every component to zero on r ∩ f.Box().
func (f *FAB) Zero(r box.Box) {
	r = r.Intersect(f.bx)
	if r == f.bx {
		clear(f.data)
		return
	}
	if r.IsEmpty() {
		return
	}
	nx := r.Hi[0] - r.Lo[0] + 1
	for c := 0; c < f.ncomp; c++ {
		for z := r.Lo[2]; z <= r.Hi[2]; z++ {
			for y := r.Lo[1]; y <= r.Hi[1]; y++ {
				o := f.offset(ivect.New(r.Lo[0], y, z), c)
				clear(f.data[o : o+nx])
			}
		}
	}
}

// SumComp returns the sum of component c over r ∩ f.Box(). The conservation
// tests rely on it: the finite-volume update telescopes, so the interior
// fluxes cancel in this sum.
func (f *FAB) SumComp(r box.Box, c int) float64 {
	var s float64
	f.forRegion(r, func(off int) { s += f.data[off+c*f.sc] })
	return s
}

// MaxNorm returns the max-norm over all components on r ∩ f.Box().
func (f *FAB) MaxNorm(r box.Box) float64 {
	var m float64
	for c := 0; c < f.ncomp; c++ {
		cs := c * f.sc
		f.forRegion(r, func(off int) {
			if a := math.Abs(f.data[off+cs]); a > m {
				m = a
			}
		})
	}
	return m
}

// MaxDiff returns the largest absolute difference between f and o over all
// components of r, together with a point and component where it occurs.
// The FABs must have the same component count; the comparison region is
// clipped to both boxes.
func (f *FAB) MaxDiff(o *FAB, r box.Box) (diff float64, at ivect.IntVect, comp int) {
	if o.ncomp != f.ncomp {
		panic(fmt.Sprintf("fab: diff ncomp mismatch %d vs %d", o.ncomp, f.ncomp))
	}
	r = r.Intersect(f.bx).Intersect(o.bx)
	for c := 0; c < f.ncomp; c++ {
		c := c
		r.ForEach(func(p ivect.IntVect) {
			d := math.Abs(f.data[f.offset(p, c)] - o.data[o.offset(p, c)])
			if d > diff {
				diff, at, comp = d, p, c
			}
		})
	}
	return diff, at, comp
}

// Adopt re-points f at caller-provided storage over b with ncomp
// components, with the same validation as New. buf must hold at least
// b.NumPts()*ncomp values; its contents are kept as-is — unlike New, the
// data is NOT zeroed, so the caller must fully define every value it
// reads. It exists for the scratch arenas, which recycle FAB headers and
// backing storage across executions.
func (f *FAB) Adopt(buf []float64, b box.Box, ncomp int) {
	if b.IsEmpty() {
		panic("fab: empty box")
	}
	if ncomp <= 0 {
		panic(fmt.Sprintf("fab: ncomp %d must be positive", ncomp))
	}
	sz := b.Size()
	need := sz[0] * sz[1] * sz[2] * ncomp
	if len(buf) < need {
		panic(fmt.Sprintf("fab: adopt buffer holds %d values, need %d for %v x%d", len(buf), need, b, ncomp))
	}
	f.bx = b
	f.ncomp = ncomp
	f.sy = sz[0]
	f.sz = sz[0] * sz[1]
	f.sc = sz[0] * sz[1] * sz[2]
	f.data = buf[:need]
}

// Clone returns a deep copy of f.
func (f *FAB) Clone() *FAB {
	c := New(f.bx, f.ncomp)
	copy(c.data, f.data)
	return c
}

// Bytes returns the storage footprint of the FAB's data in bytes. The
// temporary-storage accounting of Table I sums these.
func (f *FAB) Bytes() int64 { return int64(len(f.data)) * 8 }
