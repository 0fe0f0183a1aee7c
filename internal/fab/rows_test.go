package fab

import (
	"math"
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
)

// sameBits reports the first flat offset where a and b differ in bits,
// or -1.
func sameBits(a, b *FAB) int {
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return i
		}
	}
	return -1
}

// TestCopyFromShiftedMatchesPerValue holds the strided row copy to a
// per-value oracle, bit for bit over the whole destination (so nothing
// outside the region moves): periodic-wrap shifts on each axis, row
// widths 1, 2, 5 and 16 (inline and copy() rows), regions clipped by
// both boxes, and component sub-ranges.
func TestCopyFromShiftedMatchesPerValue(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	src := New(box.Cube(16), 5)
	src.Randomize(rnd, -1, 1)
	dstInit := New(box.Cube(16).Grow(3), 4)
	dstInit.Randomize(rnd, 2, 3)
	shifts := []ivect.IntVect{
		ivect.Zero, ivect.New(16, 0, 0), ivect.New(-16, 0, 0), ivect.New(0, 16, 0),
		ivect.New(0, 0, -16), ivect.New(16, -16, 16), ivect.New(3, -2, 1),
	}
	comps := [][3]int{{0, 0, 4}, {1, 0, 3}, {0, 2, 2}, {4, 3, 1}}
	for _, shift := range shifts {
		for _, w := range []int{1, 2, 5, 16} {
			for _, lo := range []ivect.IntVect{ivect.New(-3, -3, -3), ivect.New(14, 2, -1), ivect.New(-1, 15, 16)} {
				r := box.NewSized(lo, ivect.New(w, 4, 3))
				for _, cc := range comps {
					srcComp, dstComp, n := cc[0], cc[1], cc[2]
					got, want := dstInit.Clone(), dstInit.Clone()
					got.CopyFromShifted(src, r, shift, srcComp, dstComp, n)
					r.Intersect(want.Box()).ForEach(func(p ivect.IntVect) {
						if q := p.Add(shift); src.Box().Contains(q) {
							for c := 0; c < n; c++ {
								want.Set(p, dstComp+c, src.Get(q, srcComp+c))
							}
						}
					})
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("shift %v width %d region %v comps %v: value %d is %v, oracle %v",
							shift, w, r, cc, i, got.data[i], want.data[i])
					}
				}
			}
		}
	}
}

// TestZero clears exactly the region's values, whole box or part.
func TestZero(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	f := New(box.Cube(5).Grow(2), 2)
	for _, r := range []box.Box{box.Cube(5), box.New(ivect.New(-4, 0, 1), ivect.New(1, 6, 1)), f.Box(), box.Cube(2).ShiftVect(ivect.New(40, 0, 0))} {
		f.Randomize(rnd, 1, 2)
		want := f.Clone()
		r.Intersect(f.Box()).ForEach(func(p ivect.IntVect) {
			for c := 0; c < 2; c++ {
				want.Set(p, c, 0)
			}
		})
		f.Zero(r)
		if i := sameBits(f, want); i >= 0 {
			t.Fatalf("region %v: value %d is %v, want %v", r, i, f.data[i], want.data[i])
		}
	}
}
