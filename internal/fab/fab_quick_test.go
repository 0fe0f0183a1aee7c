package fab

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
)

// TestCopyShiftInverseProperty: copying a region out with shift s and back
// with shift -s restores the original values — the algebra the periodic
// exchange relies on.
func TestCopyShiftInverseProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	prop := func(sx, sy, sz int8) bool {
		shift := ivect.New(int(sx)%6, int(sy)%6, int(sz)%6)
		src := New(box.Cube(6), 2)
		src.Randomize(rnd, -3, 3)
		orig := src.Clone()

		// Stage into a large buffer at the shifted location, then copy
		// back with the inverse shift.
		buf := New(box.Cube(6).Grow(8), 2)
		// Dest point p of buf reads src at p+shift: buf holds src shifted
		// by -shift.
		buf.CopyFromShifted(src, box.Cube(6).ShiftVect(shift.Neg()), shift, 0, 0, 2)
		dst := New(box.Cube(6), 2)
		dst.CopyFromShifted(buf, box.Cube(6), shift.Neg(), 0, 0, 2)
		d, _, _ := dst.MaxDiff(orig, box.Cube(6))
		return d == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPlusLinearity: Plus is linear in its coefficient, which the
// solver's axpy updates rely on.
func TestPlusLinearity(t *testing.T) {
	rnd := rand.New(rand.NewSource(100))
	prop := func(aRaw, bRaw int16) bool {
		a := float64(aRaw) / 256
		b := float64(bRaw) / 256
		x := New(box.Cube(4), 1)
		y := New(box.Cube(4), 1)
		x.Randomize(rnd, -2, 2)
		y.Randomize(rnd, -2, 2)

		// (x + a*y) + b*y == x + (a+b)*y up to one rounding each way.
		lhs := x.Clone()
		lhs.Plus(y, lhs.Box(), a)
		lhs.Plus(y, lhs.Box(), b)

		rhs := x.Clone()
		rhs.Plus(y, rhs.Box(), a+b)

		d, _, _ := lhs.MaxDiff(rhs, lhs.Box())
		return d <= 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSumEqualsPointwiseSum: SumComp agrees with explicit iteration on
// arbitrary clipped regions.
func TestSumEqualsPointwiseSum(t *testing.T) {
	rnd := rand.New(rand.NewSource(101))
	f := New(box.Cube(5), 2)
	f.Randomize(rnd, -1, 1)
	prop := func(x0, y0, z0, x1, y1, z1 int8) bool {
		r := box.New(
			ivect.New(int(x0)%7-1, int(y0)%7-1, int(z0)%7-1),
			ivect.New(int(x1)%7-1, int(y1)%7-1, int(z1)%7-1),
		)
		got := f.SumComp(r, 1)
		var want float64
		r.Intersect(f.Box()).ForEach(func(p ivect.IntVect) { want += f.Get(p, 1) })
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
