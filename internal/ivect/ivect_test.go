package ivect

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	v := New(1, -2, 3)
	if v[0] != 1 || v[1] != -2 || v[2] != 3 {
		t.Fatalf("New(1,-2,3) = %v", v)
	}
}

func TestUnit(t *testing.T) {
	for d := 0; d < SpaceDim; d++ {
		u := Unit(d)
		for i := 0; i < SpaceDim; i++ {
			want := 0
			if i == d {
				want = 1
			}
			if u[i] != want {
				t.Errorf("Unit(%d)[%d] = %d, want %d", d, i, u[i], want)
			}
		}
	}
}

func TestUnitPanicsOnBadDir(t *testing.T) {
	for _, d := range []int{-1, 3, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Unit(%d) did not panic", d)
				}
			}()
			Unit(d)
		}()
	}
}

func TestArithmetic(t *testing.T) {
	a, b := New(1, 2, 3), New(10, 20, 30)
	if got := a.Add(b); got != New(11, 22, 33) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != New(9, 18, 27) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Neg(); got != New(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Mul(b); got != New(10, 40, 90) {
		t.Errorf("Mul = %v", got)
	}
}

func TestShiftWith(t *testing.T) {
	v := New(5, 5, 5)
	if got := v.Shift(1, -3); got != New(5, 2, 5) {
		t.Errorf("Shift = %v", got)
	}
	// Shift must not mutate the receiver.
	if v != New(5, 5, 5) {
		t.Errorf("Shift mutated receiver: %v", v)
	}
	if got := v.With(2, 9); got != New(5, 5, 9) {
		t.Errorf("With = %v", got)
	}
}

func TestMinMaxComparisons(t *testing.T) {
	a, b := New(1, 9, 5), New(3, 2, 5)
	if got := a.Min(b); got != New(1, 2, 5) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != New(3, 9, 5) {
		t.Errorf("Max = %v", got)
	}
	if !New(1, 2, 3).AllLE(New(1, 2, 3)) {
		t.Error("AllLE should hold for equal vectors")
	}
	if New(1, 2, 3).AllLT(New(2, 3, 3)) {
		t.Error("AllLT should fail when any component is equal")
	}
	if !New(0, 0, 0).AllLT(New(1, 1, 1)) {
		t.Error("AllLT failed for strictly smaller vector")
	}
	if !New(2, 3, 4).AllGE(New(1, 2, 3)) {
		t.Error("AllGE failed")
	}
}

func TestLexLessMatchesColumnMajorOffset(t *testing.T) {
	// For points in a box, LexLess must agree with the column-major flat
	// offset order (x fastest).
	n := 4
	offset := func(v IntVect) int { return v[0] + n*(v[1]+n*v[2]) }
	var pts []IntVect
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pts = append(pts, New(x, y, z))
			}
		}
	}
	for i, a := range pts {
		for j, b := range pts {
			if got, want := a.LexLess(b), offset(a) < offset(b); got != want {
				t.Fatalf("LexLess(%v,%v) = %v, want %v (indices %d,%d)", a, b, got, want, i, j)
			}
		}
	}
}

func TestSumProdComp(t *testing.T) {
	v := New(2, 3, 4)
	if v.Sum() != 9 {
		t.Errorf("Sum = %d", v.Sum())
	}
	if v.Prod() != 24 {
		t.Errorf("Prod = %d", v.Prod())
	}
	if v.MaxComp() != 4 || v.MinComp() != 2 {
		t.Errorf("MaxComp/MinComp = %d/%d", v.MaxComp(), v.MinComp())
	}
}

func TestModIsPeriodic(t *testing.T) {
	w := New(8, 8, 8)
	f := func(x, y, z int16) bool {
		v := New(int(x), int(y), int(z))
		m := v.Mod(w)
		// In range, and congruent mod w.
		inRange := m.AllGE(Zero) && m.AllLT(w)
		congruent := (v[0]-m[0])%8 == 0 && (v[1]-m[1])%8 == 0 && (v[2]-m[2])%8 == 0
		// Periodicity: shifting by a period does not change the image.
		periodic := v.Add(w.Mul(Uniform(3))).Mod(w) == m
		return inRange && congruent && periodic
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	rv := func() IntVect {
		return New(rnd.Intn(200)-100, rnd.Intn(200)-100, rnd.Intn(200)-100)
	}
	for i := 0; i < 200; i++ {
		a, b := rv(), rv()
		if a.Add(b) != b.Add(a) {
			t.Fatalf("Add not commutative for %v, %v", a, b)
		}
		if a.Add(b).Sub(b) != a {
			t.Fatalf("Add/Sub not inverse for %v, %v", a, b)
		}
		if a.Add(a.Neg()) != Zero {
			t.Fatalf("Neg not additive inverse for %v", a)
		}
	}
}

func TestString(t *testing.T) {
	if got := New(1, -2, 3).String(); got != "(1,-2,3)" {
		t.Errorf("String = %q", got)
	}
}
