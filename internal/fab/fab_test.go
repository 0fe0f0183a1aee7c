package fab

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
)

func TestNewZeroFilled(t *testing.T) {
	f := New(box.Cube(4), 2)
	if f.NComp() != 2 {
		t.Fatalf("NComp = %d", f.NComp())
	}
	if len(f.Data()) != 4*4*4*2 {
		t.Fatalf("data len = %d", len(f.Data()))
	}
	for i, v := range f.Data() {
		if v != 0 {
			t.Fatalf("data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(empty) did not panic")
			}
		}()
		New(box.Empty(), 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(ncomp=0) did not panic")
			}
		}()
		New(box.Cube(2), 0)
	}()
}

func TestLayoutXUnitStrideComponentSlowest(t *testing.T) {
	// The paper's [x,y,z,c] column-major layout.
	b := box.NewSized(ivect.New(1, 2, 3), ivect.New(3, 4, 5))
	f := New(b, 2)
	sy, sz, sc := f.Strides()
	if sy != 3 || sz != 12 || sc != 60 {
		t.Fatalf("strides = %d,%d,%d", sy, sz, sc)
	}
	if f.Index(b.Lo, 0) != 0 {
		t.Fatalf("Index(lo,0) = %d", f.Index(b.Lo, 0))
	}
	if f.Index(b.Lo.Shift(0, 1), 0) != 1 {
		t.Fatal("x not unit stride")
	}
	if f.Index(b.Lo, 1) != 60 {
		t.Fatal("component not slowest")
	}
	// Index round-trip: offsets enumerate 0..n-1 in (c,z,y,x) nesting.
	want := 0
	for c := 0; c < 2; c++ {
		for z := b.Lo[2]; z <= b.Hi[2]; z++ {
			for y := b.Lo[1]; y <= b.Hi[1]; y++ {
				for x := b.Lo[0]; x <= b.Hi[0]; x++ {
					if got := f.Index(ivect.New(x, y, z), c); got != want {
						t.Fatalf("Index(%d,%d,%d,%d) = %d, want %d", x, y, z, c, got, want)
					}
					want++
				}
			}
		}
	}
}

func TestIndexPropertyRoundTrip(t *testing.T) {
	b := box.NewSized(ivect.New(-3, 5, 0), ivect.New(5, 4, 6))
	f := New(b, 3)
	cfg := &quick.Config{MaxCount: 500}
	prop := func(xi, yi, zi, ci uint16) bool {
		p := ivect.New(
			b.Lo[0]+int(xi)%5,
			b.Lo[1]+int(yi)%4,
			b.Lo[2]+int(zi)%6,
		)
		c := int(ci) % 3
		f.Set(p, c, 42.5)
		ok := f.Get(p, c) == 42.5 && f.Data()[f.Index(p, c)] == 42.5
		f.Set(p, c, 0)
		return ok
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestGetSetBoundsPanics(t *testing.T) {
	f := New(box.Cube(2), 1)
	cases := []func(){
		func() { f.Get(ivect.New(2, 0, 0), 0) },
		func() { f.Get(ivect.New(0, 0, 0), 1) },
		func() { f.Get(ivect.New(0, 0, 0), -1) },
		func() { f.Comp(1) },
	}
	for i, fn := range cases {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFillAndComp(t *testing.T) {
	f := New(box.Cube(3), 2)
	f.FillComp(1, 7)
	for _, v := range f.Comp(0) {
		if v != 0 {
			t.Fatal("FillComp leaked into component 0")
		}
	}
	for _, v := range f.Comp(1) {
		if v != 7 {
			t.Fatal("FillComp missed component 1")
		}
	}
	f.Fill(3)
	for _, v := range f.Data() {
		if v != 3 {
			t.Fatal("Fill missed a value")
		}
	}
}

func TestFillFunc(t *testing.T) {
	fn := func(p ivect.IntVect, c int) float64 {
		return float64(p[0]) + 10*float64(p[1]) + 100*float64(p[2]) + 1000*float64(c)
	}
	valid := box.NewSized(ivect.New(-1, 2, 0), ivect.New(3, 4, 5))
	cases := []struct {
		name   string
		region box.Box
	}{
		{"sub-region", box.New(ivect.New(0, 3, 1), ivect.New(1, 5, 3))},
		{"valid box", valid},
		{"full box with ghosts", valid.Grow(2)},
		{"empty region", box.Empty()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := New(valid.Grow(2), 2)
			f.Fill(-7)
			f.FillFunc(tc.region, fn)
			for c := 0; c < 2; c++ {
				c := c
				f.Box().ForEach(func(p ivect.IntVect) {
					want := -7.0
					if tc.region.Contains(p) {
						want = fn(p, c)
					}
					if got := f.Get(p, c); got != want {
						t.Fatalf("at %v comp %d: %v, want %v", p, c, got, want)
					}
				})
			}
		})
	}
	t.Run("outside the box", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		New(valid, 1).FillFunc(valid.Grow(1), fn)
	})
}

func TestCopyFromIntersection(t *testing.T) {
	src := New(box.Cube(4), 2)
	rnd := rand.New(rand.NewSource(7))
	src.Randomize(rnd, -1, 1)
	dst := New(box.New(ivect.New(2, 2, 2), ivect.New(6, 6, 6)), 2)
	dst.Fill(9)
	dst.CopyFrom(src, box.Cube(100))
	overlap := src.Box().Intersect(dst.Box())
	for c := 0; c < 2; c++ {
		c := c
		dst.Box().ForEach(func(p ivect.IntVect) {
			got := dst.Get(p, c)
			if overlap.Contains(p) {
				if got != src.Get(p, c) {
					t.Fatalf("copy wrong at %v comp %d", p, c)
				}
			} else if got != 9 {
				t.Fatalf("copy wrote outside overlap at %v comp %d", p, c)
			}
		})
	}
}

func TestCopyFromShiftedPeriodicWrap(t *testing.T) {
	// Moving data from the low edge to beyond the high edge, as the periodic
	// exchange does.
	src := New(box.Cube(8), 1)
	src.Box().ForEach(func(p ivect.IntVect) { src.Set(p, 0, float64(p[0])) })
	dst := New(box.Cube(8).Grow(2), 1)
	// Fill dst ghost x in [8,9] from src x in [0,1]: dest p reads src at
	// p + shift with shift = -8 e_x.
	ghost := box.New(ivect.New(8, 0, 0), ivect.New(9, 7, 7))
	dst.CopyFromShifted(src, ghost, ivect.New(-8, 0, 0), 0, 0, 1)
	ghost.ForEach(func(p ivect.IntVect) {
		if got := dst.Get(p, 0); got != float64(p[0]-8) {
			t.Fatalf("wrap at %v = %v, want %v", p, got, float64(p[0]-8))
		}
	})
}

func TestCopyCompRanges(t *testing.T) {
	src := New(box.Cube(3), 4)
	for c := 0; c < 4; c++ {
		src.FillComp(c, float64(c+1))
	}
	dst := New(box.Cube(3), 3)
	dst.CopyFromShifted(src, dst.Box(), ivect.Zero, 2, 1, 2)
	if dst.Get(ivect.Zero, 0) != 0 || dst.Get(ivect.Zero, 1) != 3 || dst.Get(ivect.Zero, 2) != 4 {
		t.Fatalf("comp-range copy got %v %v %v",
			dst.Get(ivect.Zero, 0), dst.Get(ivect.Zero, 1), dst.Get(ivect.Zero, 2))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range comp copy did not panic")
			}
		}()
		dst.CopyFromShifted(src, dst.Box(), ivect.Zero, 3, 0, 2)
	}()
}

func TestPlus(t *testing.T) {
	a := New(box.Cube(3), 1)
	b := New(box.Cube(3), 1)
	a.Fill(1)
	b.Fill(2)
	a.Plus(b, a.Box(), 0.5)
	for _, v := range a.Data() {
		if v != 2 {
			t.Fatalf("Plus got %v", v)
		}
	}
}

func TestNormsAndDiff(t *testing.T) {
	f := New(box.Cube(3), 2)
	f.Set(ivect.New(1, 2, 0), 1, -5)
	if got := f.MaxNorm(f.Box()); got != 5 {
		t.Fatalf("MaxNorm = %v", got)
	}
	g := f.Clone()
	if d, _, _ := f.MaxDiff(g, f.Box()); d != 0 {
		t.Fatalf("clone diff = %v", d)
	}
	g.Set(ivect.New(0, 1, 2), 0, 1.5)
	d, at, c := f.MaxDiff(g, f.Box())
	if d != 1.5 || at != ivect.New(0, 1, 2) || c != 0 {
		t.Fatalf("MaxDiff = %v at %v comp %d", d, at, c)
	}
}

func TestSumCompTelescoping(t *testing.T) {
	// Summing a difference field telescopes: a sanity anchor for the
	// conservation checks used on the kernel.
	n := 6
	face := New(box.Cube(n).SurroundingFaces(0), 1)
	rnd := rand.New(rand.NewSource(11))
	face.Randomize(rnd, -1, 1)
	cell := New(box.Cube(n), 1)
	cell.Box().ForEach(func(p ivect.IntVect) {
		cell.Set(p, 0, face.Get(p.Shift(0, 1), 0)-face.Get(p, 0))
	})
	// Sum over a row of cells equals flux(hi end) - flux(lo end).
	row := box.New(ivect.New(0, 3, 4), ivect.New(n-1, 3, 4))
	got := cell.SumComp(row, 0)
	want := face.Get(ivect.New(n, 3, 4), 0) - face.Get(ivect.New(0, 3, 4), 0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("telescoped sum = %v, want %v", got, want)
	}
}

func TestBytes(t *testing.T) {
	f := New(box.Cube(4), 5)
	if f.Bytes() != 4*4*4*5*8 {
		t.Fatalf("Bytes = %d", f.Bytes())
	}
}

func TestAdopt(t *testing.T) {
	b := box.NewSized(ivect.New(-1, 0, 2), ivect.New(2, 3, 4))
	need := b.NumPts() * 2
	buf := make([]float64, need+3) // extra capacity is allowed
	for i := range buf {
		buf[i] = float64(i)
	}
	var f FAB
	f.Adopt(buf, b, 2)
	if f.Box() != b || f.NComp() != 2 {
		t.Fatalf("adopted box %v ncomp %d", f.Box(), f.NComp())
	}
	if len(f.Data()) != need {
		t.Fatalf("data len %d, want %d", len(f.Data()), need)
	}
	// Contents are kept, and the data aliases buf.
	if f.Data()[5] != 5 {
		t.Fatal("Adopt zeroed or copied the buffer")
	}
	f.Set(b.Lo, 0, 42)
	if buf[0] != 42 {
		t.Fatal("adopted FAB does not alias the caller's buffer")
	}
	// Strides must match a New FAB of the same shape.
	ny, nz, nc := New(b, 2).Strides()
	if ay, az, ac := f.Strides(); ay != ny || az != nz || ac != nc {
		t.Fatalf("strides (%d,%d,%d), want (%d,%d,%d)", ay, az, ac, ny, nz, nc)
	}
}

func TestAdoptPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	var f FAB
	b := box.Cube(4)
	expectPanic("short buffer", func() { f.Adopt(make([]float64, 10), b, 1) })
	expectPanic("empty box", func() { f.Adopt(make([]float64, 64), box.Box{Lo: ivect.New(1, 1, 1), Hi: ivect.New(0, 0, 0)}, 1) })
	expectPanic("ncomp", func() { f.Adopt(make([]float64, 64), b, 0) })
}
