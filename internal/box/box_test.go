package box

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"stencilsched/internal/ivect"
)

func randBox(rnd *rand.Rand) Box {
	lo := ivect.New(rnd.Intn(20)-10, rnd.Intn(20)-10, rnd.Intn(20)-10)
	sz := ivect.New(rnd.Intn(8)+1, rnd.Intn(8)+1, rnd.Intn(8)+1)
	return NewSized(lo, sz)
}

func TestNewSizedAndCube(t *testing.T) {
	b := NewSized(ivect.New(2, 3, 4), ivect.New(5, 6, 7))
	if b.Lo != ivect.New(2, 3, 4) || b.Hi != ivect.New(6, 8, 10) {
		t.Fatalf("NewSized = %v", b)
	}
	if got := b.Size(); got != ivect.New(5, 6, 7) {
		t.Fatalf("Size = %v", got)
	}
	c := Cube(16)
	if c.NumPts() != 16*16*16 {
		t.Fatalf("Cube(16).NumPts = %d", c.NumPts())
	}
}

func TestEmpty(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() || e.NumPts() != 0 {
		t.Fatal("Empty() not empty")
	}
	if e.Size() != ivect.Zero {
		t.Fatalf("empty Size = %v", e.Size())
	}
	// Zero-size NewSized is empty.
	if !NewSized(ivect.Zero, ivect.Zero).IsEmpty() {
		t.Fatal("zero-sized box should be empty")
	}
}

func TestContains(t *testing.T) {
	b := New(ivect.New(0, 0, 0), ivect.New(3, 3, 3))
	if !b.Contains(ivect.New(0, 0, 0)) || !b.Contains(ivect.New(3, 3, 3)) {
		t.Error("corners must be contained (inclusive)")
	}
	if b.Contains(ivect.New(4, 0, 0)) || b.Contains(ivect.New(0, -1, 0)) {
		t.Error("outside points contained")
	}
	if !b.ContainsBox(New(ivect.New(1, 1, 1), ivect.New(2, 2, 2))) {
		t.Error("inner box not contained")
	}
	if !b.ContainsBox(Empty()) {
		t.Error("empty box must be contained in anything")
	}
	if b.ContainsBox(b.Grow(1)) {
		t.Error("grown box should not be contained")
	}
}

func TestIntersectProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		a, b := randBox(rnd), randBox(rnd)
		ab, ba := a.Intersect(b), b.Intersect(a)
		if !ab.Equal(ba) {
			t.Fatalf("intersection not commutative: %v vs %v", ab, ba)
		}
		if !a.ContainsBox(ab) || !b.ContainsBox(ab) {
			t.Fatalf("intersection %v not contained in operands %v, %v", ab, a, b)
		}
		// Point-set check.
		for _, p := range a.Points() {
			if b.Contains(p) != ab.Contains(p) {
				t.Fatalf("point %v membership mismatch for %v ∩ %v", p, a, b)
			}
		}
		if a.Intersects(b) != !ab.IsEmpty() {
			t.Fatalf("Intersects disagrees with Intersect for %v, %v", a, b)
		}
	}
}

func TestIntersectIdempotent(t *testing.T) {
	f := func(x, y, z int8, sx, sy, sz uint8) bool {
		b := NewSized(ivect.New(int(x), int(y), int(z)),
			ivect.New(int(sx%10)+1, int(sy%10)+1, int(sz%10)+1))
		return b.Intersect(b).Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrowShrinkInverse(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		b := randBox(rnd)
		g := rnd.Intn(4)
		if got := b.Grow(g).Grow(-g); !got.Equal(b) {
			t.Fatalf("Grow(%d).Grow(-%d) of %v = %v", g, g, b, got)
		}
	}
}

func TestGrowGhostCount(t *testing.T) {
	// Fig. 1 of the paper: an N-cell box grown by nghost has (N+2*nghost)^3
	// points.
	b := Cube(16).Grow(2)
	if b.NumPts() != 20*20*20 {
		t.Fatalf("ghosted NumPts = %d, want %d", b.NumPts(), 20*20*20)
	}
	if g := Cube(16).GrowDir(1, 2); g.Size() != ivect.New(16, 20, 16) {
		t.Fatalf("GrowDir size = %v", g.Size())
	}
}

func TestShift(t *testing.T) {
	b := Cube(4)
	s := b.Shift(0, 3)
	if s.Lo != ivect.New(3, 0, 0) || s.Hi != ivect.New(6, 3, 3) {
		t.Fatalf("Shift = %v", s)
	}
	if got := b.ShiftVect(ivect.New(1, 2, 3)).ShiftVect(ivect.New(-1, -2, -3)); !got.Equal(b) {
		t.Fatalf("ShiftVect round trip = %v", got)
	}
}

func TestSurroundingFacesEnclosedCells(t *testing.T) {
	b := Cube(8)
	for d := 0; d < 3; d++ {
		f := b.SurroundingFaces(d)
		wantSize := ivect.Uniform(8).With(d, 9)
		if f.Size() != wantSize {
			t.Fatalf("SurroundingFaces(%d) size = %v, want %v", d, f.Size(), wantSize)
		}
		if got := f.EnclosedCells(d); !got.Equal(b) {
			t.Fatalf("EnclosedCells(SurroundingFaces) dir %d = %v", d, got)
		}
	}
}

func TestChopDir(t *testing.T) {
	b := Cube(8)
	lo, hi := b.ChopDir(1, 3)
	if lo.Size() != ivect.New(8, 3, 8) || hi.Size() != ivect.New(8, 5, 8) {
		t.Fatalf("ChopDir sizes = %v, %v", lo.Size(), hi.Size())
	}
	if lo.Intersects(hi) {
		t.Error("chopped halves overlap")
	}
	if lo.NumPts()+hi.NumPts() != b.NumPts() {
		t.Error("chopped halves do not partition")
	}
	for _, p := range []int{0, -1, 8, 9} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChopDir at %d did not panic", p)
				}
			}()
			b.ChopDir(1, p)
		}()
	}
}

func TestSlabsPartition(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		b := randBox(rnd)
		d := rnd.Intn(3)
		n := rnd.Intn(6) + 1
		slabs := b.Slabs(d, n)
		total := 0
		for si, s := range slabs {
			if s.IsEmpty() {
				t.Fatalf("empty slab %d of %v", si, b)
			}
			total += s.NumPts()
			for sj, o := range slabs {
				if si != sj && s.Intersects(o) {
					t.Fatalf("slabs %d and %d overlap for %v", si, sj, b)
				}
			}
		}
		if total != b.NumPts() {
			t.Fatalf("slabs cover %d of %d points", total, b.NumPts())
		}
		// Balanced: sizes differ by at most one plane worth of points.
		if len(slabs) > 1 {
			per := b.NumPts() / b.Size()[d]
			min, max := slabs[0].NumPts(), slabs[0].NumPts()
			for _, s := range slabs[1:] {
				if s.NumPts() < min {
					min = s.NumPts()
				}
				if s.NumPts() > max {
					max = s.NumPts()
				}
			}
			if max-min > per {
				t.Fatalf("slab imbalance %d for %v (per-plane %d)", max-min, b, per)
			}
		}
	}
}

func TestTilesPartitionAndClip(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		b := randBox(rnd)
		ts := rnd.Intn(5) + 1
		tiles := b.Tiles(ts)
		total := 0
		for ti, tb := range tiles {
			if tb.IsEmpty() {
				t.Fatalf("empty tile %d", ti)
			}
			if !b.ContainsBox(tb) {
				t.Fatalf("tile %v escapes %v", tb, b)
			}
			if tb.Size().MaxComp() > ts {
				t.Fatalf("tile %v larger than %d", tb, ts)
			}
			total += tb.NumPts()
			for tj, ob := range tiles {
				if ti != tj && tb.Intersects(ob) {
					t.Fatalf("tiles %d,%d overlap", ti, tj)
				}
			}
		}
		if total != b.NumPts() {
			t.Fatalf("tiles cover %d of %d", total, b.NumPts())
		}
	}
}

func TestTileGridOT16(t *testing.T) {
	// A 128 box tiled at 16 gives the 8x8x8 tile grid of the OT-16 variants.
	g := Cube(128).TileGrid(16)
	if g.NumPts() != 512 {
		t.Fatalf("TileGrid(128,16) = %d tiles", g.NumPts())
	}
	// A 16 box tiled at 16 is a single tile: the paper's observation that
	// P<Box with T=16 on N=16 has one thread worth of work.
	if g := Cube(16).TileGrid(16); g.NumPts() != 1 {
		t.Fatalf("TileGrid(16,16) = %d tiles", g.NumPts())
	}
}

func TestTileAtMatchesTiles(t *testing.T) {
	b := NewSized(ivect.New(1, 2, 3), ivect.New(10, 7, 5))
	ts := 4
	var fromGrid []Box
	b.TileGrid(ts).ForEach(func(tv ivect.IntVect) {
		fromGrid = append(fromGrid, b.TileAt(ts, tv))
	})
	if !reflect.DeepEqual(fromGrid, b.Tiles(ts)) {
		t.Fatal("TileAt enumeration disagrees with Tiles")
	}
}

func TestForEachOrderAndCount(t *testing.T) {
	b := NewSized(ivect.New(0, 0, 0), ivect.New(3, 2, 2))
	var pts []ivect.IntVect
	b.ForEach(func(p ivect.IntVect) { pts = append(pts, p) })
	if len(pts) != b.NumPts() {
		t.Fatalf("ForEach visited %d of %d", len(pts), b.NumPts())
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i-1].LexLess(pts[i]) {
			t.Fatalf("ForEach out of column-major order at %d: %v then %v", i, pts[i-1], pts[i])
		}
	}
	if pts[0] != ivect.Zero || pts[1] != ivect.New(1, 0, 0) {
		t.Fatalf("x must vary fastest, got %v, %v", pts[0], pts[1])
	}
}

func TestString(t *testing.T) {
	if got := Cube(2).String(); got != "[(0,0,0)..(1,1,1)]" {
		t.Errorf("String = %q", got)
	}
	if got := Empty().String(); got != "[empty]" {
		t.Errorf("empty String = %q", got)
	}
}
