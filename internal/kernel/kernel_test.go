package kernel

import (
	"math"
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
)

func TestVelComp(t *testing.T) {
	for d, want := range []int{1, 2, 3} {
		if got := VelComp(d); got != want {
			t.Errorf("VelComp(%d) = %d, want %d", d, got, want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("VelComp(3) did not panic")
			}
		}()
		VelComp(3)
	}()
}

func TestFaceAvgIsExactForCubics(t *testing.T) {
	// Eq. 6 is a fourth-order face average: for cell averages of a cubic
	// polynomial it reproduces the exact face average (which for a point
	// value interpretation is the polynomial at the face). Verify with cell
	// averages of f(x) = x^3: cell i average over [i, i+1] is
	// ((i+1)^4 - i^4)/4; the exact face value of the average-projection at
	// face between cells is continuous, so the stencil must reproduce the
	// common limit.
	cellAvg := func(i int) float64 {
		a, b := float64(i), float64(i+1)
		return (b*b*b*b - a*a*a*a) / 4
	}
	phi := make([]float64, 9)
	for i := range phi {
		phi[i] = cellAvg(i - 2)
	}
	// Face at cell boundary x = 2 (between cells 1 and 2): offset of the
	// high cell (index 2) in phi is 4.
	got := FaceAvg(phi, 4, 1)
	want := math.Pow(2, 3) // x^3 at x=2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("FaceAvg on cubic = %v, want %v", got, want)
	}
}

func TestFaceAvgConstantPreserved(t *testing.T) {
	phi := []float64{3, 3, 3, 3}
	if got := FaceAvg(phi, 2, 1); math.Abs(got-3) > 1e-15 {
		t.Fatalf("FaceAvg(const 3) = %v", got)
	}
}

func TestFaceAvgCoefficientsSumToOne(t *testing.T) {
	if math.Abs(2*C1+2*C2-1) > 1e-15 {
		t.Fatalf("2*C1 + 2*C2 = %v, want 1", 2*C1+2*C2)
	}
}

func TestGrownBoxAndNewState(t *testing.T) {
	v := box.Cube(8)
	g := GrownBox(v)
	if g.Size() != ivect.Uniform(12) {
		t.Fatalf("GrownBox size = %v", g.Size())
	}
	phi0, phi1 := NewState(v)
	if !phi0.Box().Equal(g) || !phi1.Box().Equal(v) {
		t.Fatal("NewState boxes wrong")
	}
	if phi0.NComp() != NComp || phi1.NComp() != NComp {
		t.Fatal("NewState ncomp wrong")
	}
}

func TestReferenceConstantStateZeroDivergence(t *testing.T) {
	// For spatially constant phi0 the face averages are constant, so every
	// flux difference vanishes: phi1 must remain exactly zero.
	v := box.Cube(6)
	phi0, phi1 := NewState(v)
	for c := 0; c < NComp; c++ {
		phi0.FillComp(c, float64(c+1))
	}
	Reference(phi0, phi1, v)
	if n := phi1.MaxNorm(v); n != 0 {
		t.Fatalf("constant state produced |phi1| = %v", n)
	}
}

func TestReferenceConservation(t *testing.T) {
	// The accumulation telescopes: the sum of phi1 over the valid box equals
	// the net flux through the box surface, computed independently here.
	v := box.Cube(8)
	phi0, phi1 := NewState(v)
	rnd := rand.New(rand.NewSource(21))
	phi0.Randomize(rnd, 0.5, 1.5)
	Reference(phi0, phi1, v)

	for c := 0; c < NComp; c++ {
		got := phi1.SumComp(v, c)
		var want float64
		for dir := 0; dir < ivect.SpaceDim; dir++ {
			faces := v.SurroundingFaces(dir)
			// High boundary faces add, low boundary faces subtract.
			loFaces := faces
			loFaces.Hi = loFaces.Hi.With(dir, faces.Lo[dir])
			hiFaces := faces
			hiFaces.Lo = hiFaces.Lo.With(dir, faces.Hi[dir])
			sum := func(fb box.Box, sign float64) {
				fb.ForEach(func(p ivect.IntVect) {
					vel := faceAvgAt(phi0, p, dir, VelComp(dir))
					want += sign * Flux2(vel, faceAvgAt(phi0, p, dir, c))
				})
			}
			sum(hiFaces, 1)
			sum(loFaces, -1)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("comp %d: sum phi1 = %v, boundary flux = %v", c, got, want)
		}
	}
}

func TestReferenceAccumulates(t *testing.T) {
	// Running the kernel twice must accumulate exactly twice the increment.
	v := box.Cube(4)
	phi0, phi1 := NewState(v)
	InitSmooth(phi0, 8)
	Reference(phi0, phi1, v)
	once := phi1.Clone()
	Reference(phi0, phi1, v)
	var maxRel float64
	v.ForEach(func(p ivect.IntVect) {
		for c := 0; c < NComp; c++ {
			d := math.Abs(phi1.Get(p, c) - 2*once.Get(p, c))
			if d > maxRel {
				maxRel = d
			}
		}
	})
	if maxRel > 1e-12 {
		t.Fatalf("second application not additive, max err %v", maxRel)
	}
}

func TestReferenceMatchesDirectEvaluation(t *testing.T) {
	// Independent re-derivation: compute phi1 at a handful of cells straight
	// from the formulas, bypassing the staged flux arrays.
	v := box.Cube(5)
	phi0, phi1 := NewState(v)
	rnd := rand.New(rand.NewSource(33))
	phi0.Randomize(rnd, -1, 1)
	Reference(phi0, phi1, v)

	cells := []ivect.IntVect{
		ivect.New(0, 0, 0), ivect.New(4, 4, 4), ivect.New(2, 1, 3),
	}
	for _, cell := range cells {
		for c := 0; c < NComp; c++ {
			var want float64
			for dir := 0; dir < ivect.SpaceDim; dir++ {
				lo, hi := cell, cell.Shift(dir, 1)
				fluxAt := func(face ivect.IntVect) float64 {
					return Flux2(faceAvgAt(phi0, face, dir, VelComp(dir)),
						faceAvgAt(phi0, face, dir, c))
				}
				want += fluxAt(hi) - fluxAt(lo)
			}
			got := phi1.Get(cell, c)
			if math.Abs(got-want) > 1e-13 {
				t.Fatalf("cell %v comp %d: got %v, want %v", cell, c, got, want)
			}
		}
	}
}

func TestReferencePanicsOnBadState(t *testing.T) {
	v := box.Cube(4)
	phi0, phi1 := NewState(v)
	small := fab.New(v, NComp) // missing ghosts
	func() {
		defer func() {
			if recover() == nil {
				t.Error("missing ghosts not detected")
			}
		}()
		Reference(small, phi1, v)
	}()
	bad := fab.New(GrownBox(v), 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong ncomp not detected")
			}
		}()
		Reference(bad, phi1, v)
	}()
	_ = phi0
}

func TestInitSmoothBounded(t *testing.T) {
	v := box.Cube(8)
	phi0, _ := NewState(v)
	InitSmooth(phi0, 16)
	phi0.Box().ForEach(func(p ivect.IntVect) {
		if rho := phi0.Get(p, 0); rho < 0.8 || rho > 1.2 {
			t.Fatalf("rho out of range at %v: %v", p, rho)
		}
		if e := phi0.Get(p, 4); e < 1.8 || e > 2.2 {
			t.Fatalf("e out of range at %v: %v", p, e)
		}
	})
	// Periodicity: shifting by the period is an identity of the init field.
	a, _ := NewState(v)
	InitSmooth(a, 8)
	if a.Get(ivect.New(0, 0, 0), 0) != a.Get(ivect.New(8-8, 0, 0), 0) {
		t.Fatal("unexpected")
	}
	p1 := a.Get(ivect.New(1, 9, 3), 1) // ghost region
	p2 := a.Get(ivect.New(1, 1, 3), 1) // one period away, interior
	if math.Abs(p1-p2) > 1e-12 {
		t.Fatalf("InitSmooth not periodic: %v vs %v", p1, p2)
	}
}

// TestSmoothFuncMatchesSmoothAt holds the tabulated fill function,
// SmoothRowFunc, to the pointwise definition bit for bit, for every
// component: one value at a time over the period cube extended by 3
// cells on every side (ghost cells and periodic images take the math
// fallback) and at points a whole period or more outside [0, period) on
// each axis in turn and on all three; whole rows starting inside and
// outside the period on each axis; and InitSmooth and InitSmoothFrozen,
// which fill through it, to their pointwise forms.
func TestSmoothFuncMatchesSmoothAt(t *testing.T) {
	for _, period := range []int{1, 3, 8, 16, 32, 48, 64} {
		f := SmoothRowFunc(period)
		check := func(p ivect.IntVect) {
			var got [1]float64
			for c := 0; c < NComp; c++ {
				if f(got[:], p, c); math.Float64bits(got[0]) != math.Float64bits(SmoothAt(period, p, c)) {
					t.Fatalf("period %d at %v comp %d: SmoothRowFunc %v, SmoothAt %v", period, p, c, got[0], SmoothAt(period, p, c))
				}
			}
		}
		box.Cube(period).Grow(3).ForEach(check)
		for _, far := range []int{-2*period - 1, -period, period, 3*period + 2} {
			for d := 0; d < 3; d++ {
				for _, in := range []int{0, period / 2, period - 1} {
					p := ivect.New(in, period-1-in, in)
					p[d] = far
					check(p)
				}
			}
			check(ivect.New(far, far, far))
		}
	}
	// The row form: every component, rows of several lengths that start
	// inside [0, period), just below it, a period or more below it, and
	// at or beyond its top, in x; and in y or z at each of those.
	for _, period := range []int{1, 3, 16} {
		row := SmoothRowFunc(period)
		starts := []int{0, period / 2, period - 1, -1, -period - 2, period, 2*period + 1}
		for _, n := range []int{1, 2, period, period + 5} {
			buf := make([]float64, n)
			for _, x0 := range starts {
				for _, yz := range starts {
					for _, lo := range []ivect.IntVect{ivect.New(x0, yz, 0), ivect.New(x0, 0, yz), ivect.New(x0, yz, yz)} {
						for c := 0; c < NComp; c++ {
							row(buf, lo, c)
							for i, got := range buf {
								p := ivect.New(lo[0]+i, lo[1], lo[2])
								if want := SmoothAt(period, p, c); math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("period %d row from %v comp %d, value %d: SmoothRowFunc %v, SmoothAt %v",
										period, lo, c, i, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
	const period = 12
	b := box.Cube(period).Grow(NGhost)
	smooth, frozen := fab.New(b, NComp), fab.New(b, NComp)
	InitSmooth(smooth, period)
	InitSmoothFrozen(frozen, period)
	b.ForEach(func(p ivect.IntVect) {
		for c := 0; c < NComp; c++ {
			if got, want := smooth.Get(p, c), SmoothAt(period, p, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("InitSmooth at %v comp %d: %v, SmoothAt %v", p, c, got, want)
			}
			if got, want := frozen.Get(p, c), FrozenSmoothAt(period, p, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("InitSmoothFrozen at %v comp %d: %v, FrozenSmoothAt %v", p, c, got, want)
			}
		}
	})
}

func TestWorkFor(t *testing.T) {
	n := 16
	w := WorkFor(box.Cube(n))
	n3 := int64(n * n * n)
	faces := 3 * int64(n+1) * int64(n) * int64(n)
	if w.Cells != n3 {
		t.Errorf("Cells = %d", w.Cells)
	}
	if w.Faces != faces {
		t.Errorf("Faces = %d, want %d", w.Faces, faces)
	}
	wantFlops := faces*NComp*FlopsPerFaceAvg + faces*NComp*FlopsPerFlux2 + n3*NComp*FlopsPerAccum*3
	if w.Flops != wantFlops {
		t.Errorf("Flops = %d, want %d", w.Flops, wantFlops)
	}
	if w.Flops != w.FlopsEval1+w.FlopsEval2+w.FlopsAccum {
		t.Error("Flops does not sum its parts")
	}
}

func TestCheckStateExported(t *testing.T) {
	v := box.Cube(4)
	phi0, phi1 := NewState(v)
	CheckState(phi0, phi1, v) // must not panic on a valid state
	defer func() {
		if recover() == nil {
			t.Error("CheckState accepted undersized phi1")
		}
	}()
	half, _ := v.ChopDir(0, 2)
	CheckState(phi0, fab.New(half, NComp), v)
}

// TestAxpyMatchesPerValue holds Axpy to the per-value definition of its
// terms applied one after another, bit for bit over every FAB, with
// in-place terms, a term reading another term's output, rows that end
// in a partial vector, and a region clipped by the smallest FAB.
func TestAxpyMatchesPerValue(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	valid := box.NewSized(ivect.New(-3, 2, 1), ivect.New(7, 5, 4))
	d := fab.New(valid, 3)
	d.Randomize(rnd, -1, 1)
	s, tm, a := fab.New(valid.Grow(2), 3), fab.New(valid.Grow(2), 3), fab.New(valid, 3)
	for _, f := range []*fab.FAB{s, tm, a} {
		f.Randomize(rnd, -2, 2)
	}
	all := []*fab.FAB{s, tm, a}
	cases := [][]Term{
		{{Dst: s, X: s, A: -0.1}},
		{{Dst: tm, X: s, A: -0.05}, {Dst: a, X: s, A: -1.0 / 60}},
		{{Dst: tm, X: s, A: -0.05}, {Dst: a, X: a, A: -1.0 / 30}},
		{{Dst: a, X: a, A: 0.3}, {Dst: s, X: a, A: -0.7}},
	}
	for k, terms := range cases {
		got, want := make([]*fab.FAB, len(all)), make([]*fab.FAB, len(all))
		for i, f := range all {
			got[i], want[i] = f.Clone(), f.Clone()
		}
		in := func(set []*fab.FAB, f *fab.FAB) *fab.FAB {
			for i, o := range all {
				if o == f {
					return set[i]
				}
			}
			panic("unknown FAB")
		}
		gt := make([]Term, len(terms))
		for i, tr := range terms {
			gt[i] = Term{Dst: in(got, tr.Dst), X: in(got, tr.X), A: tr.A}
		}
		Axpy(valid.Grow(1), d, gt...) // clipped to valid by d and a
		for _, tr := range terms {
			dst, x := in(want, tr.Dst), in(want, tr.X)
			valid.ForEach(func(p ivect.IntVect) {
				for c := 0; c < 3; c++ {
					dst.Set(p, c, x.Get(p, c)+tr.A*d.Get(p, c))
				}
			})
		}
		for i := range got {
			for j, v := range got[i].Data() {
				if w := want[i].Data()[j]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("case %d FAB %d: value %d is %v, oracle %v", k, i, j, v, w)
				}
			}
		}
	}
}
