package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
)

// sweepRows drives a row kernel over valid the way every fused schedule
// does: velocity face fields first, then rows in (z, y) order with the y
// row and z plane of low-face fluxes carried between them and seeded on
// the low faces of valid. row updates the n cells starting at p.
func sweepRows(phi0 *fab.FAB, valid box.Box, c int,
	row func(p ivect.IntVect, ph []float64, o0, sy, sz int, vx, vy, vz, fy, fz []float64, fxlo float64)) {
	var vel [3]*fab.FAB
	for d := range vel {
		vel[d] = fab.New(valid.SurroundingFaces(d), 1)
		vel[d].Box().ForEach(func(p ivect.IntVect) {
			vel[d].Set(p, 0, faceAvgAt(phi0, p, d, VelComp(d)))
		})
	}
	sy, sz, _ := phi0.Strides()
	vsy, _, _ := vel[1].Strides()
	_, vsz, _ := vel[2].Strides()
	n := valid.Size()[0]
	ph := phi0.Comp(c)
	fy := make([]float64, n)
	fz := make([]float64, n*valid.Size()[1])
	for z := valid.Lo[2]; z <= valid.Hi[2]; z++ {
		for y := valid.Lo[1]; y <= valid.Hi[1]; y++ {
			p := ivect.New(valid.Lo[0], y, z)
			o0 := phi0.Index(p, 0)
			vx, vy, vz := vel[0].Data()[vel[0].Index(p, 0):], vel[1].Data()[vel[1].Index(p, 0):], vel[2].Data()[vel[2].Index(p, 0):]
			fzRow := fz[(y-valid.Lo[1])*n:][:n]
			if y == valid.Lo[1] {
				SeedRow(fy, vy, ph, o0, sy)
			}
			if z == valid.Lo[2] {
				SeedRow(fzRow, vz, ph, o0, sz)
			}
			// High faces: one face on in x, one row on in y, one plane on in z.
			row(p, ph, o0, sy, sz, vx[1:], vy[vsy:], vz[vsz:], fy, fzRow, Flux2(vx[0], FaceAvg(ph, o0, 1)))
		}
	}
}

// rowLens are the row lengths the row kernels are tested at: around the
// vector width (1-9: each tail length with and without a vector before
// it), around four vectors, and the benchmark's 48 with and without a
// tail.
var rowLens = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 48, 49}

// rowTestBoxes are the geometries the row kernels are held to Reference
// on: a shifted box, rows of one cell, and a thin box per row length.
func rowTestBoxes() []box.Box {
	boxes := []box.Box{
		box.NewSized(ivect.New(-2, 3, 1), ivect.New(6, 4, 5)),
		box.NewSized(ivect.New(4, 0, -7), ivect.New(1, 3, 2)), // rows of one cell
	}
	for _, n := range rowLens {
		boxes = append(boxes, box.NewSized(ivect.New(n%3-1, -2, 5), ivect.New(n, 3, 2)))
	}
	return boxes
}

// TestRowKernelsMatchReference pins the three write-back forms of the
// fused row kernel bitwise to what they replace: FusedRow to Reference's
// accumulation into a pre-filled phi1, EulerRow to zero-accumulator +
// Reference + fab.Plus on a copy of the state, EulerDeltaRow to that plus
// the delta write-back against a base state. Each box runs twice: with
// the state allocated exactly (a row's first cell at an even offset of its
// slice) and one cell wider on the low x side (an odd offset), so the
// vector body loads and stores at both alignments of a 16-byte pair.
func TestRowKernelsMatchReference(t *testing.T) {
	const ndt = -EulerDt
	for bi, valid := range rowTestBoxes() {
		for pad := 0; pad < 2; pad++ {
			rng := rand.New(rand.NewSource(int64(40 + bi)))
			padLo := func(b box.Box) box.Box { return box.New(b.Lo.Shift(0, -pad), b.Hi) }
			alloc := padLo(valid)
			phi0 := fab.New(padLo(GrownBox(valid)), NComp)
			phi0.Randomize(rng, 0.25, 1.75)
			fill := fab.New(alloc, NComp)
			fill.Randomize(rng, -1, 1)
			base := fab.New(alloc, NComp)
			base.Randomize(rng, 0.25, 1.75)
			n := valid.Size()[0]

			wantAcc := fab.New(alloc, NComp)
			wantAcc.CopyFrom(fill, valid)
			Reference(phi0, wantAcc, valid)
			div := fab.New(valid, NComp)
			Reference(phi0, div, valid)
			wantNext := fab.New(alloc, NComp)
			wantNext.CopyFrom(phi0, valid)
			wantNext.Plus(div, valid, ndt)
			wantDelta := fab.New(alloc, NComp)
			valid.ForEach(func(p ivect.IntVect) {
				for c := 0; c < NComp; c++ {
					wantDelta.Set(p, c, fill.Get(p, c)+(wantNext.Get(p, c)-base.Get(p, c)))
				}
			})

			acc, next, delta, series := fab.New(alloc, NComp), fab.New(alloc, NComp), fab.New(alloc, NComp), fab.New(alloc, NComp)
			acc.CopyFrom(fill, valid)
			delta.CopyFrom(fill, valid)
			series.CopyFrom(fill, valid)
			for c := 0; c < NComp; c++ {
				sweepRows(phi0, valid, c, func(p ivect.IntVect, ph []float64, o0, sy, sz int, vx, vy, vz, fy, fz []float64, fxlo float64) {
					FusedRow(acc.Comp(c)[acc.Index(p, 0):][:n], ph, o0, sy, sz, vx, vy, vz, fy, fz, fxlo)
				})
				sweepRows(phi0, valid, c, func(p ivect.IntVect, ph []float64, o0, sy, sz int, vx, vy, vz, fy, fz []float64, fxlo float64) {
					EulerRow(next.Comp(c)[next.Index(p, 0):][:n], ph, o0, sy, sz, vx, vy, vz, fy, fz, fxlo, ndt)
				})
				sweepRows(phi0, valid, c, func(p ivect.IntVect, ph []float64, o0, sy, sz int, vx, vy, vz, fy, fz []float64, fxlo float64) {
					i := delta.Index(p, 0)
					EulerDeltaRow(delta.Comp(c)[i:i+n], base.Comp(c)[i:i+n], ph, o0, sy, sz, vx, vy, vz, fy, fz, fxlo, ndt)
				})
			}
			seriesRows(phi0, series, valid)
			for _, tc := range []struct {
				name      string
				got, want *fab.FAB
			}{{"FusedRow", acc, wantAcc}, {"EulerRow", next, wantNext}, {"EulerDeltaRow", delta, wantDelta}, {"series rows", series, wantAcc}} {
				if d, at, c := tc.got.MaxDiff(tc.want, valid); d != 0 {
					t.Errorf("box %v pad %d: %s differs from its reference by %g at %v comp %d", valid, pad, tc.name, d, at, c)
				}
			}
		}
	}
}

// seriesRows runs the series of loops of Figure 6 out of the three series
// row forms, row by row: per direction FaceAvgRow for every component, the
// velocity capture, then Flux2Row and DiffAccRow per component.
func seriesRows(phi0, phi1 *fab.FAB, valid box.Box) {
	sy, sz, _ := phi0.Strides()
	for d, sd := range []int{1, sy, sz} {
		faces := valid.SurroundingFaces(d)
		flux, vel := fab.New(faces, NComp), fab.New(faces, 1)
		fy, fz, _ := flux.Strides()
		nf, nc := faces.Size()[0], valid.Size()[0]
		rows := func(b box.Box, row func(p ivect.IntVect)) {
			for z := b.Lo[2]; z <= b.Hi[2]; z++ {
				for y := b.Lo[1]; y <= b.Hi[1]; y++ {
					row(ivect.New(b.Lo[0], y, z))
				}
			}
		}
		for c := 0; c < NComp; c++ {
			rows(faces, func(p ivect.IntVect) {
				FaceAvgRow(flux.Comp(c)[flux.Index(p, 0):][:nf], phi0.Comp(c), phi0.Index(p, 0), sd)
			})
		}
		vel.CopyFromShifted(flux, faces, ivect.Zero, VelComp(d), 0, 1)
		for c := 0; c < NComp; c++ {
			fc := flux.Comp(c)
			rows(faces, func(p ivect.IntVect) {
				i := flux.Index(p, 0)
				Flux2Row(fc[i:i+nf], vel.Comp(0)[i:])
			})
			rows(valid, func(p ivect.IntVect) {
				i := flux.Index(p, 0)
				DiffAccRow(phi1.Comp(c)[phi1.Index(p, 0):][:nc], fc[i+[]int{1, fy, fz}[d]:], fc[i:])
			})
		}
	}
}

// rowRig is one row problem for TestRowKernelsAsmMatchesGo: read-only
// sources, and the rows a kernel writes with guard cells on either side of
// cells [rowGuard, rowGuard+n).
type rowRig struct {
	n, o0, sy, sz        int
	ph, vx, vy, vz, base []float64
	dst, fy, fz          []float64
	fxlo, ndt            float64
}

const rowGuard = 5

// newRowRig draws a row of n cells with every value from gen, at a random
// (odd or even) first offset.
func newRowRig(rng *rand.Rand, n int, gen func() float64) *rowRig {
	sy := n + 4 + rng.Intn(3)
	sz := sy * (3 + rng.Intn(2))
	r := &rowRig{n: n, o0: 2*sz + rng.Intn(4), sy: sy, sz: sz, fxlo: gen(), ndt: -EulerDt}
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = gen()
		}
		return s
	}
	r.ph = fill(r.o0 + n + 2*sz + 2)
	r.vx, r.vy, r.vz, r.base = fill(n), fill(n), fill(n), fill(n)
	r.dst, r.fy, r.fz = fill(n+2*rowGuard), fill(n+2*rowGuard), fill(n+2*rowGuard)
	return r
}

// written returns a copy of r sharing the sources and owning the rows a
// kernel writes.
func (r *rowRig) written() *rowRig {
	c := *r
	c.dst, c.fy, c.fz = append([]float64(nil), r.dst...), append([]float64(nil), r.fy...), append([]float64(nil), r.fz...)
	return &c
}

// rowForms drives each exported row kernel on cells [lo, lo+n) of a rig,
// carrying r.fxlo the way a sweep carries the x flux. SeedRow and
// FaceAvgRow appear once per stride kind: unit (overlapping loads) and a
// row or plane apart.
var rowForms = []struct {
	name string
	run  func(r *rowRig, lo, n int)
}{
	{"SeedRow/y", func(r *rowRig, lo, n int) {
		SeedRow(r.dst[rowGuard+lo:][:n], r.vy[lo:], r.ph, r.o0+lo, r.sy)
	}},
	{"SeedRow/x", func(r *rowRig, lo, n int) {
		SeedRow(r.dst[rowGuard+lo:][:n], r.vx[lo:], r.ph, r.o0+lo, 1)
	}},
	{"FusedRow", func(r *rowRig, lo, n int) {
		g := rowGuard + lo
		r.fxlo = FusedRow(r.dst[g:g+n], r.ph, r.o0+lo, r.sy, r.sz, r.vx[lo:], r.vy[lo:], r.vz[lo:], r.fy[g:g+n], r.fz[g:g+n], r.fxlo)
	}},
	{"EulerRow", func(r *rowRig, lo, n int) {
		g := rowGuard + lo
		r.fxlo = EulerRow(r.dst[g:g+n], r.ph, r.o0+lo, r.sy, r.sz, r.vx[lo:], r.vy[lo:], r.vz[lo:], r.fy[g:g+n], r.fz[g:g+n], r.fxlo, r.ndt)
	}},
	{"EulerDeltaRow", func(r *rowRig, lo, n int) {
		g := rowGuard + lo
		r.fxlo = EulerDeltaRow(r.dst[g:g+n], r.base[lo:], r.ph, r.o0+lo, r.sy, r.sz, r.vx[lo:], r.vy[lo:], r.vz[lo:], r.fy[g:g+n], r.fz[g:g+n], r.fxlo, r.ndt)
	}},
	{"FaceAvgRow/x", func(r *rowRig, lo, n int) {
		FaceAvgRow(r.dst[rowGuard+lo:][:n], r.ph, r.o0+lo, 1)
	}},
	{"FaceAvgRow/z", func(r *rowRig, lo, n int) {
		FaceAvgRow(r.dst[rowGuard+lo:][:n], r.ph, r.o0+lo, r.sz)
	}},
	{"Flux2Row", func(r *rowRig, lo, n int) {
		Flux2Row(r.dst[rowGuard+lo:][:n], r.vx[lo:])
	}},
	{"DiffAccRow", func(r *rowRig, lo, n int) {
		DiffAccRow(r.dst[rowGuard+lo:][:n], r.ph[r.o0+lo+1:], r.ph[r.o0+lo:])
	}},
}

// TestRowKernelsAsmMatchesGo holds the vector bodies to the Go loops bit
// for bit. A row of length one never reaches the assembly, so running a
// row cell by cell is the Go loop; running it whole is the assembly plus
// the loop's tail. Both start from the same pre-filled dst, fy, fz and
// carried-in fxlo, and must leave the same bits in every written row
// (guard cells included: nothing outside [0, n) is touched) and return the
// same carried flux; NaNs compare as NaN. Values are drawn from ordinary
// numbers, signed zeros and subnormals; from those with a few infinities
// and NaNs mixed in; and from the two zeros alone, where the Euler forms'
// add of zero decides the sign of the result.
func TestRowKernelsAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	finite := func() float64 {
		switch rng.Intn(24) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
		case 3:
			return -math.Float64frombits(uint64(rng.Int63n(1 << 52)))
		}
		return 4*rng.Float64() - 2
	}
	gens := []struct {
		name string
		gen  func() float64
	}{
		{"finite", finite},
		{"special", func() float64 {
			switch rng.Intn(150) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.NaN()
			}
			return finite()
		}},
		{"zero", func() float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }},
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	for _, g := range gens {
		for _, n := range rowLens {
			for trial := 0; trial < 4; trial++ {
				rig := newRowRig(rng, n, g.gen)
				for _, form := range rowForms {
					whole, cells := rig.written(), rig.written()
					form.run(whole, 0, n)
					for i := 0; i < n; i++ {
						form.run(cells, i, 1)
					}
					where := fmt.Sprintf("%s, %s values, n=%d o0=%d sy=%d sz=%d", form.name, g.name, n, rig.o0, rig.sy, rig.sz)
					if !same(whole.fxlo, cells.fxlo) {
						t.Errorf("%s: carried flux %x, Go loop %x", where, math.Float64bits(whole.fxlo), math.Float64bits(cells.fxlo))
					}
					for _, row := range []struct {
						name            string
						got, want, orig []float64
					}{{"dst", whole.dst, cells.dst, rig.dst}, {"fy", whole.fy, cells.fy, rig.fy}, {"fz", whole.fz, cells.fz, rig.fz}} {
						for i := range row.got {
							if !same(row.got[i], row.want[i]) {
								t.Errorf("%s: %s[%d] = %x, Go loop %x", where, row.name, i-rowGuard, math.Float64bits(row.got[i]), math.Float64bits(row.want[i]))
							}
							if (i < rowGuard || i >= rowGuard+n) && !same(row.got[i], row.orig[i]) {
								t.Errorf("%s: %s[%d] outside the row was written", where, row.name, i-rowGuard)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkRowKernels is the layer number under BenchmarkFused48: each row
// form alone, in ns per cell (one component) and in effective GB/s — eight
// bytes per cell for every row operand read and for every one written,
// what the form has to move when nothing is in cache. Rows of 16, 48 and
// 128 cells, from L1 (one row over and over) and through a box of
// n x 48 x 48 cells in sweep order (sources beyond L2, the y row and z
// plane of fluxes carried as a sweep carries them). Run it twice to put
// the assembly beside the Go loop:
//
//	go test -run '^$' -bench RowKernels -cpu 1 ./internal/kernel
//	go test -run '^$' -bench RowKernels -cpu 1 -tags purego ./internal/kernel
func BenchmarkRowKernels(b *testing.B) {
	const ny, nz = 48, 48
	for _, n := range []int{16, 48, 128} {
		valid := box.NewSized(ivect.Zero, ivect.New(n, ny, nz))
		phi0 := fab.New(GrownBox(valid), 1)
		phi0.Randomize(rand.New(rand.NewSource(1)), 0.25, 1.75)
		sy, sz, _ := phi0.Strides()
		ph := phi0.Comp(0)
		cells := func() []float64 {
			f := fab.New(valid, 1)
			f.Randomize(rand.New(rand.NewSource(2)), 0.25, 1.75)
			return f.Comp(0)
		}
		vx, vy, vz, dst, base := cells(), cells(), cells(), cells(), cells()
		fy, fz := make([]float64, n), make([]float64, n*ny)
		ones := make([]float64, n) // Flux2Row scales in place: by one, or the row would run off to zero or infinity
		for i := range ones {
			ones[i] = 1
		}
		for _, form := range []struct {
			name     string
			operands int // row operands read plus row operands written
			row      func(o0, c, y int)
		}{
			{"SeedRow", 3, func(o0, c, y int) { SeedRow(fy, vy[c:], ph, o0, sy) }},
			{"FusedRow", 10, func(o0, c, y int) {
				FusedRow(dst[c:c+n], ph, o0, sy, sz, vx[c:], vy[c:], vz[c:], fy, fz[y*n:][:n], 0)
			}},
			{"EulerRow", 9, func(o0, c, y int) {
				EulerRow(dst[c:c+n], ph, o0, sy, sz, vx[c:], vy[c:], vz[c:], fy, fz[y*n:][:n], 0, -EulerDt)
			}},
			{"EulerDeltaRow", 11, func(o0, c, y int) {
				EulerDeltaRow(dst[c:c+n], base[c:], ph, o0, sy, sz, vx[c:], vy[c:], vz[c:], fy, fz[y*n:][:n], 0, -EulerDt)
			}},
			{"FaceAvgRow", 2, func(o0, c, y int) { FaceAvgRow(dst[c:c+n], ph, o0, sz) }},
			{"Flux2Row", 3, func(o0, c, y int) { Flux2Row(dst[c:c+n], ones) }},
			{"DiffAccRow", 3, func(o0, c, y int) { DiffAccRow(dst[c:c+n], ph[o0+sy:], ph[o0:]) }},
		} {
			for _, src := range []struct {
				name string
				rows int
			}{{"L1", 1}, {"box", ny * nz}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", form.name, n, src.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						r := i % src.rows
						y, z := r%ny, r/ny
						form.row(phi0.Index(ivect.New(0, y, z), 0), (z*ny+y)*n, y)
					}
					perCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
					b.ReportMetric(perCell, "ns/cell")
					b.ReportMetric(float64(8*form.operands)/perCell, "GB/s")
				})
			}
		}
	}
}
