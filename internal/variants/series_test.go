package variants

import (
	"math"
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/parallel"
	"stencilsched/internal/sched"
)

// rowwiseScale is seriesScaleSlabs one x-row per row-kernel call.
func rowwiseScale(out, vData []float64, faces box.Box, fy, fz, zlo, zhi int) {
	nx := faces.Size()[0]
	for zi := zlo; zi < zhi; zi++ {
		for y := 0; y < faces.Size()[1]; y++ {
			off := y*fy + zi*fz
			kernel.Flux2Row(out[off:off+nx], vData[off:])
		}
	}
}

// rowwiseAccum is seriesAccumSlabs one x-row per row-kernel call.
func rowwiseAccum(s *state, dst, fd []float64, cells, faces box.Box, fy, fz, fdir, zlo, zhi int) {
	nx, ny := cells.Size()[0], cells.Size()[1]
	for zi := zlo; zi < zhi; zi++ {
		fOff := (zi + cells.Lo[2] - faces.Lo[2]) * fz
		pOff := s.off1(ivect.New(cells.Lo[0], cells.Lo[1], cells.Lo[2]+zi))
		for y := 0; y < ny; y++ {
			kernel.DiffAccRow(dst[pOff:pOff+nx], fd[fOff+fdir:], fd[fOff:])
			fOff, pOff = fOff+fy, pOff+s.str1[1]
		}
	}
}

// firstBitDiff returns the first index at which a and b differ bitwise,
// or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSeriesContiguousRunsMatchRows holds the series passes' collapsed
// row-kernel calls to the same passes one x-row per call, bit for bit:
// the flux product over whole slab ranges, and the accumulation over
// whole slab ranges, z-planes or x-rows. It runs a phi1 equal to the
// cells (every collapse applies) and one larger than them (x-rows only),
// with the z slabs split as threads 1 and 3 split them, and then the
// whole Baseline executors against the reference on both phi1 shapes.
func TestSeriesContiguousRunsMatchRows(t *testing.T) {
	// 17-cell rows: a run's vector body and scalar tail fall elsewhere
	// than a row's.
	cells := box.NewSized(ivect.New(-3, 5, 2), ivect.New(17, 9, 7))
	rnd := rand.New(rand.NewSource(37))
	for _, grow := range []int{0, 2} {
		phi0, _ := makeState(cells, 38)
		phi1 := fab.New(cells.Grow(grow), kernel.NComp)
		phi1.Randomize(rnd, -1, 1)
		s := newState(phi0, phi1, cells)
		for dir := 0; dir < ivect.SpaceDim; dir++ {
			faces := cells.SurroundingFaces(dir)
			flux := fab.New(faces, kernel.NComp)
			flux.Randomize(rnd, -1, 1)
			vel := fab.New(faces, 1)
			vel.Randomize(rnd, -1, 1)
			fy, fz, _ := flux.Strides()
			fdir := fluxDirStride(dir, fy, fz)
			nzF, nzC := faces.Size()[2], cells.Size()[2]
			for _, threads := range []int{1, 3} {
				for c := 0; c < kernel.NComp; c++ {
					got := append([]float64(nil), flux.Comp(c)...)
					want := append([]float64(nil), flux.Comp(c)...)
					parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
						seriesScaleSlabs(got, vel.Data(), fz, zlo, zhi)
					})
					parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
						rowwiseScale(want, vel.Data(), faces, fy, fz, zlo, zhi)
					})
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("grow=%d dir=%d threads=%d comp %d: flux product differs at %d: %v vs %v",
							grow, dir, threads, c, i, got[i], want[i])
					}
					gotP := append([]float64(nil), phi1.Comp(c)...)
					wantP := append([]float64(nil), phi1.Comp(c)...)
					parallel.ForChunked(threads, nzC, func(_, zlo, zhi int) {
						seriesAccumSlabs(s, gotP, got, cells, faces, fy, fz, fdir, zlo, zhi)
					})
					parallel.ForChunked(threads, nzC, func(_, zlo, zhi int) {
						rowwiseAccum(s, wantP, want, cells, faces, fy, fz, fdir, zlo, zhi)
					})
					if i := firstBitDiff(gotP, wantP); i >= 0 {
						t.Fatalf("grow=%d dir=%d threads=%d comp %d: accumulation differs at %d: %v vs %v",
							grow, dir, threads, c, i, gotP[i], wantP[i])
					}
				}
			}
		}

		ref := fab.New(cells.Grow(grow), kernel.NComp)
		kernel.Reference(phi0, ref, cells)
		for _, name := range []string{"Baseline-CLO: P<Box", "Baseline-CLO: P>=Box"} {
			v, err := sched.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 3} {
				out := fab.New(cells.Grow(grow), kernel.NComp)
				Exec(v, phi0, out, cells, threads)
				if i := firstBitDiff(out.Data(), ref.Data()); i >= 0 {
					t.Fatalf("grow=%d %s threads=%d: differs from the reference at value %d", grow, name, threads, i)
				}
			}
		}
	}
}
