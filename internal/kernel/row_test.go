package kernel

import (
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

// TestRowKernelsMatchReference pins the three write-back forms of the
// fused row kernel bitwise to what they replace: FusedRow to Reference's
// accumulation into a pre-filled phi1, EulerRow to zero-accumulator +
// Reference + fab.Plus on a copy of the state, EulerDeltaRow to that plus
// the delta write-back against a base state. One-cell-wide and shifted
// boxes included.
func TestRowKernelsMatchReference(t *testing.T) {
	const ndt = -EulerDt
	for bi, valid := range []box.Box{
		box.NewSized(ivect.New(-2, 3, 1), ivect.New(6, 4, 5)),
		box.NewSized(ivect.New(4, 0, -7), ivect.New(1, 3, 2)), // rows of one cell
	} {
		rng := rand.New(rand.NewSource(int64(40 + bi)))
		phi0, fill := NewState(valid)
		phi0.Randomize(rng, 0.25, 1.75)
		fill.Randomize(rng, -1, 1)
		base := fab.New(valid, NComp)
		base.Randomize(rng, 0.25, 1.75)
		n := valid.Size()[0]

		wantAcc := fab.New(valid, NComp)
		wantAcc.CopyFrom(fill, valid)
		Reference(phi0, wantAcc, valid)
		div := fab.New(valid, NComp)
		Reference(phi0, div, valid)
		wantNext := fab.New(valid, NComp)
		wantNext.CopyFrom(phi0, valid)
		wantNext.Plus(div, valid, ndt)
		wantDelta := fab.New(valid, NComp)
		valid.ForEach(func(p ivect.IntVect) {
			for c := 0; c < NComp; c++ {
				wantDelta.Set(p, c, fill.Get(p, c)+(wantNext.Get(p, c)-base.Get(p, c)))
			}
		})

		acc, next, delta := fab.New(valid, NComp), fab.New(valid, NComp), fab.New(valid, NComp)
		acc.CopyFrom(fill, valid)
		delta.CopyFrom(fill, valid)
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
		for _, tc := range []struct {
			name      string
			got, want *fab.FAB
		}{{"FusedRow", acc, wantAcc}, {"EulerRow", next, wantNext}, {"EulerDeltaRow", delta, wantDelta}} {
			if d, at, c := tc.got.MaxDiff(tc.want, valid); d != 0 {
				t.Errorf("box %v: %s differs from its reference by %g at %v comp %d", valid, tc.name, d, at, c)
			}
		}
	}
}
