package kernel

// This file holds the row kernels of the shifted-and-fused schedules: the
// body of one x-row of cells with all three direction fluxes fused and the
// low-face fluxes carried instead of stored. They are the single
// definition behind the hand-written fused family (internal/variants), the
// schedc row statements (internal/variants/generated) and the interpreter's
// cell-by-cell execution of those statements (internal/codegen, rows of
// length one).
//
// Shared conventions: the row is the n consecutive cells in x whose first
// offset in the source component slice ph is o0, with sy and sz the
// source's y and z strides. vx, vy and vz hold the advection velocities at
// each cell's high faces. fy and fz hold each cell's low-face flux in y
// and z on entry and its high-face flux on return — the carried row and
// plane of the fused sweep; fxlo is the flux at the row's low x face and
// the result is the flux at its high x face — the carried scalar. Per cell
// the expressions and the x, y, z accumulation order are Reference's, so
// the bits are too.

// SeedRow recomputes a row of low-face fluxes in the direction whose source
// stride is sd: out[i] is the flux at the low face of the cell at offset
// o0+i, vel the velocities at those faces. A fused sweep calls it for the
// rows on a low face of its region, where no predecessor left a carried
// value (the "shift" of shift-and-fuse).
func SeedRow(out, vel, ph []float64, o0, sd int) {
	vel = vel[:len(out)]
	for i := range out {
		out[i] = Flux2(vel[i], FaceAvg(ph, o0+i, sd))
	}
}

// FusedRow is the accumulate form: dst[i] += div, the exemplar's own
// update (Reference's phi1 accumulation).
func FusedRow(dst, ph []float64, o0, sy, sz int, vx, vy, vz, fy, fz []float64, fxlo float64) float64 {
	n := len(dst)
	vx, vy, vz, fy, fz = vx[:n], vy[:n], vz[:n], fy[:n], fz[:n]
	for i := range dst {
		o := o0 + i
		fxhi := Flux2(vx[i], FaceAvg(ph, o+1, 1))
		fyhi := Flux2(vy[i], FaceAvg(ph, o+sy, sy))
		fzhi := Flux2(vz[i], FaceAvg(ph, o+sz, sz))
		v := dst[i]
		v += fxhi - fxlo
		v += fyhi - fy[i]
		v += fzhi - fz[i]
		dst[i] = v
		fxlo, fy[i], fz[i] = fxhi, fyhi, fzhi
	}
	return fxlo
}

// EulerRow is the explicit Euler form: next[i] = ph[o0+i] + ndt*div with
// ndt the negated step. div accumulates from zero in x, y, z order, so the
// bits are those of zeroing an accumulator, running Reference into it and
// applying fab.Plus(acc, region, ndt) to a copy of the source — without
// the accumulator or the copy.
func EulerRow(next, ph []float64, o0, sy, sz int, vx, vy, vz, fy, fz []float64, fxlo, ndt float64) float64 {
	n := len(next)
	vx, vy, vz, fy, fz = vx[:n], vy[:n], vz[:n], fy[:n], fz[:n]
	for i := range next {
		o := o0 + i
		fxhi := Flux2(vx[i], FaceAvg(ph, o+1, 1))
		fyhi := Flux2(vy[i], FaceAvg(ph, o+sy, sy))
		fzhi := Flux2(vz[i], FaceAvg(ph, o+sz, sz))
		div := 0.0
		div += fxhi - fxlo
		div += fyhi - fy[i]
		div += fzhi - fz[i]
		next[i] = ph[o] + ndt*div
		fxlo, fy[i], fz[i] = fxhi, fyhi, fzhi
	}
	return fxlo
}

// EulerDeltaRow is the last sub-step of a temporal sweep: the Euler update
// of EulerRow written back as a delta against base (the row of the
// sweep's input state at the same cells), dst[i] += (ph[o0+i] + ndt*div) -
// base[i] — the expression of temporal.AddDiff applied to the stepped
// state.
func EulerDeltaRow(dst, base, ph []float64, o0, sy, sz int, vx, vy, vz, fy, fz []float64, fxlo, ndt float64) float64 {
	n := len(dst)
	base, vx, vy, vz, fy, fz = base[:n], vx[:n], vy[:n], vz[:n], fy[:n], fz[:n]
	for i := range dst {
		o := o0 + i
		fxhi := Flux2(vx[i], FaceAvg(ph, o+1, 1))
		fyhi := Flux2(vy[i], FaceAvg(ph, o+sy, sy))
		fzhi := Flux2(vz[i], FaceAvg(ph, o+sz, sz))
		div := 0.0
		div += fxhi - fxlo
		div += fyhi - fy[i]
		div += fzhi - fz[i]
		dst[i] += (ph[o] + ndt*div) - base[i]
		fxlo, fy[i], fz[i] = fxhi, fyhi, fzhi
	}
	return fxlo
}
