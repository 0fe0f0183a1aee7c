package kernel

// This file holds the row kernels: the body of one x-row of cells or faces,
// the unit every schedule's innermost loop is made of. The fused forms
// (SeedRow, FusedRow, EulerRow, EulerDeltaRow) are one row of the
// shifted-and-fused schedules, all three direction fluxes fused and the
// low-face fluxes carried instead of stored; the series forms (FaceAvgRow,
// Flux2Row, DiffAccRow) are one row of a pass of the series of loops. They
// are the single definition behind the hand-written families
// (internal/variants) and the schedc row statements and lowered point
// statements (internal/variants/generated).
//
// Shared conventions: the row is the n consecutive cells in x whose first
// offset in the source component slice ph is o0, with sy and sz the
// source's y and z strides. vx, vy and vz hold the advection velocities at
// each cell's high faces. fy and fz hold each cell's low-face flux in y
// and z on entry and its high-face flux on return — the carried row and
// plane of the fused sweep; fxlo is the flux at the row's low x face and
// the result is the flux at its high x face — the carried scalar. Per cell
// the expressions and the x, y, z accumulation order are Reference's, so
// the bits are too. A row that is written must not overlap a row that is
// read, except where a form says it works in place.
//
// The Go loop of each function is its definition. On amd64 with AVX2 (and
// without the purego build tag) the first n&^3 cells of a row with
// positive strides run in row_amd64.s, four cells per instruction, and the
// loop finishes the rest; every other row and platform runs the loop
// alone. The assembly evaluates the loop's expression tree per lane with
// separately rounded multiplies and adds (no FMA, no reassociation), so
// which body ran cannot be told from the bits; TestRowKernelsAsmMatchesGo
// holds it to that. Before handing a row over, a function checks the lowest
// and highest source offsets the vector body reads — the same cells the
// loop would read — so an out-of-range row panics in Go as it always did,
// before anything is written.

// vecCells is how many leading cells of an n-cell row go to the vector
// body: whole vectors of four, and none without AVX2.
func vecCells(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 3
}

// stencilVecCells is vecCells for a row that reads ph around offsets o0,
// o0+1, ... with positive stride s: the row's cells read down to o0-below*s
// and, the last of them, up to above*s beyond itself. Zero unless s is
// positive; otherwise it panics as an out-of-range index does unless the
// two extreme offsets the vector body reads exist.
func stencilVecCells(ph []float64, o0, n, s, below, above int) int {
	n4 := vecCells(n)
	if n4 == 0 || s <= 0 {
		return 0
	}
	_, _ = ph[o0-below*s], ph[o0+n4-1+above*s]
	return n4
}

// fusedVecCells is stencilVecCells for the fused forms, which read the
// high faces in x, y and z: one stride below the row and two above, in the
// widest of the three directions.
func fusedVecCells(ph []float64, o0, n, sy, sz int) int {
	if sy <= 0 || sz <= 0 {
		return 0
	}
	return stencilVecCells(ph, o0, n, max(1, sy, sz), 1, 2)
}

// SeedRow recomputes a row of low-face fluxes in the direction whose source
// stride is sd: out[i] is the flux at the low face of the cell at offset
// o0+i, vel the velocities at those faces. A fused sweep calls it for the
// rows on a low face of its region, where no predecessor left a carried
// value (the "shift" of shift-and-fuse).
func SeedRow(out, vel, ph []float64, o0, sd int) {
	vel = vel[:len(out)]
	i := 0
	if n4 := stencilVecCells(ph, o0, len(out), sd, 2, 1); n4 > 0 {
		seedRowAVX2(&out[0], &vel[0], &ph[o0], n4, sd, C1, C2)
		i = n4
	}
	for ; i < len(out); i++ {
		out[i] = Flux2(vel[i], FaceAvg(ph, o0+i, sd))
	}
}

// FusedRow is the accumulate form: dst[i] += div, the exemplar's own
// update (Reference's phi1 accumulation).
func FusedRow(dst, ph []float64, o0, sy, sz int, vx, vy, vz, fy, fz []float64, fxlo float64) float64 {
	n := len(dst)
	vx, vy, vz, fy, fz = vx[:n], vy[:n], vz[:n], fy[:n], fz[:n]
	i := 0
	if n4 := fusedVecCells(ph, o0, n, sy, sz); n4 > 0 {
		fxlo = fusedRowAVX2(&dst[0], &ph[o0], n4, sy, sz, &vx[0], &vy[0], &vz[0], &fy[0], &fz[0], fxlo, C1, C2)
		i = n4
	}
	for ; i < n; i++ {
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
	i := 0
	if n4 := fusedVecCells(ph, o0, n, sy, sz); n4 > 0 {
		fxlo = eulerRowAVX2(&next[0], &ph[o0], n4, sy, sz, &vx[0], &vy[0], &vz[0], &fy[0], &fz[0], fxlo, ndt, C1, C2)
		i = n4
	}
	for ; i < n; i++ {
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
	i := 0
	if n4 := fusedVecCells(ph, o0, n, sy, sz); n4 > 0 {
		fxlo = eulerDeltaRowAVX2(&dst[0], &base[0], &ph[o0], n4, sy, sz, &vx[0], &vy[0], &vz[0], &fy[0], &fz[0], fxlo, ndt, C1, C2)
		i = n4
	}
	for ; i < n; i++ {
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

// FaceAvgRow is a row of the series schedule's first pass (EvalFlux1) and
// of the fused schedules' velocity pre-pass: out[i] is the face average at
// the low face, in the direction whose source stride is s, of the cell at
// offset o0+i.
func FaceAvgRow(out, ph []float64, o0, s int) {
	i := 0
	if n4 := stencilVecCells(ph, o0, len(out), s, 2, 1); n4 > 0 {
		faceAvgRowAVX2(&out[0], &ph[o0], n4, s, C1, C2)
		i = n4
	}
	for ; i < len(out); i++ {
		out[i] = FaceAvg(ph, o0+i, s)
	}
}

// Flux2Row is a row of the flux product (EvalFlux2), in place: out[i]
// holds the face average on entry and the flux vel[i]*out[i] on return.
// vel may be out itself (the velocity component scaling itself).
func Flux2Row(out, vel []float64) {
	vel = vel[:len(out)]
	i := 0
	if n4 := vecCells(len(out)); n4 > 0 {
		flux2RowAVX2(&out[0], &vel[0], n4)
		i = n4
	}
	for ; i < len(out); i++ {
		out[i] = Flux2(vel[i], out[i])
	}
}

// DiffAccRow is a row of the series schedule's accumulation: dst[i] +=
// hi[i] - lo[i], with hi and lo the fluxes at each cell's high and low
// face (two rows of one flux array, which may overlap each other).
func DiffAccRow(dst, hi, lo []float64) {
	n := len(dst)
	hi, lo = hi[:n], lo[:n]
	i := 0
	if n4 := vecCells(n); n4 > 0 {
		diffAccRowAVX2(&dst[0], &hi[0], &lo[0], n4)
		i = n4
	}
	for ; i < n; i++ {
		dst[i] += hi[i] - lo[i]
	}
}
