// Package kernel implements the CFD exemplar of the paper's Section III: a
// finite-volume flux kernel representative of the stencil calculations
// performed on a box in CFD computations.
//
// The solution in the cells consists of cell-average quantities of density,
// velocity and energy, phi = [rho, u, v, w, e] (eq. 5). For each spatial
// direction d the kernel performs, per Figure 6:
//
//  1. EvalFlux1 — the fourth-order average of the solution on each face
//     (eq. 6):  <phi>_{i-1/2} = 7/12 (phi_{i-1} + phi_i)
//     - 1/12 (phi_{i-2} + phi_{i+1})
//  2. velocity — the face average of component d+1 is captured as the
//     advection velocity for direction d (eq. 7 uses phi_{d+1});
//  3. EvalFlux2 — flux = velocity * faceAverage (eq. 7);
//  4. accumulation — phi1[cell] += flux[hi face] - flux[lo face].
//
// Face index convention: face i in direction d lies between cells i-1 and
// i, so computing the face average at face i reads cells i-2 .. i+1 and the
// kernel needs NGhost = 2 ghost layers, consistent with the 2–5 ghost cells
// the paper cites for fourth-order schemes.
//
// Every scheduling variant in internal/variants computes these expressions
// in exactly the order written here, so results are bit-for-bit identical to
// Reference regardless of schedule (recomputation included — fluxes depend
// only on the read-only phi0).
package kernel

import (
	"fmt"
	"math"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
)

const (
	// NComp is the number of solution components: density, three velocity
	// components, and energy (eq. 5).
	NComp = 5
	// NGhost is the ghost-cell depth required by the fourth-order face
	// average.
	NGhost = 2
	// C1 and C2 are the fourth-order face-average coefficients of eq. 6.
	C1 = 7.0 / 12.0
	C2 = -1.0 / 12.0
	// EulerDt is the explicit Euler step used by every multi-step path
	// (dist supersteps, temporal blocking): phi' = phi - EulerDt*div. A
	// power of two, so the scaling is exact in floating point and
	// K-step compositions stay bitwise comparable across schedules.
	EulerDt = 1.0 / 64.0
)

// VelComp returns the component of phi holding the advection velocity for
// direction d: u, v or w (component d+1, eq. 7).
func VelComp(d int) int {
	if d < 0 || d >= ivect.SpaceDim {
		panic(fmt.Sprintf("kernel: direction %d out of range", d))
	}
	return d + 1
}

// FaceAvg computes the fourth-order face average (eq. 6) at the face whose
// high-side cell has flat offset off in a component slice phi, with s the
// stride in the face direction. All variants funnel through this expression
// so that results are bitwise reproducible across schedules.
func FaceAvg(phi []float64, off, s int) float64 {
	return C1*(phi[off-s]+phi[off]) + C2*(phi[off-2*s]+phi[off+s])
}

// Flux2 computes the flux from a face average and the face velocity
// (eq. 7).
func Flux2(vel, avg float64) float64 { return vel * avg }

// GrownBox returns the valid box grown by the ghost depth, the domain on
// which phi0 must be defined.
func GrownBox(valid box.Box) box.Box { return valid.Grow(NGhost) }

// NewState allocates the two solution FABs of the exemplar: phi0 over the
// ghosted box and phi1 over the valid box, both with NComp components.
func NewState(valid box.Box) (phi0, phi1 *fab.FAB) {
	return fab.New(GrownBox(valid), NComp), fab.New(valid, NComp)
}

// Reference executes the exemplar exactly as written in Figure 6 of the
// paper — a series of modular loops with the component loop outside — using
// straightforward (slow, obviously-correct) indexed accesses. phi0 must be
// defined on GrownBox(valid) and phi1 must cover valid. Results accumulate
// into phi1.
//
// Reference is the oracle against which every optimized scheduling variant
// is tested for bitwise equality.
func Reference(phi0, phi1 *fab.FAB, valid box.Box) {
	checkState(phi0, phi1, valid)
	for dir := 0; dir < ivect.SpaceDim; dir++ {
		faces := valid.SurroundingFaces(dir)
		flux := fab.New(faces, NComp)
		// First pass: fourth-order face averages for every component.
		for c := 0; c < NComp; c++ {
			faces.ForEach(func(p ivect.IntVect) {
				flux.Set(p, c, faceAvgAt(phi0, p, dir, c))
			})
		}
		// Capture the velocity before any face value is overwritten.
		velocity := fab.New(faces, 1)
		velocity.CopyFromShifted(flux, faces, ivect.Zero, VelComp(dir), 0, 1)
		// Second pass: flux and accumulation.
		for c := 0; c < NComp; c++ {
			faces.ForEach(func(p ivect.IntVect) {
				flux.Set(p, c, Flux2(velocity.Get(p, 0), flux.Get(p, c)))
			})
			valid.ForEach(func(p ivect.IntVect) {
				d := flux.Get(p.Shift(dir, 1), c) - flux.Get(p, c)
				phi1.Set(p, c, phi1.Get(p, c)+d)
			})
		}
	}
}

func faceAvgAt(phi0 *fab.FAB, face ivect.IntVect, dir, c int) float64 {
	lo := face.Shift(dir, -1) // cell on the low side of the face
	hi := face                // cell on the high side
	return C1*(phi0.Get(lo, c)+phi0.Get(hi, c)) +
		C2*(phi0.Get(lo.Shift(dir, -1), c)+phi0.Get(hi.Shift(dir, 1), c))
}

func checkState(phi0, phi1 *fab.FAB, valid box.Box) {
	if phi0.NComp() != NComp || phi1.NComp() != NComp {
		panic(fmt.Sprintf("kernel: state must have %d components (got %d, %d)",
			NComp, phi0.NComp(), phi1.NComp()))
	}
	if !phi0.Box().ContainsBox(GrownBox(valid)) {
		panic(fmt.Sprintf("kernel: phi0 box %v does not cover ghosted %v",
			phi0.Box(), GrownBox(valid)))
	}
	if !phi1.Box().ContainsBox(valid) {
		panic(fmt.Sprintf("kernel: phi1 box %v does not cover valid %v",
			phi1.Box(), valid))
	}
}

// CheckState validates the standard exemplar state shape; it is exported
// for the variants package, which performs the same precondition check
// before entering raw-offset loops.
func CheckState(phi0, phi1 *fab.FAB, valid box.Box) { checkState(phi0, phi1, valid) }

// CheckStateK validates the temporal-blocking state shape: a runner that
// advances k Euler steps in one sweep reads k*NGhost ghost layers, so
// phi0 must cover valid grown by that depth (phi1 still covers valid).
func CheckStateK(phi0, phi1 *fab.FAB, valid box.Box, k int) {
	if k < 1 {
		panic(fmt.Sprintf("kernel: temporal depth %d must be positive", k))
	}
	if phi0.NComp() != NComp || phi1.NComp() != NComp {
		panic(fmt.Sprintf("kernel: state must have %d components (got %d, %d)",
			NComp, phi0.NComp(), phi1.NComp()))
	}
	if !phi0.Box().ContainsBox(valid.Grow(k * NGhost)) {
		panic(fmt.Sprintf("kernel: phi0 box %v does not cover valid %v grown by %d*NGhost",
			phi0.Box(), valid, k))
	}
	if !phi1.Box().ContainsBox(valid) {
		panic(fmt.Sprintf("kernel: phi1 box %v does not cover valid %v",
			phi1.Box(), valid))
	}
}

// InitSmooth fills phi0 with a smooth periodic field over the domain of
// period (the physical domain size in cells). Density and energy carry
// offset sinusoids; the velocity components carry bounded smooth profiles.
// Deterministic and mesh-independent, it is the standard initial condition
// of the examples and benchmarks.
func InitSmooth(phi0 *fab.FAB, period int) {
	if period <= 0 {
		panic(fmt.Sprintf("kernel: period %d must be positive", period))
	}
	phi0.FillRows(phi0.Box(), SmoothRowFunc(period))
}

// InitSmoothFrozen fills phi0 like InitSmooth but with spatially
// constant advection velocities (the u/v/w midlines of the smooth
// profiles): the frozen-velocity regime in which the exemplar operator
// is linear and the spectral FFT fast path applies. Density and energy
// keep the standard sinusoids, so the advected fields are nontrivial.
func InitSmoothFrozen(phi0 *fab.FAB, period int) {
	if period <= 0 {
		panic(fmt.Sprintf("kernel: period %d must be positive", period))
	}
	smooth := SmoothRowFunc(period)
	phi0.FillRows(phi0.Box(), func(row []float64, lo ivect.IntVect, c int) {
		v, ok := frozenVelocity(c)
		if !ok {
			smooth(row, lo, c)
			return
		}
		for i := range row {
			row[i] = v
		}
	})
}

// FrozenSmoothAt is the pointwise form of InitSmoothFrozen: SmoothAt
// for density and energy, the constant profile midlines (0.5, 0.3, 0.4)
// for the velocities.
func FrozenSmoothAt(period int, p ivect.IntVect, c int) float64 {
	if v, ok := frozenVelocity(c); ok {
		return v
	}
	return SmoothAt(period, p, c)
}

// frozenVelocity returns the constant midline of velocity component c,
// and false for density and energy.
func frozenVelocity(c int) (float64, bool) {
	switch c {
	case 1:
		return 0.5, true
	case 2:
		return 0.3, true
	case 3:
		return 0.4, true
	}
	return 0, false
}

// SmoothAt is the pointwise form of InitSmooth: the value of component c
// at cell p of the standard smooth field with the given period, the
// definition SmoothRowFunc tabulates.
func SmoothAt(period int, p ivect.IntVect, c int) float64 {
	k := 2 * math.Pi / float64(period)
	x, y, z := float64(p[0])+0.5, float64(p[1])+0.5, float64(p[2])+0.5
	switch c {
	case 0:
		return 1.0 + 0.1*math.Sin(k*x)*math.Cos(k*y) // rho
	case 1:
		return 0.5 + 0.2*math.Sin(k*y) // u
	case 2:
		return 0.3 + 0.2*math.Cos(k*z) // v
	case 3:
		return 0.4 + 0.2*math.Sin(k*x+k*z) // w
	default:
		return 2.0 + 0.1*math.Cos(k*x)*math.Sin(k*y)*math.Sin(k*z) // e
	}
}

// smoothTab tabulates SmoothAt for one period: the sine and cosine of
// k*(i+0.5) for i in [0, period), and component 3's sine of k*x+k*z for
// every in-period (x, z) pair. Its lookups evaluate the same
// expressions, so they return the same values bit for bit; coordinates
// outside [0, period) still call math.
type smoothTab struct {
	period   int
	k        float64
	sin, cos []float64
	sinXZ    []float64
}

func newSmoothTab(period int) *smoothTab {
	t := &smoothTab{period: period, k: 2 * math.Pi / float64(period)}
	t.sin, t.cos = make([]float64, period), make([]float64, period)
	for i := range t.sin {
		t.sin[i], t.cos[i] = math.Sin(t.k*(float64(i)+0.5)), math.Cos(t.k*(float64(i)+0.5))
	}
	t.sinXZ = make([]float64, period*period)
	for i := range t.sinXZ {
		x, z := float64(i%period)+0.5, float64(i/period)+0.5
		t.sinXZ[i] = math.Sin(t.k*x + t.k*z)
	}
	return t
}

func (t *smoothTab) sinAt(i int) float64 {
	if uint(i) < uint(len(t.sin)) {
		return t.sin[i]
	}
	return math.Sin(t.k * (float64(i) + 0.5))
}

func (t *smoothTab) cosAt(i int) float64 {
	if uint(i) < uint(len(t.cos)) {
		return t.cos[i]
	}
	return math.Cos(t.k * (float64(i) + 0.5))
}

// SmoothRowFunc returns SmoothAt for one period as a row filler over
// tabulated sines and cosines: it fills an x-row with SmoothAt's values
// bit for bit, without the math calls per value, evaluating what is
// constant along x once per row and the same expression, in the same
// order, per value. The distributed runtime initializes per-rank boxes
// through it, so a multi-rank run starts from bit-identical data
// without any box ever being assembled in one place.
func SmoothRowFunc(period int) fab.RowFunc {
	t := newSmoothTab(period)
	return func(row []float64, lo ivect.IntVect, c int) {
		x0, y, z := lo[0], lo[1], lo[2]
		switch c {
		case 0:
			cy := t.cosAt(y)
			for i := range row {
				row[i] = 1.0 + 0.1*t.sinAt(x0+i)*cy
			}
		case 1:
			v := 0.5 + 0.2*t.sinAt(y)
			for i := range row {
				row[i] = v
			}
		case 2:
			v := 0.3 + 0.2*t.cosAt(z)
			for i := range row {
				row[i] = v
			}
		case 3:
			for i := range row {
				if x := x0 + i; uint(x) < uint(t.period) && uint(z) < uint(t.period) {
					row[i] = 0.4 + 0.2*t.sinXZ[z*t.period+x]
				} else {
					row[i] = SmoothAt(t.period, ivect.New(x, y, z), 3)
				}
			}
		default:
			sy, sz := t.sinAt(y), t.sinAt(z)
			for i := range row {
				row[i] = 2.0 + 0.1*t.cosAt(x0+i)*sy*sz
			}
		}
	}
}

// Work describes the arithmetic in one application of the exemplar to a
// box, used by the performance model and the benchmark reporting.
type Work struct {
	Cells      int64 // cell updates (N^3 per box)
	Faces      int64 // face evaluations summed over directions
	Flops      int64 // total floating-point operations
	FlopsEval1 int64 // flops in the fourth-order face averages
	FlopsEval2 int64 // flops in the flux products
	FlopsAccum int64 // flops in the accumulation
}

// Flop costs per point kernel application: eq. 6 is two interior adds, two
// multiplies and one add (5); eq. 7 is one multiply; the accumulation is one
// subtract and one add per cell.
const (
	FlopsPerFaceAvg = 5
	FlopsPerFlux2   = 1
	FlopsPerAccum   = 2
)

// WorkFor returns the exact arithmetic work for one exemplar application on
// the given valid box. The velocity capture is a copy, not arithmetic, and
// contributes no flops.
func WorkFor(valid box.Box) Work {
	var w Work
	sz := valid.Size()
	w.Cells = int64(valid.NumPts())
	for d := 0; d < ivect.SpaceDim; d++ {
		f := sz
		f[d]++
		w.Faces += int64(f.Prod())
	}
	w.FlopsEval1 = w.Faces * NComp * FlopsPerFaceAvg
	w.FlopsEval2 = w.Faces * NComp * FlopsPerFlux2
	w.FlopsAccum = w.Cells * NComp * FlopsPerAccum * ivect.SpaceDim
	w.Flops = w.FlopsEval1 + w.FlopsEval2 + w.FlopsAccum
	return w
}

// Term is one output of Axpy: Dst = X + A*d, with d Axpy's divergence.
type Term struct {
	Dst, X *fab.FAB
	A      float64
}

// Axpy writes every term, t.Dst = t.X + t.A*d, for all components on r
// clipped to every FAB involved, with the bits of applying the terms one
// after another over all of r. It goes over d one z-plane at a time,
// every term's rows (axpyRows) while the plane of d is in L1: the stage
// updates of the time integrators are made of it. t.X may be t.Dst,
// which updates it in place.
func Axpy(r box.Box, d *fab.FAB, terms ...Term) {
	nc := d.NComp()
	r = r.Intersect(d.Box())
	for _, t := range terms {
		if t.Dst.NComp() != nc || t.X.NComp() != nc {
			panic(fmt.Sprintf("kernel: axpy components %d and %d, divergence %d", t.Dst.NComp(), t.X.NComp(), nc))
		}
		r = r.Intersect(t.Dst.Box()).Intersect(t.X.Box())
	}
	if r.IsEmpty() {
		return
	}
	nx, ny := r.Hi[0]-r.Lo[0]+1, r.Hi[1]-r.Lo[1]+1
	dsy, _, _ := d.Strides()
	for c := 0; c < nc; c++ {
		for z := r.Lo[2]; z <= r.Hi[2]; z++ {
			p := ivect.New(r.Lo[0], r.Lo[1], z)
			dd := d.Data()[d.Index(p, c):]
			for _, t := range terms {
				sy, _, _ := t.Dst.Strides()
				xsy, _, _ := t.X.Strides()
				axpyRows(t.Dst.Data()[t.Dst.Index(p, c):], t.X.Data()[t.X.Index(p, c):], dd, nx, ny, sy, xsy, dsy, t.A)
			}
		}
	}
}

// axpyRows is rows rows of a stage update: dst[i] = x[i] + a*d[i] for
// the n cells of each row, with the rows of dst, x and d starting sdst,
// sx and sd values apart. It works in place (dst may be x, with the
// same stride). Each row is resliced to one length first, so the cell
// loop runs without bounds checks; with them an RK4 step of a level in
// 16^3 boxes took over 10 % longer.
func axpyRows(dst, x, d []float64, n, rows, sdst, sx, sd int, a float64) {
	for r := 0; r < rows; r++ {
		dr := dst[r*sdst:][:n]
		xr, dd := x[r*sx:][:len(dr)], d[r*sd:][:len(dr)]
		for i := range dr {
			dr[i] = xr[i] + a*dd[i]
		}
	}
}
