package codegen

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/poly"
)

// This file extends the What/When/Where descriptions with a time axis: K
// explicit Euler steps fused into one sweep (temporal blocking, the
// wavefront-in-time of the multicore-aware blocking literature). Sub-step j
// ranges over the valid box (or tile) grown by (K-1-j)*NGhost — the
// shrinking wavefront — and each sub-step is the shifted-and-fused sweep
// of Section IV-B, described with row statements:
//
//   - What — per sub-step three velocity face averages, then per component
//     one row statement: a statement whose macro is a whole x-row kernel
//     of internal/kernel (all three direction fluxes, the divergence and
//     the Euler write-back of one row of cells);
//   - When — the sub-steps and their statements in sequence at one static
//     level, each over its own (z, y, x) region (inside three tile-origin
//     loops for the tiled grid). The k axis is unrolled: sub-steps differ
//     in what they read and write, not only in their bounds, and K is a
//     constant of the family;
//   - Where — sub-step 0 reads phi0 in place, intermediate states
//     ping-pong between two tile-local buffers, the last sub-step writes
//     the K-step delta straight into phi1; the low-face fluxes are carried
//     in depth-one rings (a scalar in x, a row in y, a plane in z).
//
// The same description drives both consumers: internal/schedc lowers it to
// flat-offset Go, and BuildTemporal interprets it instance by instance —
// the interpreted run is the oracle the generated runner is differentially
// tested against, and both are bit-identical to composing kernel.Reference
// K times (see internal/temporal.Reference).

// Phi0 names the sweep's input state where a statement takes a source
// buffer: the reserved buffer name of phi0, which no BufferDesc declares.
const Phi0 = "phi0"

// RegionDomainDesc builds the parametric domain of a statement over the
// valid box grown on every side by grow and face-extended by ext on the
// high side. When tileEdge > 0 the domain gains three leading tile-origin
// variables (tz, ty, tx) and each axis is confined to its tile grown by
// the same amount: faces on shared tile surfaces belong to both
// neighbors (the overlapped-tile trade), and with grow > 0 every tile
// computes the full shrinking wavefront of its own cells, recomputing
// shared shell values (the same trade extended in time).
func RegionDomainDesc(tileEdge, grow int, ext [3]int) SetDesc {
	tvars := 0
	if tileEdge > 0 {
		tvars = 3
	}
	dim := NumBoxParams + tvars + 3
	d := SetDesc{Dim: dim}
	add := func(coef []int, c int) {
		d.Cons = append(d.Cons, AffineDesc{Coef: coef, Const: c})
	}
	for lvl := 0; lvl < 3; lvl++ {
		axis := 2 - lvl // loop order z, y, x
		li := NumBoxParams + tvars + lvl
		// v <= hi + grow + ext (the valid box, which also clips tiles)
		vh := make([]int, dim)
		vh[li], vh[2*axis+1] = -1, 1
		add(vh, grow+ext[axis])
		if tileEdge == 0 {
			// v >= lo - grow
			lo := make([]int, dim)
			lo[li], lo[2*axis] = 1, -1
			add(lo, grow)
			continue
		}
		E := tileEdge
		ti := NumBoxParams + lvl
		// v >= lo + E*t - grow
		tl := make([]int, dim)
		tl[li], tl[2*axis], tl[ti] = 1, -1, -E
		add(tl, grow)
		// v <= lo + E*t + E-1 + grow + ext (tile high edge)
		th := make([]int, dim)
		th[li], th[2*axis], th[ti] = -1, 1, E
		add(th, E-1+grow+ext[axis])
		// t >= 0 and lo + E*t <= hi: only tiles whose origin lies in the
		// valid box exist — otherwise the face extension would admit a
		// phantom boundary tile computing faces no cell consumes.
		t0 := make([]int, dim)
		t0[ti] = 1
		add(t0, 0)
		t1 := make([]int, dim)
		t1[ti], t1[2*axis], t1[2*axis+1] = -E, -1, 1
		add(t1, 0)
	}
	return d
}

// TemporalProg describes a K-step temporal-blocking sweep as one scheduled
// program of K fused sub-steps. Sub-step j covers the region grown by
// (K-1-j)*NGhost: three velocity pre-passes (the face average of the
// direction's velocity component of the sub-step's source state), then per
// component one row statement — "roweuler" into the next ping-pong state,
// or "rowdelta" for the last sub-step, which accumulates stepped state
// minus phi0 into phi1 over the valid box (the K-step delta contract of
// internal/temporal). tileEdge > 0 adds three tile-origin loops with every
// buffer tile-local.
func TemporalProg(k, tileEdge int) ProgramDesc {
	if k < 1 {
		panic(fmt.Sprintf("codegen: temporal depth %d must be positive", k))
	}
	ng := kernel.NGhost
	tvars := 0
	vars := LoopVarNames()
	if tileEdge > 0 {
		tvars = 3
		vars = append([]string{"tz", "ty", "tx"}, vars...)
	}
	reach := (k - 1) * ng // growth of the widest sub-step's region
	pd := ProgramDesc{
		Name:     fmt.Sprintf("temporal-k%d", k),
		Vars:     vars,
		TileEdge: tileEdge,
	}
	// Sub-step j < K-1 leaves its state in states[j%2], over the region
	// grown by reach - j*NGhost: stateA is sized for sub-step 0, stateB
	// for sub-step 1.
	states := [2]string{"stateA", "stateB"}
	for i, name := range states {
		if i < k-1 {
			pd.Buffers = append(pd.Buffers, BufferDesc{
				Name: name, Kind: "full", Dir: -1, Comps: kernel.NComp, Level: tvars, Grow: reach - i*ng})
		}
	}
	var velB, fluxB [3]string
	for d := 0; d < 3; d++ {
		velB[d] = "vel" + dirName[d]
		fluxB[d] = "flux" + dirName[d]
		pd.Buffers = append(pd.Buffers,
			BufferDesc{Name: velB[d], Kind: "full", Dir: d, Comps: 1, Level: tvars, Grow: reach},
			BufferDesc{Name: fluxB[d], Kind: "ring", Dir: d, Comps: 1, Depth: 1, Inner: CarriedAxes(d), Level: tvars, Grow: reach},
		)
	}
	seq := 0
	next := func() ScheduleDesc {
		pos := make([]int, len(vars)+1)
		pos[tvars] = seq
		seq++
		return ScatterDesc(len(vars), pos...)
	}
	for j := 0; j < k; j++ {
		grow := reach - j*ng
		src := Phi0
		if j > 0 {
			src = states[(j-1)%2]
		}
		for d := 0; d < 3; d++ {
			pd.Stmts = append(pd.Stmts, StmtDesc{
				Name: fmt.Sprintf("vel%s-k%d", dirName[d], j), Macro: "sflux1", Dir: d, Comp: kernel.VelComp(d),
				Bufs:   []string{src, velB[d]},
				Domain: RegionDomainDesc(tileEdge, grow, faceExt(d)), Sched: next(),
			})
		}
		cells := RegionDomainDesc(tileEdge, grow, [3]int{})
		for c := 0; c < kernel.NComp; c++ {
			st := StmtDesc{
				Name: fmt.Sprintf("step-k%d-c%d", j, c), Macro: "roweuler", Dir: -1, Comp: c,
				Bufs:   []string{src, velB[0], velB[1], velB[2], fluxB[0], fluxB[1], fluxB[2], states[j%2]},
				Domain: cells, Sched: next(),
			}
			if j == k-1 {
				st.Macro, st.Bufs = "rowdelta", st.Bufs[:7]
			}
			pd.Stmts = append(pd.Stmts, st)
		}
	}
	return pd
}

// CarriedAxes lists the axes a depth-one ring along direction d stores per
// slot in the (z, y, x) nest: exactly the axes iterated inside d's own
// loop level, innermost first — which yields the scalar (x), row (y) and
// plane (z) carried caches of the fused sweeps.
func CarriedAxes(d int) []int {
	var inner []int
	for a := 0; a < d; a++ {
		inner = append(inner, a)
	}
	return inner
}

// dirName is shared with families consuming these descriptions.
var dirName = [3]string{"X", "Y", "Z"}

// store is the interpreter's storage mapping of one buffer (or of phi0 /
// phi1): a flat array plus the Where that locates point p, component c in
// it.
type store struct {
	data []float64
	lo   ivect.IntVect
	// str is the stride per axis, zero for an axis the buffer does not
	// index by (the outer axes of a ring slot); sc the component stride.
	str [3]int
	sc  int
	// A ring of depth > 0 along dir adds (coordinate mod depth) slots.
	dir, depth, slot int
}

// fabStore views a FAB through the interpreter's storage mapping.
func fabStore(f *fab.FAB) *store {
	sy, sz, sc := f.Strides()
	return &store{data: f.Data(), lo: f.Box().Lo, str: [3]int{1, sy, sz}, sc: sc}
}

// newStore allocates a buffer description over base, the box its Level
// scopes it to (the valid box for the untiled programs interpreted here).
func newStore(bd BufferDesc, base box.Box) *store {
	b := base.Grow(bd.Grow)
	if bd.Dir >= 0 {
		b = b.SurroundingFaces(bd.Dir)
	}
	sz := b.Size()
	s := &store{lo: b.Lo}
	switch bd.Kind {
	case "full":
		s.str = [3]int{1, sz[0], sz[0] * sz[1]}
		s.sc = sz.Prod()
	case "ring":
		s.dir, s.depth, s.slot = bd.Dir, bd.Depth, 1
		for _, a := range bd.Inner {
			s.str[a] = s.slot
			s.slot *= sz[a]
		}
		s.sc = s.depth * s.slot
	default:
		panic(fmt.Sprintf("codegen: unknown buffer kind %q", bd.Kind))
	}
	s.data = make([]float64, s.sc*bd.Comps)
	return s
}

func (s *store) loc(p ivect.IntVect, c int) int {
	i := c * s.sc
	for a := 0; a < 3; a++ {
		i += s.str[a] * (p[a] - s.lo[a])
	}
	if s.depth > 0 {
		i += (p[s.dir] - s.lo[s.dir]) % s.depth * s.slot
	}
	return i
}

// temporalData carries the interpreter storage of a temporal sweep: phi0,
// phi1 and one store per described buffer.
type temporalData struct {
	phi0, phi1 *store
	bufs       map[string]*store
}

// BuildTemporal materializes the untiled K-step description as an
// interpretable program over concrete storage. Executing it accumulates
// the K-step delta into phi1 — the interpreted reference the generated
// temporal runners are differentially tested against.
func BuildTemporal(phi0, phi1 *fab.FAB, valid box.Box, k int) *Program {
	pd := TemporalProg(k, 0)
	e := &temporalData{phi0: fabStore(phi0), phi1: fabStore(phi1), bufs: map[string]*store{}}
	e.bufs[Phi0] = e.phi0
	for _, bd := range pd.Buffers {
		e.bufs[bd.Name] = newStore(bd, valid)
	}
	vals := BoxParamValues(valid)
	p := &Program{}
	for _, st := range pd.Stmts {
		dom := st.Domain.Bind(vals...).Set()
		p.Add(&Statement{
			Name:     st.Name,
			Domain:   dom,
			Schedule: st.Sched.Schedule(),
			Body:     e.body(st, dom),
		})
	}
	return p
}

// body resolves a temporal statement macro to its What over the
// interpreter storage. A row statement runs cell by cell, as rows of
// length one through the same internal/kernel row kernels the generated
// runners call with whole rows: the carried low-face fluxes come from the
// rings, and a cell whose predecessor along an axis lies outside the
// statement's domain seeds that flux by direct recomputation.
func (e *temporalData) body(st StmtDesc, dom *poly.Set) func([]int) {
	c := st.Comp
	src := e.bufs[st.Bufs[0]]
	if st.Macro == "sflux1" {
		d, out := st.Dir, e.bufs[st.Bufs[1]]
		return func(x []int) {
			p := pointOf(x)
			out.data[out.loc(p, 0)] = kernel.FaceAvg(src.data, src.loc(p, c), src.str[d])
		}
	}
	var vel, flux [3]*store
	for d := 0; d < 3; d++ {
		vel[d], flux[d] = e.bufs[st.Bufs[1+d]], e.bufs[st.Bufs[4+d]]
	}
	var step func(p ivect.IntVect, o int, vx, vy, vz, fy, fz []float64, fxlo float64) float64
	switch st.Macro {
	case "roweuler":
		dst := e.bufs[st.Bufs[7]]
		step = func(p ivect.IntVect, o int, vx, vy, vz, fy, fz []float64, fxlo float64) float64 {
			i := dst.loc(p, c)
			return kernel.EulerRow(dst.data[i:i+1], src.data, o, src.str[1], src.str[2], vx, vy, vz, fy, fz, fxlo, -kernel.EulerDt)
		}
	case "rowdelta":
		step = func(p ivect.IntVect, o int, vx, vy, vz, fy, fz []float64, fxlo float64) float64 {
			i, b := e.phi1.loc(p, c), e.phi0.loc(p, c)
			return kernel.EulerDeltaRow(e.phi1.data[i:i+1], e.phi0.data[b:b+1], src.data, o, src.str[1], src.str[2], vx, vy, vz, fy, fz, fxlo, -kernel.EulerDt)
		}
	default:
		panic(fmt.Sprintf("codegen: unknown temporal macro %q", st.Macro))
	}
	pred := make([]int, 3)
	return func(x []int) {
		p := pointOf(x)
		o := src.loc(p, c)
		var lowFace, hiVel [3][]float64
		for d := 0; d < 3; d++ {
			i := flux[d].loc(p, 0)
			lowFace[d] = flux[d].data[i : i+1]
			copy(pred, x)
			pred[2-d]-- // the (z, y, x) slot of axis d
			if !dom.Contains(pred) {
				kernel.SeedRow(lowFace[d], vel[d].data[vel[d].loc(p, 0):], src.data, o, src.str[d])
			}
			hiVel[d] = vel[d].data[vel[d].loc(p.Shift(d, 1), 0):]
		}
		fx := lowFace[0]
		fx[0] = step(p, o, hiVel[0], hiVel[1], hiVel[2], lowFace[1], lowFace[2], fx[0])
	}
}

// RunTemporalInterpreted executes the untiled K-step temporal schedule
// through the interpreter, accumulating the K-step delta into phi1 over
// valid. phi0 must cover valid grown by k*NGhost.
func RunTemporalInterpreted(phi0, phi1 *fab.FAB, valid box.Box, k int) error {
	kernel.CheckStateK(phi0, phi1, valid, k)
	_, err := BuildTemporal(phi0, phi1, valid, k).Execute()
	return err
}
