package codegen

import (
	"fmt"

	"stencilsched/internal/kernel"
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
// internal/schedc lowers the description to flat-offset Go; the generated
// runners are differentially tested against composing kernel.Reference K
// times (internal/temporal.Reference), bit for bit.

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
