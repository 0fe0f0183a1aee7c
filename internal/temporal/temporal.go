// Package temporal is the oracle of temporal blocking: K explicit Euler
// steps of the exemplar kernel taken on shrinking regions of one
// K*NGhost-deep ghosted box, composed from kernel.Reference. The
// executable K-step schedules are the schedc-generated Temporal K*
// runners (internal/variants/generated) and the spectral backends
// (internal/fft); each is checked bitwise, or to spectral tolerance,
// against Reference under the delta contract phi1 += state_K - phi0.
package temporal

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
)

// GhostDepth is the ghost-layer depth a K-step sweep reads: each Euler
// step consumes one stencil radius of the shell.
func GhostDepth(k int) int { return k * kernel.NGhost }

// AddDiff adds (a - b) to dst over r for every component: the K-step
// delta contract. The reference and the spectral backend funnel their
// final writeback through this exact expression, and the generated
// runners emit the same one, so results stay bitwise reproducible.
func AddDiff(dst, a, b *fab.FAB, r box.Box) {
	if dst.NComp() != a.NComp() || dst.NComp() != b.NComp() {
		panic(fmt.Sprintf("temporal: adddiff ncomp mismatch %d/%d/%d",
			dst.NComp(), a.NComp(), b.NComp()))
	}
	r = r.Intersect(dst.Box()).Intersect(a.Box()).Intersect(b.Box())
	if r.IsEmpty() {
		return
	}
	nx := r.Hi[0] - r.Lo[0] + 1
	dd, ad, bd := dst.Data(), a.Data(), b.Data()
	for c := 0; c < dst.NComp(); c++ {
		for z := r.Lo[2]; z <= r.Hi[2]; z++ {
			for y := r.Lo[1]; y <= r.Hi[1]; y++ {
				p := ivect.New(r.Lo[0], y, z)
				od, oa, ob := dst.Index(p, c), a.Index(p, c), b.Index(p, c)
				for x := 0; x < nx; x++ {
					dd[od+x] += ad[oa+x] - bd[ob+x]
				}
			}
		}
	}
}

// Reference composes kernel.Reference k times — the temporal oracle.
// State starts as a copy of phi0 over valid grown by k*NGhost; Euler
// step j updates the region grown by (k-1-j)*NGhost (the shrinking
// wavefront); the final delta accumulates into phi1 over valid. Every
// optimized temporal schedule is tested for bitwise equality against
// this composition.
func Reference(phi0, phi1 *fab.FAB, valid box.Box, k int, dt float64) {
	kernel.CheckStateK(phi0, phi1, valid, k)
	ng := kernel.NGhost
	state := fab.New(valid.Grow(GhostDepth(k)), kernel.NComp)
	state.CopyFrom(phi0, state.Box())
	acc := fab.New(valid.Grow((k-1)*ng), kernel.NComp)
	for j := 0; j < k; j++ {
		reg := valid.Grow((k - 1 - j) * ng)
		acc.Fill(0)
		kernel.Reference(state, acc, reg)
		state.Plus(acc, reg, -dt)
	}
	AddDiff(phi1, state, phi0, valid)
}
