package perfmodel

import (
	"math"

	"stencilsched/internal/kernel"
	"stencilsched/internal/machine"
)

// Temporal-blocking traffic model: one sweep of a generated Temporal K*
// runner (codegen.TemporalProg) advances K Euler steps per tile, reading
// each tile's K-deep ghosted state once and writing the K-stepped interior
// once. When the per-tile working set fits the cache share, the sub-step
// temporaries and the K-1 intermediate states never touch DRAM, so the
// per-step traffic is roughly the single-step compulsory traffic divided
// by K (plus the deeper halo re-reads). When the working set spills, every
// sub-step streams like a separate sweep and the temporal win evaporates —
// the (tile, K) trade the autotuner searches.

// TemporalTraffic is the modeled DRAM movement of temporal blocking at
// one (tile, K) point, normalized per Euler step.
type TemporalTraffic struct {
	// BytesPerStep is the per-Euler-step DRAM traffic of one box
	// (sweep traffic / K).
	BytesPerStep int64
	// SweepBytes is the traffic of the whole K-step sweep.
	SweepBytes int64
	// Fits reports whether one tile's K-step working set fit the cache
	// share.
	Fits bool
	// RecomputeFactor is the cell-update multiplier of the shrinking
	// sub-step regions relative to K plain steps (1 at K=1, growing
	// with K and shrinking with tile size).
	RecomputeFactor float64
}

// TemporalWorkingSetBytes returns the per-tile arena footprint of a
// K-step temporal sweep with tile edge t (t <= 0 or t > n means the
// whole n^3 box is one tile), following codegen.TemporalProg's Where: the
// ping-pong states that hold the output of sub-steps 0 and 1 (sub-step 0
// reads phi0 in place and the last one writes phi1, so K=1 has none and
// K=2 one), the three velocity face fields of the widest sub-step, and
// the carried y row and z plane of its fused sweep.
func TemporalWorkingSetBytes(n, tile, k int) int64 {
	ng := int64(kernel.NGhost)
	c := int64(kernel.NComp)
	// e is the edge of the widest sub-step's region: the tile grown by
	// the K-1 later sub-steps' reach.
	e := int64(tileEdge(n, tile)) + 2*int64(k-1)*ng
	var floats int64
	for i := int64(0); i < 2 && i < int64(k-1); i++ {
		s := e - 2*i*ng
		floats += c * s * s * s
	}
	floats += 3*(e+1)*e*e + e + e*e
	return floats * 8
}

// tileEdge clamps the configured tile edge to the box.
func tileEdge(n, tile int) int {
	if tile <= 0 || tile > n {
		return n
	}
	return tile
}

// temporalRecompute returns the cell-update multiplier of the shrinking
// wavefront: sub-step j of a K-step sweep computes each tile grown by
// (K-1-j)*NGhost layers, versus K updates of the bare tile.
func temporalRecompute(n, tile, k int) float64 {
	t := float64(tileEdge(n, tile))
	ng := float64(kernel.NGhost)
	var cells float64
	for j := 0; j < k; j++ {
		e := t + 2*float64(k-1-j)*ng
		cells += e * e * e
	}
	return cells / (float64(k) * t * t * t)
}

// TemporalTrafficBytes models the DRAM traffic of temporal blocking on
// an n^3 box at tile edge `tile` and depth K on machine m with p
// threads active — the (tile, K) counterpart of TrafficBytes. The K=1
// whole-box point reduces to the compulsory single-step traffic, so the
// model is comparable across K.
func TemporalTrafficBytes(n, tile, k int, m machine.Machine, p int) TemporalTraffic {
	if n <= 0 || k < 1 {
		panic("perfmodel: bad temporal traffic arguments")
	}
	t := tileEdge(n, tile)
	c := float64(kernel.NComp)
	ng := float64(kernel.NGhost)
	n3 := float64(n) * float64(n) * float64(n)
	share := cacheShareBytes(m, p)
	ws := TemporalWorkingSetBytes(n, tile, k)
	fits := ws <= share

	// Compulsory sweep traffic: each tile streams its K-deep ghosted
	// state in once (halo factor over the dimensions the tiling cuts,
	// partly L3-shared like the overlapped tiles) and the K-stepped
	// interior back out (read-modify-write of phi1).
	halo := 1.0
	if t < n {
		tf := float64(t)
		f := (tf + 2*float64(k)*ng) / tf
		halo = f * f * f
	} else {
		nf := float64(n)
		gf := nf + 2*float64(k)*ng
		halo = gf * gf * gf / (nf * nf * nf)
	}
	haloEff := 1 + (halo-1)*(1-HaloL3SharingFactor)
	sweep := c*n3*8*haloEff + 2*c*n3*8

	// Spilled tiles stream their sub-step states like K separate sweeps
	// over the recompute-inflated regions; blend between
	// the regimes as the working set outgrows the share (same machinery
	// as TrafficBytes).
	rf := temporalRecompute(n, tile, k)
	spilled := float64(k) * float64(compulsoryBytes(n)) * rf * StencilReReadFactor
	b := sweep
	ratio := float64(ws) / float64(share)
	if ratio > 1 {
		decades := math.Log2(ratio)
		frac := decades / SpillBlendDecades
		if frac > 1 {
			frac = 1
		}
		b = sweep + (spilled-sweep)*frac
		b *= 1 + TLBPressurePerDecade*decades
	}
	return TemporalTraffic{
		BytesPerStep:    int64(b / float64(k)),
		SweepBytes:      int64(b),
		Fits:            fits,
		RecomputeFactor: rf,
	}
}
