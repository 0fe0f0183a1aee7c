// Package ghost provides the ghost-cell overhead analytics of the paper's
// Figure 1: the ratio of total (valid plus ghost) cells to physical cells
// as a function of box size, space dimension and ghost depth. A ratio of
// 2.0 means a box exchanges as much data as it owns; the desire to push the
// ratio down is the motivation for the large boxes whose on-node scheduling
// the paper studies.
package ghost

import (
	"errors"
	"fmt"
	"math"
)

// ErrHaloTooDeep reports a superstep factor whose halo depth k*nghost
// exceeds the box extent n. The deep-halo analytics model a
// nearest-neighbor exchange — each box's halo supplied by the boxes
// touching it — so beyond n the per-exchange byte and recompute figures
// describe a communication pattern that single exchange does not have,
// and callers must treat the configuration as invalid rather than
// trust the numbers. Test with errors.Is.
var ErrHaloTooDeep = errors.New("ghost: halo deeper than box extent")

// Ratio returns (1 + 2*nghost/n)^dim, the total-to-physical cell ratio of a
// D-dimensional hyper-cube box of n cells per side with nghost ghost
// layers (Fig. 1). It panics for non-positive n or dim or negative nghost.
func Ratio(n, dim, nghost int) float64 {
	if n <= 0 || dim <= 0 || nghost < 0 {
		panic(fmt.Sprintf("ghost: bad arguments n=%d dim=%d nghost=%d", n, dim, nghost))
	}
	return math.Pow(1+2*float64(nghost)/float64(n), float64(dim))
}

// GhostFraction returns the fraction of a ghosted box's cells that are
// ghosts: 1 - 1/Ratio.
func GhostFraction(n, dim, nghost int) float64 {
	return 1 - 1/Ratio(n, dim, nghost)
}

// MinBoxForRatio returns the smallest box size whose ratio is at or below
// the target, for the given dimension and ghost depth — e.g. five ghosts in
// 3-D need boxes of 64 to get under 2.0 (Section I).
func MinBoxForRatio(target float64, dim, nghost int) int {
	if target <= 1 {
		panic(fmt.Sprintf("ghost: unreachable target ratio %v", target))
	}
	// ratio <= target  <=>  n >= 2*nghost / (target^(1/dim) - 1)
	den := math.Pow(target, 1/float64(dim)) - 1
	n := int(math.Ceil(2 * float64(nghost) / den))
	if n < 1 {
		n = 1
	}
	// Guard against floating-point edge cases by nudging.
	for Ratio(n, dim, nghost) > target {
		n++
	}
	for n > 1 && Ratio(n-1, dim, nghost) <= target {
		n--
	}
	return n
}

// DeepHalo summarizes the deep-halo trade at superstep factor K: ghost
// layers K*nghost deep are exchanged once per K steps, and the K-1
// intermediate steps recompute shrinking shells of ghost data instead of
// communicating (the distributed analogue of the overlapped-tile
// schedules). All per-step figures are relative to the K=1 baseline of
// the same box.
type DeepHalo struct {
	// K is the steps per exchange; Depth the resulting halo depth in
	// layers (K*nghost).
	K, Depth int
	// Ratio is the ghosted-to-valid cell ratio at Depth (Fig. 1 with
	// nghost scaled by K): the memory price of the deep halo.
	Ratio float64
	// MessagesPerStep is the exchange-count factor, exactly 1/K.
	MessagesPerStep float64
	// BytesPerStep is the exchanged-volume factor: deep halos send more
	// per exchange but exchange K times less often; > 1/K because halo
	// volume grows superlinearly with depth.
	BytesPerStep float64
	// RecomputePerStep is the kernel cell-update factor (>= 1): sub-step
	// j of a superstep computes the box grown by (K-1-j)*nghost layers.
	RecomputePerStep float64
}

// DeepHaloStats returns the deep-halo trade for an n^dim box with nghost
// base ghost layers at superstep factor k. It returns a typed
// ErrHaloTooDeep when k*nghost exceeds the box extent n (the boundary
// k == n/nghost is the deepest valid superstep), and plain errors for
// out-of-range arguments.
func DeepHaloStats(n, dim, nghost, k int) (DeepHalo, error) {
	if k < 1 {
		return DeepHalo{}, fmt.Errorf("ghost: superstep factor k=%d must be >= 1", k)
	}
	if n <= 0 || dim <= 0 || nghost < 0 {
		return DeepHalo{}, fmt.Errorf("ghost: bad arguments n=%d dim=%d nghost=%d", n, dim, nghost)
	}
	if k*nghost > n {
		return DeepHalo{}, fmt.Errorf("%w: depth %d (k=%d x %d ghost layers) exceeds box extent %d",
			ErrHaloTooDeep, k*nghost, k, nghost, n)
	}
	vol := func(edge float64) float64 { return math.Pow(edge, float64(dim)) }
	halo := func(depth int) float64 { return vol(float64(n+2*depth)) - vol(float64(n)) }
	var cells float64
	for j := 0; j < k; j++ {
		cells += vol(float64(n + 2*(k-1-j)*nghost))
	}
	dh := DeepHalo{
		K:                k,
		Depth:            k * nghost,
		Ratio:            Ratio(n, dim, k*nghost),
		MessagesPerStep:  1 / float64(k),
		RecomputePerStep: cells / (float64(k) * vol(float64(n))),
	}
	if nghost == 0 {
		dh.BytesPerStep = 0
	} else {
		dh.BytesPerStep = halo(k*nghost) / (float64(k) * halo(nghost))
	}
	return dh, nil
}

// Series is one curve of Figure 1.
type Series struct {
	Dim    int
	NGhost int
	N      []int
	Ratio  []float64
}

// Fig1Series returns the four curves of Figure 1 (3-D and 4-D, two and five
// ghosts) over the box sizes the paper plots.
func Fig1Series() []Series {
	sizes := []int{16, 32, 64, 128}
	var out []Series
	for _, cfg := range []struct{ dim, g int }{
		{3, 2}, {3, 5}, {4, 2}, {4, 5},
	} {
		s := Series{Dim: cfg.dim, NGhost: cfg.g, N: sizes}
		for _, n := range sizes {
			s.Ratio = append(s.Ratio, Ratio(n, cfg.dim, cfg.g))
		}
		out = append(out, s)
	}
	return out
}
