package perfmodel

import (
	"math"

	"stencilsched/internal/machine"
)

// Spectral-solve cost model: the FFT fast path answers K Euler steps of
// the frozen-velocity exemplar in one O(N log N) pass — two 3D
// transforms plus one pointwise multiply per evolved component — so its
// per-step cost falls like 1/K while every stencil schedule's per-step
// cost is flat (series) or saturates (temporal blocking, once the tile
// working set spills). The crossover K where the spectral backend wins
// is the quantity this file models and `stencilbench -mode fft`
// measures.

// SpectralComps is the number of components a spectral solve actually
// transforms: density and energy evolve; the frozen velocities are
// untouched by construction.
const SpectralComps = 2

// spectralFlopsPerCycle is the effective scalar rate of the transform
// inner loops. Butterflies are dense multiply-add chains over
// sequential complex data — far friendlier to the pipeline than the
// exemplar's gather-heavy face averages (KernelFlopsPerCycle ~0.26-
// 0.75) — so the spectral model carries its own calibration.
const spectralFlopsPerCycle = 1.0

// SpectralWork is the modeled cost of one K-step spectral solve on an
// n^3 box, normalized per Euler step.
type SpectralWork struct {
	// FlopsPerStep is the per-Euler-step floating-point work: the whole
	// sweep's transforms and multiplies divided by K.
	FlopsPerStep float64
	// SweepFlops is the work of the whole solve, independent of K up to
	// the one-off symbol-power pass.
	SweepFlops float64
	// BytesPerStep is the per-step DRAM traffic under the streaming
	// assumption (each transform axis streams the complex grid once).
	BytesPerStep int64
	// SweepSeconds is the modeled wall time of the whole solve on the
	// given machine: max of the compute and traffic times, whichever
	// bound binds.
	SweepSeconds float64
	// StepSeconds is SweepSeconds / K — the number to compare against a
	// stencil schedule's per-step time.
	StepSeconds float64
}

// fftFlopsPerPoint is the classic 5 log2(n) real-operation count of a
// complex radix-2 FFT, per point per 1D transform. Bluestein extents
// cost a constant factor more (three power-of-two transforms of ~2n);
// the model folds that into the same expression by rounding the
// transform length up, which is exactly what the implementation does.
func fftFlopsPerPoint(n int) float64 {
	m := 1
	for m < n {
		m <<= 1
	}
	if m != n { // Bluestein: three length-2m transforms per line of n
		return 3 * 2 * 5 * math.Log2(float64(2*m)) * float64(2*m) / float64(n)
	}
	return 5 * math.Log2(float64(n))
}

// SpectralSolveWork models one K-step spectral solve of an n^3 periodic
// box on machine m with p threads: SpectralComps components, each
// forward+inverse 3D transformed (3 axes each way) with one pointwise
// symbol multiply, plus the symbol-power pass. Compute is bounded by
// the machine's peak across the p cores; traffic streams the complex
// grid once per axis pass.
func SpectralSolveWork(n, k int, m machine.Machine, p int) SpectralWork {
	if n <= 0 || k < 1 {
		panic("perfmodel: bad spectral work arguments")
	}
	n3 := float64(n) * float64(n) * float64(n)
	perAxis := fftFlopsPerPoint(n) * n3 // one axis pass over the grid
	transforms := float64(SpectralComps) * 2 * 3 * perAxis
	// Symbol power: log2(k) complex multiplies per mode, ~6 flops each;
	// pointwise apply: one complex multiply per mode per component.
	symbol := n3 * (6*math.Max(1, math.Log2(float64(k))) + float64(SpectralComps)*6)
	flops := transforms + symbol

	// Each axis pass streams the 16-byte complex grid in and out; the
	// component load/store and symbol grid add real-array passes.
	complexBytes := 16 * n3
	bytes := float64(SpectralComps)*2*3*2*complexBytes + (2*float64(SpectralComps)+1)*8*n3

	cores := p
	if cores < 1 {
		cores = 1
	}
	if cores > m.Cores() {
		cores = m.Cores()
	}
	computeRate := float64(cores) * m.GHz * 1e9 * spectralFlopsPerCycle
	flopsSec := flops / computeRate
	memSec := bytes / (bandwidthGBs(m, cores, false) * 1e9)
	sweep := math.Max(flopsSec, memSec)
	return SpectralWork{
		FlopsPerStep: flops / float64(k),
		SweepFlops:   flops,
		BytesPerStep: int64(bytes / float64(k)),
		SweepSeconds: sweep,
		StepSeconds:  sweep / float64(k),
	}
}

// SpectralCrossoverK returns the smallest K in ks at which the modeled
// spectral per-step time beats the modeled per-step time of the
// temporal schedule at (tile, temporalK) on the same box — the one a
// measurement compares against — or 0 if the spectral backend never
// wins in the range. This is the model-side prediction of the
// crossover `stencilbench -mode fft` measures.
func SpectralCrossoverK(n int, m machine.Machine, p, tile, temporalK int, ks []int) int {
	tr := TemporalTrafficBytes(n, tile, temporalK, m, p)
	stencilStep := float64(tr.BytesPerStep) / (bandwidthGBs(m, p, false) * 1e9)
	for _, k := range ks {
		if SpectralSolveWork(n, k, m, p).StepSeconds < stencilStep {
			return k
		}
	}
	return 0
}
