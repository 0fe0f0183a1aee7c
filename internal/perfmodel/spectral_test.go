package perfmodel

import (
	"testing"

	"stencilsched/internal/machine"
)

func TestSpectralWorkShape(t *testing.T) {
	m := machine.All()[0]
	// Per-step cost must fall like 1/K: the sweep cost is K-independent
	// up to the cheap symbol-power pass.
	w1 := SpectralSolveWork(64, 1, m, 8)
	w16 := SpectralSolveWork(64, 16, m, 8)
	if w16.StepSeconds >= w1.StepSeconds {
		t.Errorf("K=16 per-step %.3g not below K=1 per-step %.3g", w16.StepSeconds, w1.StepSeconds)
	}
	if w16.StepSeconds > w1.StepSeconds/8 {
		t.Errorf("K=16 per-step %.3g should be ~16x below K=1's %.3g", w16.StepSeconds, w1.StepSeconds)
	}
	// Sweep cost grows with the box.
	if big := SpectralSolveWork(96, 4, m, 8); big.SweepSeconds <= SpectralSolveWork(64, 4, m, 8).SweepSeconds {
		t.Errorf("96^3 sweep not more expensive than 64^3")
	}
	// Bluestein extents cost more per point than the next power of two
	// costs in total is not guaranteed, but they must exceed their own
	// power-of-two floor per point.
	if fftFlopsPerPoint(96) <= fftFlopsPerPoint(64) {
		t.Errorf("Bluestein n=96 modeled cheaper per point than radix-2 n=64")
	}
}

func TestSpectralCrossoverExists(t *testing.T) {
	m := machine.All()[0]
	ks := []int{1, 2, 4, 8, 16}
	k := SpectralCrossoverK(64, m, 8, 0, 4, ks)
	if k == 0 {
		t.Fatalf("no modeled crossover K in %v on 64^3 — the spectral fast path should win at deep K", ks)
	}
	// The crossover must be genuine: one step of FFT work costs more
	// than one stencil step, so K=1 should not win.
	if k == 1 {
		t.Errorf("modeled crossover at K=1: spectral sweep should not beat a single stencil step")
	}
}
