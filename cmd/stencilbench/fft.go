package main

import (
	"fmt"
	"slices"

	"stencilsched"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/report"
)

// fftTable measures the FFT spectral backends over their K ladder
// against the K4 temporal schedule, through the same compiled autotuner
// the API exposes. Each spectral row carries
// perfmodel.SpectralSolveWork's per-step prediction on the -machine.
// The note names the baseline — the fastest K4 temporal schedule whose
// tiles fit, the strongest stencil opponent the paper's axes produce —
// and the crossover K*: the smallest measured K at which one O(N log N)
// pass beats stepping it, beside perfmodel.SpectralCrossoverK's
// prediction for that baseline.
func fftTable(o options) (*report.Table, error) {
	results, err := tuneWhere(o, func(s stencilsched.Schedule) bool {
		return s.Spectral || (s.Generated && s.TemporalK == 4)
	})
	if err != nil {
		return nil, err
	}
	m, err := stencilsched.MachineByName(o.mach)
	if err != nil {
		return nil, err
	}
	t := tuneTable(o, "spectral vs K4 temporal", "model s/step")
	var baseline *stencilsched.TuneResult
	var spectralKs []int
	for i := range results {
		r := &results[i]
		if !r.Schedule.Spectral {
			if baseline == nil {
				baseline = r // results arrive sorted by per-step time
			}
			addTuneRow(t, r, "-")
			continue
		}
		addTuneRow(t, r, perfmodel.SpectralSolveWork(o.n, r.Schedule.Steps(), m, o.threads).StepSeconds)
		spectralKs = append(spectralKs, r.Schedule.Steps())
	}
	if baseline == nil {
		return nil, fmt.Errorf("fft sweep measured no K4 temporal baseline")
	}
	crossK := 0 // the smallest winning K; results are not sorted by K
	for _, r := range results {
		if k := r.Schedule.Steps(); r.Schedule.Spectral && r.StepSeconds < baseline.StepSeconds && (crossK == 0 || k < crossK) {
			crossK = k
		}
	}
	// The model compares against the baseline's own (tile, K) point, over
	// the measured spectral Ks in ascending order.
	slices.Sort(spectralKs)
	modelK := perfmodel.SpectralCrossoverK(o.n, m, o.threads,
		baseline.Schedule.TileEdge, baseline.Schedule.Steps(), spectralKs)
	crossover := "spectral never wins in the measured K range"
	if crossK > 0 {
		crossover = fmt.Sprintf("spectral wins from K=%d", crossK)
	}
	t.Note = fmt.Sprintf("baseline: %s (%.4g s/step); crossover: %s (model on %s: K=%d)",
		baseline.Schedule.Name, baseline.StepSeconds, crossover, m.Name, modelK)
	return t, nil
}
