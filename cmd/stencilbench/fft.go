package main

import (
	"encoding/json"
	"fmt"
	"os"

	"stencilsched"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/report"
)

// fftPoint is one K point of the spectral crossover record: the
// measured sweep and per-Euler-step times of one FFT backend next to
// the perfmodel prediction for the same point on the reference machine.
type fftPoint struct {
	Schedule string `json:"schedule"`
	K        int    `json:"k"`
	// SweepSeconds is the minimum wall time of one K-step spectral
	// pass; StepSeconds is SweepSeconds/K, the cross-backend ranking
	// metric.
	SweepSeconds float64 `json:"sweep_seconds"`
	StepSeconds  float64 `json:"step_seconds"`
	MCellsPerSec float64 `json:"mcells_per_sec"`
	// ModelStepSeconds is perfmodel.SpectralSolveWork's per-step
	// prediction on the model machine.
	ModelStepSeconds float64 `json:"model_step_seconds"`
}

// fftRecord is the BENCH_fft_*.json schema: the measured spectral K
// sweep against the best K4 temporal schedule on the same box, with the
// measured and modeled crossover K* — the K beyond which one O(N log N)
// pass beats stepping the best temporally-blocked stencil.
type fftRecord struct {
	Mode     string     `json:"mode"`
	BoxN     int        `json:"box_n"`
	NumBoxes int        `json:"num_boxes"`
	Threads  int        `json:"threads"`
	Reps     int        `json:"reps"`
	Points   []fftPoint `json:"points"`
	// BestTemporal is the fastest measured K4 temporal schedule — the
	// strongest stencil opponent the paper's axes produce — and the
	// baseline the crossover is judged against.
	BestTemporal        string  `json:"best_temporal"`
	BestTemporalStepSec float64 `json:"best_temporal_step_sec"`
	// CrossoverK is the smallest measured K at which the spectral
	// backend's per-step time beats BestTemporal (0: never in range).
	CrossoverK int `json:"crossover_k"`
	// ModelCrossoverK is perfmodel.SpectralCrossoverK for the same box
	// on ModelMachine — the prediction next to the measurement.
	ModelMachine    string `json:"model_machine"`
	ModelCrossoverK int    `json:"model_crossover_k"`
}

// runFFT measures the FFT spectral backends over their K ladder against
// the best K4 temporal schedule, through the same compiled autotuner
// the API exposes, and emits the crossover BENCH record.
func runFFT(o options) error {
	results, err := tuneWhere(o, func(s stencilsched.Schedule) bool {
		return s.Spectral || (s.Generated && s.TemporalK == 4)
	})
	if err != nil {
		return err
	}
	m, err := stencilsched.MachineByName(o.mach)
	if err != nil {
		return err
	}
	rec := fftRecord{
		Mode: "fft", BoxN: o.n, NumBoxes: o.boxes,
		Threads: o.threads, Reps: o.reps, ModelMachine: m.Name,
	}
	t := &report.Table{
		Title: fmt.Sprintf("spectral vs best K4 temporal, %d boxes of %d^3, %d threads, %d reps",
			o.boxes, o.n, o.threads, o.reps),
		Header: []string{"schedule", "K", "sweep (s)", "s/step", "Mcells/s", "model s/step"},
	}
	for _, r := range results {
		if r.Schedule.Spectral {
			w := perfmodel.SpectralSolveWork(o.n, r.Schedule.Steps(), m, o.threads)
			rec.Points = append(rec.Points, fftPoint{
				Schedule:         r.Schedule.Name,
				K:                r.Schedule.Steps(),
				SweepSeconds:     r.Seconds,
				StepSeconds:      r.StepSeconds,
				MCellsPerSec:     r.MCellsPerSec,
				ModelStepSeconds: w.StepSeconds,
			})
			t.Add(r.Schedule.Name, r.Schedule.Steps(),
				fmt.Sprintf("%.4f", r.Seconds),
				fmt.Sprintf("%.4f", r.StepSeconds),
				fmt.Sprintf("%.1f", r.MCellsPerSec),
				fmt.Sprintf("%.4f", w.StepSeconds))
			continue
		}
		if rec.BestTemporal == "" || r.StepSeconds < rec.BestTemporalStepSec {
			rec.BestTemporal = r.Schedule.Name
			rec.BestTemporalStepSec = r.StepSeconds
		}
		t.Add(r.Schedule.Name, r.Schedule.Steps(),
			fmt.Sprintf("%.4f", r.Seconds),
			fmt.Sprintf("%.4f", r.StepSeconds),
			fmt.Sprintf("%.1f", r.MCellsPerSec), "-")
	}
	if rec.BestTemporal == "" {
		return fmt.Errorf("fft sweep measured no K4 temporal baseline")
	}
	// The crossover is the smallest winning K; results arrive sorted by
	// per-step time, not by K, so scan for the minimum explicitly.
	for _, pt := range rec.Points {
		if pt.StepSeconds < rec.BestTemporalStepSec && (rec.CrossoverK == 0 || pt.K < rec.CrossoverK) {
			rec.CrossoverK = pt.K
		}
	}
	rec.ModelCrossoverK = perfmodel.SpectralCrossoverK(o.n, m, o.threads,
		[]int{0, 16, 32}, []int{4}, []int{1, 2, 4, 8, 16})
	if err := t.Render(o.out); err != nil {
		return err
	}
	fmt.Fprintf(o.out, "baseline:  %s  (%.4f s/step)\n", rec.BestTemporal, rec.BestTemporalStepSec)
	if rec.CrossoverK > 0 {
		fmt.Fprintf(o.out, "crossover: spectral wins from K=%d (model on %s: K=%d)\n",
			rec.CrossoverK, m.Name, rec.ModelCrossoverK)
	} else {
		fmt.Fprintf(o.out, "crossover: spectral never wins in the measured K range (model on %s: K=%d)\n",
			m.Name, rec.ModelCrossoverK)
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
	}
	return nil
}
