package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"stencilsched"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/report"
)

// temporalPoint is one (tile, K) point of the temporal sweep record:
// the measured sweep and per-Euler-step times of one compiled temporal
// schedule, next to the perfmodel traffic prediction for the same
// point on the reference machine.
type temporalPoint struct {
	Schedule string `json:"schedule"`
	K        int    `json:"k"`
	Tile     int    `json:"tile"` // 0: whole box
	// SweepSeconds is the minimum wall time of one K-step sweep;
	// StepSeconds is SweepSeconds/K, the cross-K ranking metric.
	SweepSeconds float64 `json:"sweep_seconds"`
	StepSeconds  float64 `json:"step_seconds"`
	MCellsPerSec float64 `json:"mcells_per_sec"`
	// ModelBytesPerCellStep is perfmodel.TemporalTrafficBytes for this
	// (tile, K) on the model machine, per cell per Euler step — the
	// locality currency of the trade, independent of this host's
	// compute speed.
	ModelBytesPerCellStep float64 `json:"model_bytes_per_cell_step"`
}

// temporalRecord is the BENCH_*.json schema of a temporal run: the
// whole measured (tile, K) grid plus two derived K=1 vs K>1 verdicts —
// one in wall time on this host, one in modeled DRAM traffic. On a
// memory-bound machine the two agree; on a compute-bound host (e.g. a
// one-core CI box, where recomputation is pure overhead) the wall-time
// winner can be K=1 while the traffic column still shows where deeper
// K pays.
type temporalRecord struct {
	Mode     string          `json:"mode"`
	BoxN     int             `json:"box_n"`
	NumBoxes int             `json:"num_boxes"`
	Threads  int             `json:"threads"`
	Reps     int             `json:"reps"`
	Points   []temporalPoint `json:"points"`
	// BestK1 is the fastest per-step K=1 schedule; Best the fastest
	// overall. DeepSpeedup is BestK1's step time over Best's (> 1 means
	// a K>1 schedule won the joint search).
	BestK1      string  `json:"best_k1"`
	Best        string  `json:"best"`
	BestK       int     `json:"best_k"`
	DeepSpeedup float64 `json:"deep_speedup"`
	// The same verdict in modeled per-cell-step DRAM bytes on
	// ModelMachine: TrafficDeepAdvantage is best-K1 bytes over best
	// bytes (> 1 means a K>1 point moves less data per step).
	ModelMachine         string  `json:"model_machine"`
	BestTraffic          string  `json:"best_traffic"`
	BestTrafficK         int     `json:"best_traffic_k"`
	TrafficDeepAdvantage float64 `json:"traffic_deep_advantage"`
}

// tuneWhere autotunes the subset keep selects of the default candidate
// set (every schedule whose tiles fit the -n box) on the problem the
// options describe.
func tuneWhere(o options, keep func(stencilsched.Schedule) bool) ([]stencilsched.TuneResult, error) {
	p := stencilsched.Problem{BoxN: o.n, NumBoxes: o.boxes, Threads: o.threads}
	all, err := stencilsched.TuneCandidates(p, nil)
	if err != nil {
		return nil, err
	}
	var cands []stencilsched.Schedule
	for _, s := range all {
		if keep(s) {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("-mode %s: no schedule to measure on a %d^3 box", o.mode, o.n)
	}
	return stencilsched.Autotune(context.Background(), p, o.reps, cands)
}

// runTemporal measures the compiled temporal schedule family — the
// (tile, K) grid the schedc compiler emits — through the same
// autotuner the API exposes, prints the per-step ranking, and emits
// the temporal BENCH record.
func runTemporal(o options) error {
	// The spectral backends carry a K too, but answer a different
	// (frozen-velocity) problem and have their own sweep, -mode fft.
	results, err := tuneWhere(o, func(s stencilsched.Schedule) bool {
		return s.Generated && s.TemporalK > 0
	})
	if err != nil {
		return err
	}
	m, err := stencilsched.MachineByName(o.mach)
	if err != nil {
		return err
	}
	cells := float64(o.n) * float64(o.n) * float64(o.n)
	rec := temporalRecord{
		Mode: "temporal", BoxN: o.n, NumBoxes: o.boxes,
		Threads: o.threads, Reps: o.reps, ModelMachine: m.Name,
	}
	t := &report.Table{
		Title: fmt.Sprintf("temporal (tile, K) sweep, %d boxes of %d^3, %d threads, %d reps",
			o.boxes, o.n, o.threads, o.reps),
		Header: []string{"schedule", "K", "sweep (s)", "s/step", "Mcells/s", "model B/cell/step"},
	}
	var bestK1, best *stencilsched.TuneResult
	var bestTraffic, bestTrafficK1 *temporalPoint
	for i := range results {
		r := &results[i]
		tile := r.Schedule.TileEdge // 0: whole box
		tr := perfmodel.TemporalTrafficBytes(o.n, tile, r.Schedule.Steps(), m, o.threads)
		rec.Points = append(rec.Points, temporalPoint{
			Schedule:              r.Schedule.Name,
			K:                     r.Schedule.Steps(),
			Tile:                  tile,
			SweepSeconds:          r.Seconds,
			StepSeconds:           r.StepSeconds,
			MCellsPerSec:          r.MCellsPerSec,
			ModelBytesPerCellStep: float64(tr.BytesPerStep) / cells,
		})
		pt := &rec.Points[len(rec.Points)-1]
		t.Add(r.Schedule.Name, r.Schedule.Steps(),
			fmt.Sprintf("%.4f", r.Seconds),
			fmt.Sprintf("%.4f", r.StepSeconds),
			fmt.Sprintf("%.1f", r.MCellsPerSec),
			fmt.Sprintf("%.0f", pt.ModelBytesPerCellStep))
		if best == nil {
			best = r
		}
		if r.Schedule.Steps() == 1 && bestK1 == nil {
			bestK1 = r // results arrive sorted by StepSeconds
		}
		if bestTraffic == nil || pt.ModelBytesPerCellStep < bestTraffic.ModelBytesPerCellStep {
			bestTraffic = pt
		}
		if pt.K == 1 && (bestTrafficK1 == nil || pt.ModelBytesPerCellStep < bestTrafficK1.ModelBytesPerCellStep) {
			bestTrafficK1 = pt
		}
	}
	if bestK1 == nil || best == nil {
		return fmt.Errorf("temporal sweep produced no K=1 baseline")
	}
	rec.BestK1 = bestK1.Schedule.Name
	rec.Best = best.Schedule.Name
	rec.BestK = best.Schedule.Steps()
	rec.DeepSpeedup = bestK1.StepSeconds / best.StepSeconds
	rec.BestTraffic = bestTraffic.Schedule
	rec.BestTrafficK = bestTraffic.K
	rec.TrafficDeepAdvantage = bestTrafficK1.ModelBytesPerCellStep / bestTraffic.ModelBytesPerCellStep
	if err := t.Render(o.out); err != nil {
		return err
	}
	fmt.Fprintf(o.out, "best:    %s  (%.4f s/step)\n", rec.Best, best.StepSeconds)
	fmt.Fprintf(o.out, "best K1: %s  (%.4f s/step)  deep speedup %.3fx\n",
		rec.BestK1, bestK1.StepSeconds, rec.DeepSpeedup)
	fmt.Fprintf(o.out, "traffic: %s moves least data on %s (%.0f B/cell/step, %.3fx under best K1)\n",
		rec.BestTraffic, m.Name, bestTraffic.ModelBytesPerCellStep, rec.TrafficDeepAdvantage)
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
	}
	return nil
}
