package main

import (
	"context"
	"fmt"

	"stencilsched"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/report"
)

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

// tuneTable starts the table of a K sweep (-mode temporal and fft): one
// row per measured schedule, written by addTuneRow, whose last column is
// the model's figure for that schedule, headed model.
func tuneTable(o options, what, model string) *report.Table {
	return &report.Table{
		Title: fmt.Sprintf("%s, %d boxes of %d^3, %d threads, %d reps",
			what, o.boxes, o.n, o.threads, o.reps),
		Header: []string{"schedule", "K", "sweep (s)", "s/step", "Mcells/s", model},
	}
}

// addTuneRow adds one measured schedule: the minimum wall time of one
// K-step sweep, that time per Euler step (the cross-K ranking metric),
// the throughput, and model ("-" where the model has no figure).
func addTuneRow(t *report.Table, r *stencilsched.TuneResult, model any) {
	t.Add(r.Schedule.Name, r.Schedule.Steps(), r.Seconds, r.StepSeconds, r.MCellsPerSec, model)
}

// temporalTable measures the compiled temporal schedule family — the
// (tile, K) points the schedc compiler emits — through the same autotuner
// the API exposes. Each row carries perfmodel's DRAM traffic for its
// (tile, K) on the -machine, per cell per Euler step: the locality
// currency of the trade, independent of this host's compute speed. The
// note holds two K=1 vs K>1 verdicts, one in wall time on this host and
// one in modeled traffic. On a memory-bound machine they agree; on a
// compute-bound host (a one-core CI box, where recomputation is pure
// overhead) the wall-time winner can be K=1 while the traffic verdict
// still shows where deeper K pays.
func temporalTable(o options) (*report.Table, error) {
	// The spectral backends carry a K too, but answer a different
	// (frozen-velocity) problem and have their own sweep, -mode fft.
	results, err := tuneWhere(o, func(s stencilsched.Schedule) bool {
		return s.Generated && s.TemporalK > 0
	})
	if err != nil {
		return nil, err
	}
	m, err := stencilsched.MachineByName(o.mach)
	if err != nil {
		return nil, err
	}
	cells := float64(o.n) * float64(o.n) * float64(o.n)
	t := tuneTable(o, "temporal (tile, K) sweep", "model B/cell/step")
	// Results arrive sorted by per-step time: the first is the best, the
	// first K=1 one the best K1.
	var bestK1, leastTraffic *stencilsched.TuneResult
	var leastBytes, leastK1Bytes float64
	for i := range results {
		r := &results[i]
		k := r.Schedule.Steps()
		tr := perfmodel.TemporalTrafficBytes(o.n, r.Schedule.TileEdge, k, m, o.threads)
		bytes := float64(tr.BytesPerStep) / cells
		addTuneRow(t, r, bytes)
		if k == 1 && bestK1 == nil {
			bestK1 = r
		}
		if leastTraffic == nil || bytes < leastBytes {
			leastTraffic, leastBytes = r, bytes
		}
		if k == 1 && (leastK1Bytes == 0 || bytes < leastK1Bytes) {
			leastK1Bytes = bytes
		}
	}
	if bestK1 == nil {
		return nil, fmt.Errorf("temporal sweep produced no K=1 baseline")
	}
	best := &results[0]
	t.Note = fmt.Sprintf("best: %s (%.4g s/step); best K1: %s (%.4g s/step), deep speedup %.3fx; "+
		"traffic: %s moves least data on %s (%.0f B/cell/step, %.3fx under best K1)",
		best.Schedule.Name, best.StepSeconds,
		bestK1.Schedule.Name, bestK1.StepSeconds, bestK1.StepSeconds/best.StepSeconds,
		leastTraffic.Schedule.Name, m.Name, leastBytes, leastK1Bytes/leastBytes)
	return t, nil
}
