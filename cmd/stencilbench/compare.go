package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"stencilsched"
	"stencilsched/internal/conform"
	"stencilsched/internal/report"
)

// compareTriple names the schedc-compiled runner for one schedule family
// and its counterparts: the codegen interpreter executing the same
// schedule (the two CodeGen+ schedules only) and the hand-written
// variant of the same family (where one exists among the 32 studied).
type compareTriple struct {
	family      string
	generated   string
	interpreted string // "" when the family has no interpreter
	handWritten string // "" when no studied variant matches the schedule
}

// compareTriples lists the compiled families in emission order.
func compareTriples() []compareTriple {
	return []compareTriple{
		{
			family:      "series",
			generated:   "CodeGen series (generated)",
			interpreted: "CodeGen series (interpreted)",
			handWritten: "Baseline-CLO: P>=Box",
		},
		{
			family:      "row-fused",
			generated:   "CodeGen row-fused (generated)",
			interpreted: "CodeGen row-fused (interpreted)",
		},
		{
			family:      "shift-fuse",
			generated:   "Shift-Fuse (generated)",
			handWritten: "Shift-Fuse-CLO: P>=Box",
		},
		{
			family:      "ot-16",
			generated:   "Basic-Sched OT-16 (generated)",
			handWritten: "Basic-Sched OT-16: P>=Box",
		},
	}
}

// compareFamily is one row of the compare record: per-cell times for the
// three implementations of one schedule family, plus the two derived
// ratios the acceptance bar is stated in.
type compareFamily struct {
	Family               string  `json:"family"`
	Generated            string  `json:"generated"`
	Interpreted          string  `json:"interpreted,omitempty"`
	HandWritten          string  `json:"hand_written,omitempty"`
	GeneratedNsPerCell   float64 `json:"generated_ns_per_cell"`
	InterpretedNsPerCell float64 `json:"interpreted_ns_per_cell,omitempty"`
	HandWrittenNsPerCell float64 `json:"hand_written_ns_per_cell,omitempty"`
	// SpeedupVsInterpreter is interpreted/generated per-cell time.
	SpeedupVsInterpreter float64 `json:"speedup_vs_interpreter,omitempty"`
	// RatioVsHandWritten is generated/hand-written per-cell time (1.10
	// means the generated code is 10% slower).
	RatioVsHandWritten float64 `json:"ratio_vs_hand_written,omitempty"`
}

// compareRecord is the BENCH_*.json schema of a compare run.
type compareRecord struct {
	Mode     string          `json:"mode"`
	BoxN     int             `json:"box_n"`
	Threads  int             `json:"threads"`
	Reps     int             `json:"reps"`
	Families []compareFamily `json:"families"`
}

// runCompare benchmarks interpreter vs generated vs hand-written for
// every compiled schedule family on one N^3 box and emits the compare
// BENCH record. All three implementations of a family execute the same
// schedule serially within the box, so the per-cell times isolate the
// execution mechanism: interpreter dispatch vs compiled nest vs
// hand-written Go. The named runners are measured by the one autotune
// loop (one box, one thread); they come from the conformance registry
// directly because ScheduleByName refuses the interpreted rows.
func runCompare(o options) error {
	var cands []stencilsched.Schedule
	for _, tr := range compareTriples() {
		for _, name := range []string{tr.generated, tr.interpreted, tr.handWritten} {
			if name == "" {
				continue
			}
			r, ok := conform.RunnerByName(name)
			if !ok {
				return fmt.Errorf("runner %q not in the conformance registry", name)
			}
			cands = append(cands, r)
		}
	}
	p := stencilsched.Problem{BoxN: o.n, NumBoxes: 1, Threads: 1}
	// One repetition more than asked: the minimum is kept, so the first
	// one is the warm-up (arena growth, page faults).
	results, err := stencilsched.Autotune(context.Background(), p, o.reps+1, cands)
	if err != nil {
		return err
	}
	nsPerCell := make(map[string]float64, len(results))
	for _, res := range results {
		nsPerCell[res.Schedule.Name] = res.Seconds * 1e9 / float64(p.Cells())
	}
	rec := compareRecord{Mode: "compare", BoxN: o.n, Threads: 1, Reps: o.reps}
	t := &report.Table{
		Title:  fmt.Sprintf("interpreter vs generated vs hand-written, N=%d, %d reps (ns/cell)", o.n, o.reps),
		Header: []string{"family", "interpreted", "generated", "hand-written", "speedup vs interp", "vs hand-written"},
	}
	for _, tr := range compareTriples() {
		cf := compareFamily{
			Family:             tr.family,
			Generated:          tr.generated,
			Interpreted:        tr.interpreted,
			HandWritten:        tr.handWritten,
			GeneratedNsPerCell: nsPerCell[tr.generated],
		}
		interpCol, handCol, speedCol, ratioCol := "-", "-", "-", "-"
		if tr.interpreted != "" {
			cf.InterpretedNsPerCell = nsPerCell[tr.interpreted]
			cf.SpeedupVsInterpreter = cf.InterpretedNsPerCell / cf.GeneratedNsPerCell
			interpCol = fmt.Sprintf("%.2f", cf.InterpretedNsPerCell)
			speedCol = fmt.Sprintf("%.1fx", cf.SpeedupVsInterpreter)
		}
		if tr.handWritten != "" {
			cf.HandWrittenNsPerCell = nsPerCell[tr.handWritten]
			cf.RatioVsHandWritten = cf.GeneratedNsPerCell / cf.HandWrittenNsPerCell
			handCol = fmt.Sprintf("%.2f", cf.HandWrittenNsPerCell)
			ratioCol = fmt.Sprintf("%.3f", cf.RatioVsHandWritten)
		}
		rec.Families = append(rec.Families, cf)
		t.Add(cf.Family, interpCol, fmt.Sprintf("%.2f", cf.GeneratedNsPerCell), handCol, speedCol, ratioCol)
	}
	if err := t.Render(o.out); err != nil {
		return err
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
