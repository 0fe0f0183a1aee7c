package main

import (
	"context"
	"fmt"

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

// compareTable measures interpreter vs generated vs hand-written for
// every compiled schedule family on one N^3 box: one row per family in
// ns/cell, with the generated code's speedup over the interpreter and
// its ratio to the hand-written variant (1.10 means 10% slower). All
// three implementations of a family execute the same schedule serially
// within the box, so the per-cell times isolate the execution
// mechanism: interpreter dispatch vs compiled nest vs hand-written Go.
// The named runners are measured by the one autotune loop (one box, one
// thread); they come from the conformance registry directly because
// ScheduleByName refuses the interpreted rows.
func compareTable(o options) (*report.Table, error) {
	var cands []stencilsched.Schedule
	for _, tr := range compareTriples() {
		for _, name := range []string{tr.generated, tr.interpreted, tr.handWritten} {
			if name == "" {
				continue
			}
			r, ok := conform.RunnerByName(name)
			if !ok {
				return nil, fmt.Errorf("runner %q not in the conformance registry", name)
			}
			cands = append(cands, r)
		}
	}
	p := stencilsched.Problem{BoxN: o.n, NumBoxes: 1, Threads: 1}
	// One repetition more than asked: the minimum is kept, so the first
	// one is the warm-up (arena growth, page faults).
	results, err := stencilsched.Autotune(context.Background(), p, o.reps+1, cands)
	if err != nil {
		return nil, err
	}
	nsPerCell := make(map[string]float64, len(results))
	for _, res := range results {
		nsPerCell[res.Schedule.Name] = res.Seconds * 1e9 / float64(p.Cells())
	}
	t := &report.Table{
		Title:  fmt.Sprintf("interpreter vs generated vs hand-written, N=%d, %d reps (ns/cell)", o.n, o.reps),
		Header: []string{"family", "interpreted", "generated", "hand-written", "speedup vs interp", "vs hand-written"},
	}
	for _, tr := range compareTriples() {
		gen := nsPerCell[tr.generated]
		interp, hand, speedup, ratio := any("-"), any("-"), any("-"), any("-")
		if tr.interpreted != "" {
			interp, speedup = nsPerCell[tr.interpreted], nsPerCell[tr.interpreted]/gen
		}
		if tr.handWritten != "" {
			hand, ratio = nsPerCell[tr.handWritten], gen/nsPerCell[tr.handWritten]
		}
		t.Add(tr.family, interp, gen, hand, speedup, ratio)
	}
	return t, nil
}
