package main

import (
	"context"
	"fmt"

	"stencilsched"
	"stencilsched/internal/report"
)

// comparePair names the schedc-compiled runner for one schedule family
// and the hand-written variant of the same family (where one exists
// among the 32 studied).
type comparePair struct {
	family      string
	generated   string
	handWritten string // "" when no studied variant matches the schedule
}

// comparePairs lists the compiled families in emission order.
func comparePairs() []comparePair {
	return []comparePair{
		{family: "series", generated: "CodeGen series (generated)", handWritten: "Baseline-CLO: P>=Box"},
		{family: "row-fused", generated: "CodeGen row-fused (generated)"},
		{family: "shift-fuse", generated: "Shift-Fuse (generated)", handWritten: "Shift-Fuse-CLO: P>=Box"},
		{family: "ot-16", generated: "Basic-Sched OT-16 (generated)", handWritten: "Basic-Sched OT-16: P>=Box"},
	}
}

// compareTable measures generated against hand-written for every
// compiled schedule family on one N^3 box: one row per family in
// ns/cell, with the generated code's ratio to the hand-written variant
// (1.10 means 10% slower). Both implementations of a family execute the
// same schedule serially within the box, so the per-cell times isolate
// the execution mechanism: compiled nest vs hand-written Go. The named
// schedules are measured by the one autotune loop (one box, one
// thread); a schedule whose tile does not fit the box is not measured
// and prints "-".
func compareTable(o options) (*report.Table, error) {
	p := stencilsched.Problem{BoxN: o.n, NumBoxes: 1, Threads: 1}
	var cands []stencilsched.Schedule
	for _, pr := range comparePairs() {
		for _, name := range []string{pr.generated, pr.handWritten} {
			if name == "" {
				continue
			}
			s, err := stencilsched.ScheduleByName(name)
			if err != nil {
				return nil, err
			}
			if s.TileEdge <= o.n {
				cands = append(cands, s)
			}
		}
	}
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
	cell := func(name string) any {
		if ns, ok := nsPerCell[name]; ok {
			return ns
		}
		return "-"
	}
	t := &report.Table{
		Title:  fmt.Sprintf("generated vs hand-written, N=%d, %d reps (ns/cell)", o.n, o.reps),
		Header: []string{"family", "generated", "hand-written", "vs hand-written"},
	}
	for _, pr := range comparePairs() {
		ratio := any("-")
		gen, okGen := nsPerCell[pr.generated]
		hand, okHand := nsPerCell[pr.handWritten]
		if okGen && okHand {
			ratio = gen / hand
		}
		t.Add(pr.family, cell(pr.generated), cell(pr.handWritten), ratio)
	}
	return t, nil
}
