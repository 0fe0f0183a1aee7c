package stencilsched

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/conform"
	"stencilsched/internal/fab"
)

func TestVariantsCountAndNames(t *testing.T) {
	vs := Variants()
	if len(vs) != 32 {
		t.Fatalf("%d variants", len(vs))
	}
	for _, v := range vs {
		got, err := VariantByName(v.Name())
		if err != nil || got != v {
			t.Errorf("round trip %q failed: %v", v.Name(), err)
		}
	}
}

// TestSchedules pins the one schedule handle: Schedules is the
// conformance registry, in order; every name, legend aliases included,
// resolves through ScheduleByName and an unregistered name does not; and
// one Autotune call ranks a studied P<Box variant, a generated temporal
// schedule and a spectral backend together by per-step time.
func TestSchedules(t *testing.T) {
	want := conform.Registry()
	all := Schedules()
	if len(all) != len(want) {
		t.Fatalf("%d schedules, want the %d registry rows", len(all), len(want))
	}
	for i, s := range all {
		if s.Name != want[i].Name {
			t.Fatalf("schedule %d is %q, registry has %q there", i, s.Name, want[i].Name)
		}
		got, err := ScheduleByName(s.Name)
		if err != nil || got.Name != s.Name || got.TemporalK != s.TemporalK || got.TileEdge != s.TileEdge ||
			got.Variant != s.Variant || got.Generated != s.Generated || got.Spectral != s.Spectral {
			t.Errorf("round trip %q: got %+v, %v", s.Name, got, err)
		}
	}
	for alias, canonical := range map[string]string{
		"Baseline: P>=Box":            "Baseline-CLO: P>=Box",
		"Baseline: P≥Box":             "Baseline-CLO: P>=Box",
		"Shift-Fuse OT-32x8x8: P<Box": "Shift-Fuse OT-32x8x8: P<Box",
	} {
		if got, err := ScheduleByName(alias); err != nil || got.Name != canonical {
			t.Errorf("ScheduleByName(%q) = %q, %v; want %q", alias, got.Name, err, canonical)
		}
	}
	for _, bad := range []string{"nonesuch", "CodeGen series (interpreted)"} {
		if _, err := ScheduleByName(bad); err == nil {
			t.Errorf("ScheduleByName accepted %q", bad)
		}
	}

	var mixed []Schedule
	for _, name := range []string{"Shift-Fuse OT-4: P<Box", "Temporal K2 (generated)", "FFT (spectral) K4"} {
		s, err := ScheduleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mixed = append(mixed, s)
	}
	res, err := Autotune(context.Background(), Problem{BoxN: 8, NumBoxes: 2, Threads: 2}, 1, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(mixed) {
		t.Fatalf("%d results for %d candidates", len(res), len(mixed))
	}
	steps := map[string]int{}
	for i, r := range res {
		steps[r.Schedule.Name] = r.Schedule.Steps()
		if r.StepSeconds <= 0 || r.StepSeconds*float64(r.Schedule.Steps()) != r.Seconds {
			t.Errorf("%s: StepSeconds %g * steps %d != Seconds %g", r.Schedule.Name, r.StepSeconds, r.Schedule.Steps(), r.Seconds)
		}
		if i > 0 && r.StepSeconds < res[i-1].StepSeconds {
			t.Errorf("results not ranked by StepSeconds at %d: %+v", i, res)
		}
	}
	if steps["Shift-Fuse OT-4: P<Box"] != 1 || steps["Temporal K2 (generated)"] != 2 || steps["FFT (spectral) K4"] != 4 {
		t.Errorf("steps per sweep = %v", steps)
	}
}

// TestAutotuneCompiled tunes over the default candidate set of an 8^3
// box: every schedule whose tiles fit, so the generated OT-16/OT-32 rows
// are skipped like the studied 16- and 32-tile variants, and the rest
// come back ranked per Euler step.
func TestAutotuneCompiled(t *testing.T) {
	p := Problem{BoxN: 8, NumBoxes: 2, Threads: 2}
	res, err := Autotune(context.Background(), p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	studied, generated, spectral := 0, 0, 0
	for i, r := range res {
		if r.Seconds <= 0 || r.StepSeconds <= 0 || r.MCellsPerSec <= 0 {
			t.Errorf("%s: non-positive measurement %+v", r.Schedule.Name, r)
		}
		if got, want := r.StepSeconds*float64(r.Schedule.Steps()), r.Seconds; got != want {
			t.Errorf("%s: StepSeconds %g * steps %d != Seconds %g",
				r.Schedule.Name, r.StepSeconds, r.Schedule.Steps(), want)
		}
		if i > 0 && r.StepSeconds < res[i-1].StepSeconds {
			t.Errorf("results not sorted fastest-per-step first at %d", i)
		}
		if r.Schedule.TileEdge > p.BoxN {
			t.Errorf("%s measured on a box smaller than its %d tile", r.Schedule.Name, r.Schedule.TileEdge)
		}
		switch {
		case r.Schedule.Generated:
			generated++
		case r.Schedule.Spectral:
			spectral++
		default:
			studied++
		}
	}
	// 8 generated rows minus Basic-Sched OT-16 and Temporal K2 OT-32;
	// 32 studied variants minus the twelve with 16- or 32-cell tiles; all
	// five spectral backends.
	if studied != 20 || generated != 6 || spectral != 5 {
		t.Errorf("default set at BoxN=8 measured %d studied, %d generated, %d spectral; want 20, 6, 5",
			studied, generated, spectral)
	}
}

func TestMachines(t *testing.T) {
	if len(Machines()) != 4 {
		t.Fatalf("%d machines", len(Machines()))
	}
	m, err := MachineByName("Magny")
	if err != nil || m.Cores() != 24 {
		t.Fatalf("MachineByName: %v, cores %d", err, m.Cores())
	}
}

func TestVerifySingleVariant(t *testing.T) {
	v, err := VariantByName("Shift-Fuse OT-4: P<Box")
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(v, 8, 2); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyAllSmall(t *testing.T) {
	if err := VerifyAll(8, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunMeasuredProducesThroughput(t *testing.T) {
	v, _ := VariantByName("Baseline: P>=Box")
	res, err := RunMeasured(v, Problem{BoxN: 8, NumBoxes: 2, Threads: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.MCellsPerSec <= 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Stats.UniqueFaces == 0 {
		t.Fatal("stats not propagated")
	}
	if res.Problem.Cells() != 2*8*8*8 {
		t.Fatalf("cells = %d", res.Problem.Cells())
	}
}

func TestRunMeasuredRejectsBadInput(t *testing.T) {
	v, _ := VariantByName("Baseline: P>=Box")
	if _, err := RunMeasured(v, Problem{BoxN: 2, NumBoxes: 1, Threads: 1}, 1); err == nil {
		t.Error("tiny box accepted")
	}
	if _, err := RunMeasured(Variant{TileSize: 9}, Problem{BoxN: 8, NumBoxes: 1, Threads: 1}, 1); err == nil {
		t.Error("invalid variant accepted")
	}
}

func TestModelCurveMatchesPerfmodel(t *testing.T) {
	m, _ := MachineByName("Sandy")
	v, _ := VariantByName("Baseline: P>=Box")
	c := ModelCurve(m, v, 128, m.ThreadSweep())
	if len(c) != len(m.ThreadSweep()) {
		t.Fatalf("curve len %d", len(c))
	}
	if !(c[0] > c[len(c)-1]) {
		t.Fatalf("no speedup across sweep: %v", c)
	}
}

func TestFigure1Table(t *testing.T) {
	tab := Figure1()
	if len(tab.Rows) != 4 || len(tab.Header) != 5 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Header))
	}
	if tab.Rows[0][0] != "16" {
		t.Fatalf("first row %v", tab.Rows[0])
	}
	out := tab.String()
	if !strings.Contains(out, "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestScalingFigures(t *testing.T) {
	for name, f := range map[string]func() (*Table, error){
		"fig2": Figure2, "fig3": Figure3, "fig4": Figure4,
		"fig10": Figure10, "fig11": Figure11, "fig12": Figure12,
	} {
		tab, err := f()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(tab.Rows) == 0 || len(tab.Header) < 5 {
			t.Errorf("%s: empty table", name)
		}
	}
}

func TestFigure9TableShape(t *testing.T) {
	tab := Figure9()
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if len(tab.Header) != 9 {
		t.Fatalf("%d cols", len(tab.Header))
	}
}

func TestRooflineTableShape(t *testing.T) {
	tab := RooflineTable()
	if len(tab.Rows) != 12 { // 3 machines x 4 schedules
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// The baseline must be memory-bound and OT compute-bound on the AMD.
	if tab.Rows[0][4] != "memory-bound" {
		t.Errorf("AMD baseline regime = %q", tab.Rows[0][4])
	}
	if tab.Rows[3][4] != "compute-bound" {
		t.Errorf("AMD OT regime = %q", tab.Rows[3][4])
	}
}

func TestBigPictureTableThesis(t *testing.T) {
	tab, err := BigPictureTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
			t.Fatalf("cell %q: %v", s, err)
		}
		return v
	}
	// Exchange time strictly decreases with box size (Fig. 1 in seconds).
	for i := 1; i < 4; i++ {
		if parse(tab.Rows[i][1]) >= parse(tab.Rows[i-1][1]) {
			t.Fatalf("exchange time not decreasing at row %d", i)
		}
	}
	// The thesis: with the baseline schedule, the largest boxes are the
	// slowest total; with the best schedule they are the fastest.
	baseTotal16, baseTotal128 := parse(tab.Rows[0][3]), parse(tab.Rows[3][3])
	bestTotal16, bestTotal128 := parse(tab.Rows[0][6]), parse(tab.Rows[3][6])
	if !(baseTotal128 > baseTotal16) {
		t.Errorf("baseline: N=128 (%g) not slower than N=16 (%g)", baseTotal128, baseTotal16)
	}
	if !(bestTotal128 < bestTotal16) {
		t.Errorf("best schedule: N=128 (%g) not faster than N=16 (%g)", bestTotal128, bestTotal16)
	}
}

func TestTableITable(t *testing.T) {
	tab := TableI(128, 16, 24)
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][0], "Series") {
		t.Fatalf("first row %v", tab.Rows[0])
	}
}

// TestAutotuneWarmsUpEachCandidate counts the runs behind one Autotune:
// every candidate runs once untimed and then reps times, on every box.
func TestAutotuneWarmsUpEachCandidate(t *testing.T) {
	const reps = 3
	p := Problem{BoxN: 8, NumBoxes: 2, Threads: 2}
	names := []string{"Baseline: P>=Box", "Shift-Fuse: P<Box", "Temporal K2 (generated)"}
	counts := make([]atomic.Int64, len(names))
	var cands []Schedule
	for i, name := range names {
		s, err := ScheduleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := s.Run
		s.Run = func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
			counts[i].Add(1)
			return run(phi0, phi1, valid, threads)
		}
		cands = append(cands, s)
	}
	if _, err := Autotune(context.Background(), p, reps, cands); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if got, want := counts[i].Load(), int64((reps+1)*p.NumBoxes); got != want {
			t.Errorf("%s ran %d box sweeps, want %d: one warm-up and %d timed calls on %d boxes", name, got, want, reps, p.NumBoxes)
		}
	}
}
