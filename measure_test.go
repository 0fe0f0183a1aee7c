package stencilsched

import (
	"context"
	"strings"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/variants"
)

// TestMeasuredRepsStartFromCleanState is the regression test for the
// repetition-state bug: the kernel accumulates into Phi1, so a measured
// series that does not reset Phi1 between repetitions runs every
// repetition after the first on the previous repetition's output. The
// result of N timed repetitions must be bitwise identical to a single
// execution on fresh state.
func TestMeasuredRepsStartFromCleanState(t *testing.T) {
	v, err := VariantByName("Shift-Fuse: P>=Box")
	if err != nil {
		t.Fatal(err)
	}
	b := box.Cube(8)
	mk := func() []variants.State {
		states := variants.NewLevelState([]box.Box{b, b.ShiftVect(ivect.New(50, 0, 0))})
		for _, s := range states {
			kernel.InitSmooth(s.Phi0, 8)
		}
		return states
	}
	once := mk()
	variants.ExecLevel(v, once, 2)

	reps := mk()
	if _, timing, err := measureStates(context.Background(), v, reps, 2, 5); err != nil {
		t.Fatal(err)
	} else if timing.Reps != 5 {
		t.Fatalf("timed %d reps, want 5", timing.Reps)
	}
	for i := range reps {
		if d, at, c := reps[i].Phi1.MaxDiff(once[i].Phi1, b.ShiftVect(ivect.New(50*i, 0, 0))); d != 0 {
			t.Fatalf("box %d: phi1 after 5 reps differs from single run by %g at %v comp %d (state carried across repetitions)", i, d, at, c)
		}
	}
}

// TestRunMeasuredManyRepsMatchesOneRep drives the same property through
// the public entry point: throughput aside, the measured result must not
// depend on reps.
func TestRunMeasuredManyRepsMatchesOneRep(t *testing.T) {
	v, err := VariantByName("Baseline: P>=Box")
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{BoxN: 8, NumBoxes: 2, Threads: 2}
	r1, err := RunMeasured(v, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunMeasured(v, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Timing.Reps != 1 || r4.Timing.Reps != 4 {
		t.Fatalf("reps %d/%d", r1.Timing.Reps, r4.Timing.Reps)
	}
	if r1.Stats.FacesEvaluated != r4.Stats.FacesEvaluated {
		t.Fatalf("per-rep work changed with reps: %d vs %d faces", r1.Stats.FacesEvaluated, r4.Stats.FacesEvaluated)
	}
}

func TestAutotuneRejectsInfeasibleExplicitCandidate(t *testing.T) {
	ot32, err := ScheduleByName("Shift-Fuse OT-32: P<Box")
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{BoxN: 8, NumBoxes: 1, Threads: 1}
	_, err = Autotune(context.Background(), p, 1, []Schedule{ot32})
	if err == nil {
		t.Fatal("autotune accepted a 32-tile candidate on an 8^3 box")
	}
	if !strings.Contains(err.Error(), "tile edge 32 exceeds box size 8") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// The same tile on a big-enough box stays accepted.
	if _, err := Autotune(context.Background(), Problem{BoxN: 32, NumBoxes: 1, Threads: 2}, 1, []Schedule{ot32}); err != nil {
		t.Fatalf("feasible explicit candidate rejected: %v", err)
	}
}
