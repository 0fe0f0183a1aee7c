package stencilsched

import (
	"context"
	"sync/atomic"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/variants"
)

// TestMeasuredRepetitionsLeaveOneApplication is the bitwise regression
// test for the per-repetition reset in measured runs: the runners
// accumulate into Phi1, so a reps>1 measurement that failed to zero
// Phi1 between repetitions would leave reps applications of the
// operator, not one. After measureStates with reps=3, Phi1 must be
// bit-identical to a single fresh execution.
func TestMeasuredRepetitionsLeaveOneApplication(t *testing.T) {
	v, err := VariantByName("Baseline: P>=Box")
	if err != nil {
		t.Fatal(err)
	}
	boxes := []box.Box{box.Cube(8), box.Cube(8)}
	measured := variants.NewLevelState(boxes)
	once := variants.NewLevelState(boxes)
	for _, states := range [][]variants.State{measured, once} {
		for _, s := range states {
			kernel.InitSmooth(s.Phi0, 8)
		}
	}
	if _, _, err := measureStates(context.Background(), v, measured, 2, 3); err != nil {
		t.Fatal(err)
	}
	variants.ExecLevel(v, once, 2)
	for i := range boxes {
		if d, at, c := measured[i].Phi1.MaxDiff(once[i].Phi1, boxes[i]); d != 0 {
			t.Errorf("box %d: 3-rep measurement differs from one application by %g at %v comp %d "+
				"(per-repetition Phi1 reset broken)", i, d, at, c)
		}
	}
}

// TestAutotuneCompiledResetsBetweenReps drives Autotune with an
// instrumented temporal candidate: every repetition, the untimed
// warm-up included, must see phi1 zeroed (the accumulate contract) and phi0 covering the
// K-step ghost halo. A missing per-repetition reset or an NGhost-deep
// state for a TemporalK=2 candidate fails here.
func TestAutotuneCompiledResetsBetweenReps(t *testing.T) {
	const reps = 3
	p := Problem{BoxN: 8, NumBoxes: 2, Threads: 2}
	var calls, dirty, shallow atomic.Int64
	probe := Schedule{
		Name:      "probe K2",
		TemporalK: 2,
		Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
			calls.Add(1)
			if !phi0.Box().ContainsBox(valid.Grow(2 * kernel.NGhost)) {
				shallow.Add(1)
			}
			zero := true
			valid.ForEach(func(pt ivect.IntVect) {
				for c := 0; c < kernel.NComp; c++ {
					if phi1.Get(pt, c) != 0 {
						zero = false
					}
				}
			})
			if !zero {
				dirty.Add(1)
			}
			// Accumulate something nonzero so a skipped reset is visible
			// to the next repetition.
			valid.ForEach(func(pt ivect.IntVect) { phi1.Set(pt, 0, phi1.Get(pt, 0)+1) })
			return nil
		},
	}
	res, err := Autotune(context.Background(), p, reps, []Schedule{probe})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Schedule.Name != "probe K2" {
		t.Fatalf("results %+v", res)
	}
	if got, want := calls.Load(), int64((reps+1)*p.NumBoxes); got != want {
		t.Errorf("probe ran %d times, want %d (one warm-up and %d timed calls per box)", got, want, reps)
	}
	if n := shallow.Load(); n != 0 {
		t.Errorf("%d runs saw phi0 without the 2*NGhost temporal halo", n)
	}
	if n := dirty.Load(); n != 0 {
		t.Errorf("%d runs saw phi1 not reset to zero (per-repetition reset broken)", n)
	}
}
