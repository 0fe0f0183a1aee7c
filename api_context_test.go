package stencilsched

import (
	"context"
	"errors"
	"testing"
)

func TestProblemValidateThreads(t *testing.T) {
	for _, threads := range []int{0, -3} {
		p := Problem{BoxN: 8, NumBoxes: 1, Threads: threads}
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted Threads=%d", threads)
		}
		v, err := VariantByName("Baseline-CLO: P>=Box")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunMeasured(v, p, 1); err == nil {
			t.Errorf("RunMeasured accepted Threads=%d", threads)
		}
		if _, err := Autotune(context.Background(), p, 1, nil); err == nil {
			t.Errorf("Autotune accepted Threads=%d", threads)
		}
	}
	if err := (Problem{BoxN: 8, NumBoxes: 1, Threads: 1}).Validate(); err != nil {
		t.Errorf("Validate rejected a good problem: %v", err)
	}
}

func TestRunMeasuredContextCanceled(t *testing.T) {
	v, err := VariantByName("Baseline-CLO: P>=Box")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunMeasuredContext(ctx, v, Problem{BoxN: 8, NumBoxes: 1, Threads: 1}, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestAutotuneContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Autotune(ctx, Problem{BoxN: 8, NumBoxes: 1, Threads: 1}, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunMeasuredContextBackground(t *testing.T) {
	v, err := VariantByName("Shift-Fuse-CLO: P>=Box")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMeasuredContext(context.Background(), v, Problem{BoxN: 8, NumBoxes: 2, Threads: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Reps != 2 || res.Seconds <= 0 {
		t.Fatalf("bad timing %+v", res.Timing)
	}
}
