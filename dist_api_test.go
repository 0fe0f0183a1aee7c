package stencilsched

import (
	"context"
	"math"
	"testing"
)

func distTestProblem() DistProblem {
	return DistProblem{
		DomainN:  8,
		BoxN:     4,
		Periodic: [3]bool{true, true, true},
		Ranks:    4,
		HaloK:    2,
		Steps:    3,
		Threads:  2,
	}
}

func TestSolveDistributedMatchesSingleRank(t *testing.T) {
	v, err := VariantByName("Shift-Fuse-CLO: P>=Box")
	if err != nil {
		t.Fatal(err)
	}
	p := distTestProblem()
	multi, err := SolveDistributed(v, p)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Messages == 0 || multi.Bytes == 0 {
		t.Fatalf("multi-rank run reported no traffic: %+v", multi)
	}
	if multi.RecomputedCells == 0 {
		t.Fatalf("HaloK=2 run reported no recomputation: %+v", multi)
	}
	if multi.MCellsPerSec <= 0 || multi.MeasuredStepSec <= 0 {
		t.Fatalf("missing throughput accounting: %+v", multi)
	}
	if r := multi.OverlapRatio; r < 0 || r > 1 || math.IsNaN(r) {
		t.Fatalf("overlap ratio %v outside [0,1]", r)
	}

	// The distributed conformance suite proves bitwise equality of the
	// fields; at the public-API level, equality of the schedule-visible
	// accounting across HaloK is the cheap invariant: same owned cells,
	// same steps.
	single := p
	single.Ranks = 1
	sres, err := SolveDistributed(v, single)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Messages != 0 {
		t.Fatalf("single rank sent %d remote messages", sres.Messages)
	}
}

func TestSolveDistributedValidates(t *testing.T) {
	v := Variants()[0]
	for _, p := range []DistProblem{
		{DomainN: 2, BoxN: 2, Ranks: 1, Steps: 1, Threads: 1},
		{DomainN: 8, BoxN: 16, Ranks: 1, Steps: 1, Threads: 1},
		{DomainN: 8, BoxN: 4, Ranks: 0, Steps: 1, Threads: 1},
		{DomainN: 8, BoxN: 4, Ranks: 1, Steps: 0, Threads: 1},
		{DomainN: 8, BoxN: 4, Ranks: 1, Steps: 1, Threads: 0},
		{DomainN: 8, BoxN: 4, Ranks: 1, Steps: 1, Threads: 1, HaloK: -1},
		// 9 ranks for 8 boxes: the plan's surjectivity check.
		{DomainN: 8, BoxN: 4, Periodic: [3]bool{true, true, true}, Ranks: 9, Steps: 1, Threads: 1},
		// Halo 8*2 = 16 deeper than the periodic domain extent 8.
		{DomainN: 8, BoxN: 4, Periodic: [3]bool{true, true, true}, Ranks: 1, HaloK: 8, Steps: 1, Threads: 1},
	} {
		if _, err := SolveDistributed(v, p); err == nil {
			t.Errorf("problem %+v unexpectedly accepted", p)
		}
	}
}

func TestSolveDistributedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := distTestProblem()
	p.Steps = 50
	if _, err := SolveDistributedContext(ctx, Variants()[0], p); err == nil {
		t.Fatal("cancelled solve returned no error")
	}
}

func TestPredictDistributedStep(t *testing.T) {
	v := Variants()[0]
	m := Machines()[0]
	p := distTestProblem()
	p.HaloK = 1
	base, err := PredictDistributedStep(v, p, m, CrayGemini())
	if err != nil {
		t.Fatal(err)
	}
	if base.StepSec <= 0 || base.ComputeSec <= 0 || base.ExchangeSec <= 0 {
		t.Fatalf("degenerate prediction %+v", base)
	}
	if base.RecomputeFactor != 1 {
		t.Fatalf("HaloK=1 recompute factor %v, want 1", base.RecomputeFactor)
	}
	if base.Messages == 0 || base.RemoteBytes == 0 {
		t.Fatalf("prediction saw no exchange: %+v", base)
	}

	p.HaloK = 2
	deep, err := PredictDistributedStep(v, p, m, CrayGemini())
	if err != nil {
		t.Fatal(err)
	}
	if deep.RecomputeFactor <= 1 {
		t.Fatalf("HaloK=2 recompute factor %v, want > 1", deep.RecomputeFactor)
	}
	// Deep halos trade fewer per-step messages for more compute: the
	// exchange share must shrink per step even though each exchange is
	// bigger, and compute must grow.
	if deep.ComputeSec <= base.ComputeSec {
		t.Fatalf("deep compute %v not above base %v", deep.ComputeSec, base.ComputeSec)
	}
	if deep.RemoteBytes <= base.RemoteBytes {
		t.Fatalf("deep exchange volume %v not above base %v", deep.RemoteBytes, base.RemoteBytes)
	}
}

// BenchmarkDistMix runs the distributed solves of one small-box block
// per iteration: halos 1, 1, 2, 2, 2 and 4, each four Euler steps of
// 32^3 in 16^3 boxes on two loopback ranks at one thread. Run with
// -cpu 1 -benchmem for the rank runtime's time and allocation per mix.
func BenchmarkDistMix(b *testing.B) {
	v, err := ParseVariant("Baseline: P>=Box")
	if err != nil {
		b.Fatal(err)
	}
	p := DistProblem{DomainN: 32, BoxN: 16, Periodic: [3]bool{true, true, true}, Ranks: 2, Steps: 4, Threads: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{1, 1, 2, 2, 2, 4} {
			p.HaloK = k
			if _, err := SolveDistributed(v, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
