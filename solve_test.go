package stencilsched

import (
	"context"
	"math"
	"testing"
)

func advProblem(threads int) AdvectionProblem {
	k := 2 * math.Pi / 16.0
	return AdvectionProblem{
		DomainN: 16, BoxN: 8,
		U: [3]float64{0.7, 0.5, 0.3},
		Rho: func(x, y, z float64) float64 {
			return 1 + 0.2*math.Sin(k*x)*math.Cos(k*y)*math.Sin(k*z)
		},
		Dt: 0.125, Integrator: RK4, Threads: threads,
	}
}

func TestAdvectionPublicAPI(t *testing.T) {
	v, err := VariantByName("Shift-Fuse: P>=Box")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdvection(advProblem(2), v)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBoxes() != 8 {
		t.Fatalf("NumBoxes = %d", a.NumBoxes())
	}
	before := a.Totals()
	a.Advance(8)
	after := a.Totals()
	for c := range before {
		if math.Abs(after[c]-before[c]) > 1e-9*math.Max(1, math.Abs(before[c])) {
			t.Fatalf("component %d not conserved: %v -> %v", c, before[c], after[c])
		}
	}
	linf, l1 := a.DensityError()
	if linf > 0.02 || l1 > linf {
		t.Fatalf("error norms Linf=%g L1=%g", linf, l1)
	}
	if a.Time() != 1.0 {
		t.Fatalf("time = %v", a.Time())
	}
}

func TestAdvectionScheduleIndependence(t *testing.T) {
	v1, _ := VariantByName("Baseline-CLI: P<Box")
	v2, _ := VariantByName("Basic-Sched OT-8: P>=Box")
	a, err := NewAdvection(advProblem(2), v1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAdvection(advProblem(1), v2)
	if err != nil {
		t.Fatal(err)
	}
	a.Advance(5)
	b.Advance(5)
	if d := a.MaxStateDiff(b); d != 0 {
		t.Fatalf("states diverged by %g", d)
	}
}

func TestAdvectionRejectsBadProblem(t *testing.T) {
	v, _ := VariantByName("Baseline: P>=Box")
	p := advProblem(1)
	p.Rho = nil
	if _, err := NewAdvection(p, v); err == nil {
		t.Error("nil Rho accepted")
	}
	p = advProblem(1)
	p.Dt = 0
	if _, err := NewAdvection(p, v); err == nil {
		t.Error("dt=0 accepted")
	}
	p = advProblem(1)
	p.DomainN = 0
	if _, err := NewAdvection(p, v); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestAutotuneRanksCandidates(t *testing.T) {
	base, _ := ScheduleByName("Baseline: P>=Box")
	fused, _ := ScheduleByName("Shift-Fuse: P>=Box")
	res, err := Autotune(context.Background(), Problem{BoxN: 8, NumBoxes: 2, Threads: 2}, 1,
		[]Schedule{base, fused})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].Seconds > res[1].Seconds {
		t.Fatal("results not sorted fastest first")
	}
	for _, r := range res {
		if r.MCellsPerSec <= 0 {
			t.Fatalf("bad throughput for %s", r.Schedule.Name)
		}
	}
}

func TestAutotuneDefaultCandidates(t *testing.T) {
	res, err := Autotune(context.Background(), Problem{BoxN: 8, NumBoxes: 1, Threads: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tiles of 16 and 32 do not fit an 8^3 box: only T=4 and T=8 tiled
	// variants plus the untiled ones remain.
	for _, r := range res {
		if v := r.Schedule.Variant; v.Tiled() && v.MaxTileEdge() > 8 {
			t.Fatalf("infeasible candidate %s measured", r.Schedule.Name)
		}
	}
	if len(res) < 16 {
		t.Fatalf("only %d candidates", len(res))
	}
}

func TestAutotuneRejectsBadProblem(t *testing.T) {
	if _, err := Autotune(context.Background(), Problem{BoxN: 1, NumBoxes: 1}, 1, nil); err == nil {
		t.Fatal("bad problem accepted")
	}
}
