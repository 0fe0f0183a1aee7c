package solver

import (
	"math"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
	"stencilsched/internal/sched"
)

const (
	ux, uy, uz = 0.7, 0.5, 0.3
)

func smoothRho(domainN int) func(p ivect.IntVect) float64 {
	k := 2 * math.Pi / float64(domainN)
	return func(p ivect.IntVect) float64 {
		x, y, z := float64(p[0])+0.5, float64(p[1])+0.5, float64(p[2])+0.5
		return 1 + 0.2*math.Sin(k*x)*math.Sin(k*y)*math.Sin(k*z)
	}
}

func advectedRho(domainN int, t float64) func(p ivect.IntVect) float64 {
	base := smoothRho(domainN)
	return func(p ivect.IntVect) float64 {
		// Evaluate the initial profile at the pulled-back position; the
		// profile is periodic so no wrapping is needed analytically.
		k := 2 * math.Pi / float64(domainN)
		x := float64(p[0]) + 0.5 - ux*t
		y := float64(p[1]) + 0.5 - uy*t
		z := float64(p[2]) + 0.5 - uz*t
		_ = base
		return 1 + 0.2*math.Sin(k*x)*math.Sin(k*y)*math.Sin(k*z)
	}
}

func newAdvSolver(t *testing.T, domainN, boxN int, integ Integrator, variantName string, dt float64) *Solver {
	t.Helper()
	v, err := sched.ByName(variantName)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewAdvectionState(domainN, boxN, ux, uy, uz, smoothRho(domainN), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ld, Config{Variant: v, Integrator: integ, Dt: dt, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadConfig(t *testing.T) {
	ld, err := NewAdvectionState(16, 8, ux, uy, uz, smoothRho(16), 1)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sched.ByName("Baseline: P>=Box")
	if _, err := New(ld, Config{Variant: v, Dt: 0}); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := New(ld, Config{Variant: v, Dt: 0.1, Integrator: Integrator(9)}); err == nil {
		t.Error("bad integrator accepted")
	}
	if _, err := New(ld, Config{Variant: sched.Variant{TileSize: 5}, Dt: 0.1}); err == nil {
		t.Error("bad variant accepted")
	}
	shallow := layout.NewLevelData(ld.Layout, kernel.NComp, 1)
	if _, err := New(shallow, Config{Variant: v, Dt: 0.1}); err == nil {
		t.Error("insufficient ghosts accepted")
	}
	wrongComp := layout.NewLevelData(ld.Layout, 2, kernel.NGhost)
	if _, err := New(wrongComp, Config{Variant: v, Dt: 0.1}); err == nil {
		t.Error("wrong component count accepted")
	}
}

func TestConservationAllIntegrators(t *testing.T) {
	for _, integ := range []Integrator{Euler, RK2, RK4} {
		s := newAdvSolver(t, 16, 8, integ, "Baseline: P>=Box", 0.1)
		before := s.Totals()
		s.Advance(10)
		after := s.Totals()
		for c := range before {
			drift := math.Abs(after[c]-before[c]) / math.Max(1, math.Abs(before[c]))
			if drift > 1e-11 {
				t.Errorf("%v: component %d drifted by %.2e", integ, c, drift)
			}
		}
		if s.Steps() != 10 || math.Abs(s.Time()-1.0) > 1e-12 {
			t.Errorf("%v: steps/time = %d/%v", integ, s.Steps(), s.Time())
		}
	}
}

func TestAdvectionAccuracyRK4(t *testing.T) {
	s := newAdvSolver(t, 16, 8, RK4, "Shift-Fuse OT-4: P<Box", 0.125)
	s.Advance(16)
	linf, l1 := s.ErrorNorms(0, advectedRho(16, s.Time()))
	if linf > 0.02 || l1 > 0.01 {
		t.Fatalf("advection error too large: Linf=%g L1=%g", linf, l1)
	}
}

func TestSpatialConvergenceIsFourthOrder(t *testing.T) {
	// Refine the mesh 2x at fixed final time with dt ∝ dx and RK4 (so time
	// error, O(dt^4), refines at the same rate): the total error must drop
	// by ~2^4. This validates eq. 6 end to end — through the layout, the
	// exchange, and the scheduling variant.
	err := func(domainN int, dt float64, steps int) float64 {
		s := newAdvSolver(t, domainN, domainN/2, RK4, "Baseline: P>=Box", dt)
		s.Advance(steps)
		linf, _ := s.ErrorNorms(0, advectedRho(domainN, s.Time()))
		return linf
	}
	// Same final time 1.6; the wavenumber scales with the domain so the
	// solution shape is mesh-independent.
	coarse := err(8, 0.2, 8)
	fine := err(16, 0.1, 16)
	order := math.Log2(coarse / fine)
	if order < 3.3 {
		t.Fatalf("observed order %.2f (coarse %.3e, fine %.3e), want ~4", order, coarse, fine)
	}
}

func TestIntegratorOrderingAtFixedDt(t *testing.T) {
	// At a deliberately large dt, higher-order integrators track the exact
	// solution better.
	errFor := func(integ Integrator) float64 {
		s := newAdvSolver(t, 16, 8, integ, "Baseline: P>=Box", 0.5)
		s.Advance(8)
		linf, _ := s.ErrorNorms(0, advectedRho(16, s.Time()))
		return linf
	}
	e1, e2, e4 := errFor(Euler), errFor(RK2), errFor(RK4)
	if !(e1 > e2 && e2 > e4) {
		t.Fatalf("integrator errors not ordered: Euler %g, RK2 %g, RK4 %g", e1, e2, e4)
	}
}

func TestScheduleIndependenceThroughTimeIntegration(t *testing.T) {
	// Two different schedules integrate the same PDE: states must stay
	// bit-identical across a multi-step RK4 run with exchanges.
	a := newAdvSolver(t, 16, 8, RK4, "Baseline: P>=Box", 0.2)
	b := newAdvSolver(t, 16, 8, RK4, "Blocked WF-CLO-4: P<Box", 0.2)
	a.Advance(5)
	b.Advance(5)
	for i, f := range a.State().Fabs {
		if d, at, c := f.MaxDiff(b.State().Fabs[i], a.State().Layout.Boxes[i]); d != 0 {
			t.Fatalf("states diverged at box %d, %v comp %d by %g", i, at, c, d)
		}
	}
}

func TestIntegratorString(t *testing.T) {
	if Euler.String() != "Euler" || RK2.String() != "RK2" || RK4.String() != "RK4" {
		t.Error("integrator names wrong")
	}
}

// TestEulerStepIsStateMinusDtTimesReferenceDivergence pins the sign and
// size of the update coefficient: one Euler step on a two-box periodic
// level equals state + (-dt) * (reference divergence) bitwise, for a
// series and a fused schedule at both granularities.
func TestEulerStepIsStateMinusDtTimesReferenceDivergence(t *testing.T) {
	const dt = 0.125
	l, err := layout.Decompose(box.NewSized(ivect.Zero, ivect.New(16, 8, 8)), 8, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumBoxes() != 2 {
		t.Fatalf("layout has %d boxes, want 2", l.NumBoxes())
	}
	fill := func(p ivect.IntVect, c int) float64 {
		return 1 + 0.1*float64(c) + 0.2*math.Sin(0.4*float64(p[0])+0.3*float64(c))*math.Cos(0.7*float64(p[1])-0.5*float64(p[2]))
	}
	want := layout.NewLevelData(l, kernel.NComp, kernel.NGhost)
	want.FillFromFunction(2, fill)
	want.Exchange(2)
	for i, b := range l.Boxes {
		div := fab.New(b, kernel.NComp)
		kernel.Reference(want.Fabs[i], div, b)
		if div.MaxNorm(b) == 0 {
			t.Fatalf("box %d: reference divergence is zero, the step would prove nothing", i)
		}
		want.Fabs[i].Plus(div, b, -dt)
	}
	for _, name := range []string{"Baseline: P>=Box", "Baseline: P<Box", "Shift-Fuse: P>=Box", "Shift-Fuse: P<Box"} {
		v, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ld := layout.NewLevelData(l, kernel.NComp, kernel.NGhost)
		ld.FillFromFunction(2, fill)
		s, err := New(ld, Config{Variant: v, Integrator: Euler, Dt: dt, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.Step()
		for i, b := range l.Boxes {
			if d, at, c := ld.Fabs[i].MaxDiff(want.Fabs[i], b); d != 0 {
				t.Errorf("%s: box %d differs from state - dt*div at %v comp %d by %g", name, i, at, c, d)
			}
		}
	}
}
