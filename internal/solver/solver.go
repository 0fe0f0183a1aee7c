// Package solver advances time-dependent PDE solutions on a level of
// boxes using the exemplar's finite-volume flux divergence as the spatial
// operator — the "any time-dependent PDE simulation code has the same
// basic structure" loop of Section II: exchange ghosts, evaluate fluxes on
// every box with a chosen inter-loop schedule, accumulate, advance.
//
// The operator is dU/dt = -div F(U) on the unit mesh, with F from
// internal/kernel (eq. 7: F_d = <phi_{d+1}> <phi>). With constant velocity components the
// system is linear advection, which the tests use to verify fourth-order
// spatial convergence of the eq. 6 face averages end to end — through the
// layout, the exchange, and whichever scheduling variant runs the flux
// kernel.
package solver

import (
	"fmt"
	"math"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
	"stencilsched/internal/sched"
	"stencilsched/internal/variants"
)

// Integrator selects the time discretization.
type Integrator int

const (
	// Euler is first-order forward Euler.
	Euler Integrator = iota
	// RK2 is the midpoint method (second order).
	RK2
	// RK4 is the classical fourth-order Runge-Kutta method, matching the
	// spatial order of the eq. 6 face averages.
	RK4
)

// String names the integrator.
func (i Integrator) String() string {
	switch i {
	case Euler:
		return "Euler"
	case RK2:
		return "RK2"
	case RK4:
		return "RK4"
	default:
		return fmt.Sprintf("Integrator(%d)", int(i))
	}
}

// Config configures a Solver.
type Config struct {
	// Variant is the inter-loop schedule used for the flux kernel on every
	// box. The choice never changes results (bitwise), only performance.
	Variant sched.Variant
	// Integrator selects the time discretization (default Euler).
	Integrator Integrator
	// Dt is the time step; must be positive.
	Dt float64
	// Threads is the total thread count for exchanges and box loops.
	Threads int
}

// Solver advances a LevelData state in time.
type Solver struct {
	cfg   Config
	state *layout.LevelData
	// Stage scratch: divergence accumulators per box per stage, and a
	// temporary state for multi-stage integrators.
	stages [][]*fab.FAB // [stage][box]
	tmp    *layout.LevelData
	level  []variants.State // operator's per-box arguments, refilled per call
	steps  int
	time   float64
}

// New builds a solver over the given state. The state's component count
// must match the exemplar's (kernel.NComp) and its ghost depth must cover
// the stencil.
func New(state *layout.LevelData, cfg Config) (*Solver, error) {
	if state.NComp != kernel.NComp {
		return nil, fmt.Errorf("solver: state has %d components, kernel needs %d", state.NComp, kernel.NComp)
	}
	if state.NGhost < kernel.NGhost {
		return nil, fmt.Errorf("solver: ghost depth %d < required %d", state.NGhost, kernel.NGhost)
	}
	if err := cfg.Variant.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("solver: dt %v must be positive", cfg.Dt)
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	s := &Solver{cfg: cfg, state: state, level: make([]variants.State, state.Layout.NumBoxes())}
	nStages := map[Integrator]int{Euler: 1, RK2: 2, RK4: 4}[cfg.Integrator]
	if nStages == 0 {
		return nil, fmt.Errorf("solver: unknown integrator %v", cfg.Integrator)
	}
	for k := 0; k < nStages; k++ {
		fs := make([]*fab.FAB, state.Layout.NumBoxes())
		for i, b := range state.Layout.Boxes {
			fs[i] = fab.New(b, kernel.NComp)
		}
		s.stages = append(s.stages, fs)
	}
	if nStages > 1 {
		s.tmp = layout.NewLevelData(state.Layout, kernel.NComp, state.NGhost)
	}
	return s, nil
}

// State returns the solution being advanced.
func (s *Solver) State() *layout.LevelData { return s.state }

// Time returns the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// Steps returns the number of completed steps.
func (s *Solver) Steps() int { return s.steps }

// operator computes the raw divergence k = div F(U) for every box of src
// into dst, exchanging ghosts first. The update's minus sign rides on the
// coefficient Step applies k with, which costs no pass over k and is
// exact.
func (s *Solver) operator(dst []*fab.FAB, src *layout.LevelData) {
	src.Exchange(s.cfg.Threads)
	for i, b := range src.Layout.Boxes {
		dst[i].Fill(0)
		s.level[i] = variants.State{Valid: b, Phi0: src.Fabs[i], Phi1: dst[i]}
	}
	variants.ExecLevel(s.cfg.Variant, s.level, s.cfg.Threads)
}

// axpyState sets tmp = state + a*k on valid regions.
func (s *Solver) axpyState(a float64, k []*fab.FAB) {
	for i, b := range s.state.Layout.Boxes {
		s.tmp.Fabs[i].CopyFrom(s.state.Fabs[i], b)
		s.tmp.Fabs[i].Plus(k[i], b, a)
	}
}

// Step advances the solution by one time step.
func (s *Solver) Step() {
	dt := s.cfg.Dt
	switch s.cfg.Integrator {
	case Euler:
		s.operator(s.stages[0], s.state)
		for i, b := range s.state.Layout.Boxes {
			s.state.Fabs[i].Plus(s.stages[0][i], b, -dt)
		}
	case RK2:
		k1, k2 := s.stages[0], s.stages[1]
		s.operator(k1, s.state)
		s.axpyState(-dt/2, k1)
		s.operator(k2, s.tmp)
		for i, b := range s.state.Layout.Boxes {
			s.state.Fabs[i].Plus(k2[i], b, -dt)
		}
	case RK4:
		k1, k2, k3, k4 := s.stages[0], s.stages[1], s.stages[2], s.stages[3]
		s.operator(k1, s.state)
		s.axpyState(-dt/2, k1)
		s.operator(k2, s.tmp)
		s.axpyState(-dt/2, k2)
		s.operator(k3, s.tmp)
		s.axpyState(-dt, k3)
		s.operator(k4, s.tmp)
		for i, b := range s.state.Layout.Boxes {
			f := s.state.Fabs[i]
			f.Plus(k1[i], b, -dt/6)
			f.Plus(k2[i], b, -dt/3)
			f.Plus(k3[i], b, -dt/3)
			f.Plus(k4[i], b, -dt/6)
		}
	}
	s.steps++
	s.time += dt
}

// Advance takes n steps.
func (s *Solver) Advance(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Totals returns the domain sum of every component — conserved quantities
// for periodic boundaries (the finite-volume telescoping property).
func (s *Solver) Totals() [kernel.NComp]float64 {
	var t [kernel.NComp]float64
	for c := 0; c < kernel.NComp; c++ {
		t[c] = s.state.SumComp(c)
	}
	return t
}

// ErrorNorms compares component c of the state against the pointwise
// function exact(p) over all valid cells, returning max and mean absolute
// errors.
func (s *Solver) ErrorNorms(c int, exact func(p ivect.IntVect) float64) (linf, l1 float64) {
	n := 0
	for i, b := range s.state.Layout.Boxes {
		f := s.state.Fabs[i]
		b.ForEach(func(p ivect.IntVect) {
			e := math.Abs(f.Get(p, c) - exact(p))
			if e > linf {
				linf = e
			}
			l1 += e
			n++
		})
	}
	if n > 0 {
		l1 /= float64(n)
	}
	return linf, l1
}

// NewAdvectionState builds a periodic level over a cube domain of
// domainN^3 cells decomposed into boxN^3 boxes, initialized for a linear
// advection problem: density rho(p), constant velocities (ux, uy, uz), and
// a constant energy. The returned state is ready for New.
func NewAdvectionState(domainN, boxN int, ux, uy, uz float64, rho func(p ivect.IntVect) float64, threads int) (*layout.LevelData, error) {
	l, err := layout.Decompose(box.Cube(domainN), boxN, [3]bool{true, true, true})
	if err != nil {
		return nil, err
	}
	ld := layout.NewLevelData(l, kernel.NComp, kernel.NGhost)
	ld.FillFromFunction(threads, func(p ivect.IntVect, c int) float64 {
		switch c {
		case 0:
			return rho(p)
		case 1:
			return ux
		case 2:
			return uy
		case 3:
			return uz
		default:
			return 1
		}
	})
	return ld, nil
}
