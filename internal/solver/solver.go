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
	// tmp is the stage state of RK2 and RK4, acc RK4's running sum of
	// its weighted stages over the valid boxes; nil when unused. The
	// stage divergences themselves live only in per-worker slabs, one box
	// at a time (variants.ExecLevelThen).
	tmp   *layout.LevelData
	acc   []*fab.FAB
	level []variants.State // the sweep's per-box arguments, refilled per stage
	terms []term           // the current stage's update
	updFn variants.Epilogue
	steps int
	time  float64
}

// term is one output of a stage update: dst = x + c*D on every valid
// cell, D the stage's divergence.
type term struct {
	dst, x []*fab.FAB
	c      float64
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
	if cfg.Integrator < Euler || cfg.Integrator > RK4 {
		return nil, fmt.Errorf("solver: unknown integrator %v", cfg.Integrator)
	}
	s := &Solver{cfg: cfg, state: state, level: make([]variants.State, state.Layout.NumBoxes())}
	s.updFn = s.update
	if cfg.Integrator != Euler {
		s.tmp = layout.NewLevelData(state.Layout, kernel.NComp, state.NGhost)
	}
	if cfg.Integrator == RK4 {
		for _, b := range state.Layout.Boxes {
			s.acc = append(s.acc, fab.New(b, kernel.NComp))
		}
	}
	return s, nil
}

// State returns the solution being advanced.
func (s *Solver) State() *layout.LevelData { return s.state }

// Time returns the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// Steps returns the number of completed steps.
func (s *Solver) Steps() int { return s.steps }

// stage exchanges src's ghosts and sweeps every box of it for the raw
// divergence D = div F(src); right after a box's sweep, while D is
// hot, the terms update that box. The update's minus sign rides on the
// coefficients, which costs no pass over D and is exact.
func (s *Solver) stage(src *layout.LevelData, terms ...term) {
	src.Exchange(s.cfg.Threads)
	s.terms = append(s.terms[:0], terms...)
	for i, b := range src.Layout.Boxes {
		s.level[i] = variants.State{Valid: b, Phi0: src.Fabs[i]}
	}
	variants.ExecLevelThen(s.cfg.Variant, s.level, s.cfg.Threads, s.updFn)
}

// update is the stage epilogue of box i. A box's stage input is read
// only by its own sweep, which is done, so writing it in place is safe.
func (s *Solver) update(i int, d *fab.FAB) {
	var buf [2]kernel.Term
	ts := buf[:0]
	for _, t := range s.terms {
		ts = append(ts, kernel.Term{Dst: t.dst[i], X: t.x[i], A: t.c})
	}
	kernel.Axpy(s.state.Layout.Boxes[i], d, ts...)
}

// Step advances the solution by one time step. Every stage update is
// one pass, written in place. RK4 sums S + (-dt/6)k1 + (-dt/3)k2 +
// (-dt/3)k3 + (-dt/6)k4 left to right in acc as the stages go.
func (s *Solver) Step() {
	dt := s.cfg.Dt
	S, A := s.state.Fabs, s.acc
	switch s.cfg.Integrator {
	case Euler:
		s.stage(s.state, term{S, S, -dt})
	case RK2:
		T := s.tmp.Fabs
		s.stage(s.state, term{T, S, -dt / 2})
		s.stage(s.tmp, term{S, S, -dt})
	case RK4:
		T := s.tmp.Fabs
		s.stage(s.state, term{T, S, -dt / 2}, term{A, S, -dt / 6})
		s.stage(s.tmp, term{T, S, -dt / 2}, term{A, A, -dt / 3})
		s.stage(s.tmp, term{T, S, -dt}, term{A, A, -dt / 3})
		s.stage(s.tmp, term{S, A, -dt / 6})
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
