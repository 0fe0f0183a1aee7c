package conform

import (
	"fmt"
	"math"
	"math/rand"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/temporal"
)

// This file is the periodic, tolerance-aware arm of the harness: the
// conformance contract for runners that are mathematically — but not
// bitwise — equivalent to the composed-Euler oracle. The spectral FFT
// runners are the first citizens: they require fully periodic geometry
// and spatially constant (frozen) advection velocities, and they round
// in the frequency basis, so the differential check compares against
// relative L∞/RMS bounds (Runner.Tol) instead of 0 ULP. Everything that
// is schedule-independent bookkeeping — guard rings, accumulate-don't-
// overwrite, warm repeats, thread determinism — stays bitwise even
// here: tolerance is for rounding, not for writes to the wrong place.

// wrapPeriodic maps p onto its periodic image inside valid.
func wrapPeriodic(valid box.Box, p ivect.IntVect) ivect.IntVect {
	q := p
	for d := 0; d < 3; d++ {
		n := valid.Hi[d] - valid.Lo[d] + 1
		r := (p[d] - valid.Lo[d]) % n
		if r < 0 {
			r += n
		}
		q[d] = valid.Lo[d] + r
	}
	return q
}

// periodicState derives the frozen-velocity periodic initial data of a
// case: random density and energy on the valid box, one random constant
// per velocity component (the linearity condition the spectral solver
// demands), and a phi0 whose ghost shell of the given depth holds the
// periodic wrap of the interior. Both the interior (the torus state the
// oracle steps) and phi0 (the runner input) are returned.
func periodicState(c Case, depth int) (interior, phi0 *fab.FAB) {
	valid := c.Box()
	rnd := rand.New(rand.NewSource(c.Seed))
	interior = fab.New(valid, kernel.NComp)
	for d := 0; d < 3; d++ {
		interior.FillComp(d+1, 0.25+1.5*rnd.Float64())
	}
	for _, comp := range []int{0, 4} {
		comp := comp
		valid.ForEach(func(p ivect.IntVect) {
			interior.Set(p, comp, 0.25+1.5*rnd.Float64())
		})
	}
	phi0 = fab.New(valid.Grow(depth), kernel.NComp)
	phi0.Box().ForEach(func(p ivect.IntVect) {
		q := wrapPeriodic(valid, p)
		for comp := 0; comp < kernel.NComp; comp++ {
			phi0.Set(p, comp, interior.Get(q, comp))
		}
	})
	return interior, phi0
}

// periodicOracle advances the torus state k Euler steps by re-wrapping
// the interior into a one-radius ghost shell before every step. On
// periodic initial data this is bitwise equal to temporal.Reference
// over wrap-filled deep ghosts — the kernel is translation-invariant
// with identical floating-point operations, so every ghost cell it
// would have stepped holds exactly the wrapped interior value — but
// costs O(k·n³) instead of O(k·(n+k)³), which is what keeps deep-K
// spectral sweeps inside the tier-1 time budget.
func periodicOracle(interior *fab.FAB, valid box.Box, k int, dt float64) *fab.FAB {
	state := interior.Clone()
	phi := fab.New(valid.Grow(kernel.NGhost), kernel.NComp)
	div := fab.New(valid, kernel.NComp)
	for j := 0; j < k; j++ {
		phi.Box().ForEach(func(p ivect.IntVect) {
			q := wrapPeriodic(valid, p)
			for comp := 0; comp < kernel.NComp; comp++ {
				phi.Set(p, comp, state.Get(q, comp))
			}
		})
		div.Fill(0)
		kernel.Reference(phi, div, valid)
		state.Plus(div, valid, -dt)
	}
	return state
}

// ringWorst scans the guard ring (outBox minus valid) for the largest
// deviation from the expected preload value.
func ringWorst(got *fab.FAB, outBox, valid box.Box, expect float64) worst {
	var w worst
	for c := 0; c < got.NComp(); c++ {
		c := c
		outBox.ForEach(func(p ivect.IntVect) {
			if valid.Contains(p) {
				return
			}
			g := got.Get(p, c)
			if u := ULPDiff(g, expect); u > 0 && (!w.found || u > w.ulp) {
				w = worst{ulp: u, got: g, want: expect, at: p, comp: c, found: true}
			}
		})
	}
	return w
}

// CheckPeriodic runs the periodic conformance properties of r on case c
// and returns the first divergence, or nil. The case geometry is read
// as a fully periodic torus: phi0's ghost shell is wrap-filled and the
// oracle is the k-step torus evolution. The differential comparison
// uses the runner's declared Tolerance (SpectralTolerance when nil);
// guard, accumulation, warm-repeat, and thread-determinism checks stay
// bitwise. Panics are reported as divergences, as in CheckBox.
func CheckPeriodic(r Runner, c Case) (dv *Divergence) {
	c = c.Normalized()
	defer func() {
		if rec := recover(); rec != nil {
			dv = &Divergence{Runner: r.Name, Check: "panic", Case: c,
				Detail: fmt.Sprintf("executor panicked: %v", rec)}
		}
	}()
	valid := c.Box()
	k := r.TemporalK
	if k < 1 {
		k = 1
	}
	tol := SpectralTolerance
	if r.Tol != nil {
		tol = *r.Tol
	}
	interior, phi0 := periodicState(c, k*kernel.NGhost+c.GhostPad)
	outBox := valid.Grow(c.OutPad)

	// Oracle: k-step torus evolution, accumulated as the state delta —
	// the same contract every temporal runner follows.
	stateK := periodicOracle(interior, valid, k, kernel.EulerDt)
	want := fab.New(outBox, kernel.NComp)
	temporal.AddDiff(want, stateK, interior, valid)

	// Differential under tolerance, from a zero preload.
	got := fab.New(outBox, kernel.NComp)
	if err := r.Run(phi0, got, valid, c.Threads); err != nil {
		return &Divergence{Runner: r.Name, Check: "execution", Case: c, Detail: err.Error()}
	}
	scale := interior.MaxNorm(valid)
	if s := want.MaxNorm(valid); s > scale {
		scale = s
	}
	linfU, l2U := tol.Bounds(k, valid.NumPts())
	linfBound, l2Bound := linfU*scale, l2U*scale
	if w := toleranceDiff(got, want, valid); w.linf > linfBound || w.rms > l2Bound {
		return &Divergence{Runner: r.Name, Check: "differential (tolerance)", Case: c,
			Detail: fmt.Sprintf("Linf %g (bound %g), RMS %g (bound %g); worst got %v want %v at %v component %d",
				w.linf, linfBound, w.rms, l2Bound, w.got, w.want, w.at, w.comp)}
	}
	// The guard ring never tolerates anything: out-of-region writes are
	// bugs, not rounding.
	if w := ringWorst(got, outBox, valid, 0); w.found {
		return &Divergence{Runner: r.Name, Check: "guard", Case: c, Detail: w.detail()}
	}

	// Accumulation, bitwise: a sentinel preload must shift every valid
	// cell by exactly fl(sentinel + delta) — the delta contract funnels
	// the writeback through one rounded add — and leave the ring at the
	// sentinel untouched.
	expS := fab.New(outBox, kernel.NComp)
	expS.Fill(sentinel)
	for comp := 0; comp < kernel.NComp; comp++ {
		comp := comp
		valid.ForEach(func(p ivect.IntVect) {
			expS.Set(p, comp, sentinel+got.Get(p, comp))
		})
	}
	gotS := fab.New(outBox, kernel.NComp)
	gotS.Fill(sentinel)
	if err := r.Run(phi0, gotS, valid, c.Threads); err != nil {
		return &Divergence{Runner: r.Name, Check: "execution (accumulate)", Case: c, Detail: err.Error()}
	}
	if w := compareFABs(gotS, expS, outBox, 0); w.found {
		return &Divergence{Runner: r.Name, Check: "accumulation", Case: c, Detail: w.detail()}
	}

	// Determinism across repetitions and thread counts, bitwise: the
	// rounding is whatever it is, but it must be the same rounding every
	// time.
	if c.Warm {
		again := fab.New(outBox, kernel.NComp)
		if err := r.Run(phi0, again, valid, c.Threads); err != nil {
			return &Divergence{Runner: r.Name, Check: "execution (warm repeat)", Case: c, Detail: err.Error()}
		}
		if w := compareFABs(again, got, outBox, 0); w.found {
			return &Divergence{Runner: r.Name, Check: "determinism (warm repeat)", Case: c, Detail: w.detail()}
		}
	}
	if c.Threads > 1 {
		serial := fab.New(outBox, kernel.NComp)
		if err := r.Run(phi0, serial, valid, 1); err != nil {
			return &Divergence{Runner: r.Name, Check: "execution (serial)", Case: c, Detail: err.Error()}
		}
		if w := compareFABs(got, serial, outBox, 0); w.found {
			return &Divergence{Runner: r.Name, Check: "determinism (threads)", Case: c, Detail: w.detail()}
		}
	}

	// Rho linearity under tolerance: doubling density doubles the
	// density delta (the energy and velocity components never read rho,
	// so they must not move at all — bitwise). The spectral pipeline
	// preserves the doubling exactly, but an injected additive error
	// legitimately below tolerance would not, so the rho comparison uses
	// the tolerance with the doubled scale.
	scaled := phi0.Clone()
	rho := scaled.Comp(0)
	for i := range rho {
		rho[i] *= 2
	}
	lin := fab.New(outBox, kernel.NComp)
	if err := r.Run(scaled, lin, valid, c.Threads); err != nil {
		return &Divergence{Runner: r.Name, Check: "execution (linearity)", Case: c, Detail: err.Error()}
	}
	var rhoWorst tolWorst
	var rhoSumsq float64
	valid.ForEach(func(p ivect.IntVect) {
		g, wv := lin.Get(p, 0), 2*got.Get(p, 0)
		d := g - wv
		if d < 0 {
			d = -d
		}
		rhoSumsq += d * d
		if d > rhoWorst.linf {
			rhoWorst = tolWorst{linf: d, got: g, want: wv, at: p}
		}
	})
	rhoWorst.rms = math.Sqrt(rhoSumsq / float64(valid.NumPts()))
	if rhoWorst.linf > 2*linfBound || rhoWorst.rms > 2*l2Bound {
		return &Divergence{Runner: r.Name, Check: "linearity (rho, tolerance)", Case: c,
			Detail: fmt.Sprintf("Linf %g (bound %g), RMS %g (bound %g); worst got %v want %v at %v component 0",
				rhoWorst.linf, 2*linfBound, rhoWorst.rms, 2*l2Bound, rhoWorst.got, rhoWorst.want, rhoWorst.at)}
	}
	if w := worstOver(valid, kernel.NComp, 0, func(p ivect.IntVect, comp int) (float64, float64) {
		if comp == 0 {
			return 0, 0 // rho handled above
		}
		return lin.Get(p, comp), got.Get(p, comp)
	}); w.found {
		return &Divergence{Runner: r.Name, Check: "linearity (non-rho components)", Case: c, Detail: w.detail()}
	}
	return nil
}

// MinimizePeriodic shrinks a failing periodic case the way Minimize
// shrinks a single-box case, re-checking candidates with CheckPeriodic.
func MinimizePeriodic(r Runner, c Case) (Case, *Divergence) {
	return minimize(c, Case.Normalized, shrinkCase, func(cc Case) *Divergence { return CheckPeriodic(r, cc) })
}
