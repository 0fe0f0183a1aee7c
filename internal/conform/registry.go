package conform

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/fft"
	"stencilsched/internal/sched"
	"stencilsched/internal/variants"
	"stencilsched/internal/variants/generated"
)

// Runner is one registered schedule execution: a name, a way to run the
// exemplar on a box, and (for the hand-written families) the variant it
// executes. The conformance checks treat runners uniformly — the
// contract is identical whether the schedule is hand-written, compiled
// by schedc or answered by the spectral backend.
type Runner struct {
	// Name identifies the runner in divergence repros. For variant
	// runners it is the paper-legend variant name.
	Name string
	// Variant is the scheduling variant of a hand-written runner; the
	// zero value for the generated and spectral runners.
	Variant sched.Variant
	// Generated marks the schedc-compiled runners (package
	// internal/variants/generated), serial within the box.
	Generated bool
	// TemporalK > 0 marks a temporal-blocking runner fusing that many
	// Euler steps per sweep, which changes the contract: phi0 must cover
	// valid grown by TemporalK*NGhost, and phi1 accumulates the K-step
	// state delta instead of the raw divergence. The conformance oracle
	// for such runners is temporal.Reference (kernel.Reference composed
	// K times), and level (multi-box) checks are skipped — level ghost
	// exchanges are only NGhost deep.
	TemporalK int
	// Spectral marks the FFT fast-path runners. They further restrict
	// the contract — fully periodic geometry (phi0's ghost shell is the
	// periodic wrap of the interior) and frozen velocities — and their
	// results are mathematically but not bitwise equal to the oracle, so
	// the sweep checks them with CheckPeriodic in tolerance mode instead
	// of CheckBox/CheckLevel.
	Spectral bool
	// TileEdge is the largest spatial tile edge of a tiled schedule, 0
	// for an untiled one. On a box smaller than the tile the executors
	// clamp and run a different schedule than the name says, which the
	// conformance checks want and a measurement does not.
	TileEdge int
	// Tol is the error budget of a tolerance-mode (Spectral) runner; nil
	// means SpectralTolerance. Bitwise runners leave it nil and are
	// never compared through it.
	Tol *Tolerance
	// Run executes the exemplar: phi0 must cover the ghosted valid box,
	// and the flux divergence accumulates into phi1 over valid.
	Run func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error
}

// Steps returns the number of Euler steps one sweep of the runner
// advances: TemporalK for temporal and spectral runners, 1 otherwise.
func (r Runner) Steps() int {
	return max(r.TemporalK, 1)
}

// VariantRunner wraps one hand-written scheduling variant, studied or
// from the extended rectangular-tile space.
func VariantRunner(v sched.Variant) Runner {
	edge := 0
	if v.Tiled() {
		edge = v.MaxTileEdge()
	}
	return Runner{
		Name:     v.Name(),
		Variant:  v,
		TileEdge: edge,
		Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
			variants.Exec(v, phi0, phi1, valid, threads)
			return nil
		},
	}
}

// AddRunner appends r to rs, rejecting a name already present — a
// duplicate registration would make divergence repro lines ambiguous
// and silently halve the sweep's coverage of one of the two runners.
func AddRunner(rs []Runner, r Runner) ([]Runner, error) {
	for _, have := range rs {
		if have.Name == r.Name {
			return rs, fmt.Errorf("conform: duplicate runner name %q", r.Name)
		}
	}
	return append(rs, r), nil
}

// Registry returns every registered schedule the harness conforms: the
// 32 studied hand-written variants, the schedc-compiled runners and the
// spectral backends. The sweep's acceptance criterion is that every
// entry here is covered. A duplicate name in the registration sequence
// is a programming error and panics.
func Registry() []Runner {
	var rs []Runner
	var err error
	add := func(r Runner) {
		if err == nil {
			rs, err = AddRunner(rs, r)
		}
	}
	for _, v := range sched.Studied() {
		add(VariantRunner(v))
	}
	for _, e := range generated.Entries() {
		add(Runner{Name: e.Name, Generated: true, TemporalK: e.TemporalK, TileEdge: e.TileEdge, Run: e.Run})
	}
	// The spectral fast path: one FFT pass answers K Euler steps on
	// periodic frozen-velocity data. Deep K are cheap here (the symbol
	// is raised to the K-th power pointwise), so the registry carries
	// the full crossover-study range.
	for _, k := range []int{1, 2, 4, 8, 16} {
		add(spectralRunner(k))
	}
	if err != nil {
		panic(err)
	}
	return rs
}

// spectralRunner wraps the internal/fft solver: K Euler steps answered
// in one spectral pass on a fully periodic box with frozen velocities.
// Checked by CheckPeriodic in tolerance mode — the rounding happens in
// the frequency basis, so results are not bitwise comparable to the
// composed-Euler oracle.
func spectralRunner(k int) Runner {
	return Runner{
		Name:      fmt.Sprintf("FFT (spectral) K%d", k),
		TemporalK: k,
		Spectral:  true,
		Tol:       &SpectralTolerance,
		Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
			return fft.Solve(phi0, phi1, valid, fft.Config{K: k, Threads: threads})
		},
	}
}

// studiedIndex locates a variant runner's position in sched.Studied()
// — the VariantIdx a distributed case needs to execute that runner's
// schedule. Generated and spectral runners report false.
func studiedIndex(r Runner) (int, bool) {
	for i, v := range sched.Studied() {
		if v.Name() == r.Name {
			return i, true
		}
	}
	return 0, false
}

// RunnerByName resolves a registry entry, for replaying repro lines.
func RunnerByName(name string) (Runner, bool) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}
