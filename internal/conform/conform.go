// Package conform is the differential and metamorphic conformance
// harness of the repository: it cross-validates every registered
// schedule — the hand-written variant families of internal/variants, the
// schedc-compiled runners of internal/variants/generated and the
// spectral backend of internal/fft —
// against the Figure 6 reference kernel over randomized geometries.
//
// The paper's entire argument rests on one invariant (Section IV): all
// scheduling variants compute the *same* flux divergence as the series
// of modular loops, so their performance differences are pure schedule
// effects. This package turns that invariant into machine-checked
// properties:
//
//   - differential: the variant's output equals kernel.Reference within
//     a ULP bound (0 in this repository — results are bitwise equal by
//     construction), on randomized boxes including non-cubic shapes,
//     shifted corners, oversized ghost regions, guard rings around the
//     output, near-infeasible tile sizes, and 1–8 threads;
//   - determinism: repeating an execution (which exercises the warm
//     scratch-arena path over undefined retained contents) and changing
//     the thread count must not change a single bit;
//   - linearity: the eq. 6 face-average operator is linear in phi, and
//     component 0 (density) never feeds an advection velocity, so
//     doubling rho must exactly double the rho divergence and leave the
//     other components bit-identical (doubling is exact in binary
//     floating point, so this invariant holds bitwise);
//   - guard: cells outside the valid region must never be written, and
//     the divergence must accumulate into (not overwrite) the output;
//   - translation (level checks, see CheckLevel): shifting periodic
//     initial data by one cell translates the divergence field exactly,
//     through the multi-box ghost exchange.
//
// Divergences carry the runner name, full geometry and seed, and
// Minimize shrinks a failing case to a small reproducer before
// reporting. The harness is exposed three ways: Go native fuzzing
// (FuzzConformance, FuzzLevelConformance), the deterministic Sweep that
// tier-1 tests run on every build, and the stencilserved
// /v1/conformance endpoint for deployed self-checks.
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

// sentinel fills output guard rings and pre-loads the accumulation
// target, so out-of-region writes and overwrite-instead-of-accumulate
// bugs surface as differential failures. The reference oracle starts
// from the same sentinel, so the comparison stays bitwise.
const sentinel = 512.0

// Case is one randomized single-box conformance geometry. The zero
// value is not useful; build cases with RandomCase or literally and let
// Normalized clamp them into the supported ranges.
type Case struct {
	// Seed drives the random initial data (and, via RandomCase, the
	// geometry itself).
	Seed int64 `json:"seed"`
	// Lo is the valid box's low corner — non-zero corners catch
	// offset-vs-index confusions.
	Lo [3]int `json:"lo"`
	// Size is the valid box's cell count per dimension.
	Size [3]int `json:"size"`
	// GhostPad grows phi0 beyond the kernel's required ghost box, so
	// executors that assume phi0 is exactly the grown valid box fail.
	GhostPad int `json:"ghost_pad"`
	// OutPad grows phi1 beyond the valid box by a sentinel-filled guard
	// ring that must survive execution untouched.
	OutPad int `json:"out_pad"`
	// Threads is the within-box thread count (P>=Box families run the
	// box serially regardless).
	Threads int `json:"threads"`
	// Warm re-runs the execution and demands a bitwise repeat — the
	// second run reuses retained scratch arenas with undefined contents.
	Warm bool `json:"warm"`
}

// Case bounds. Sizes below the stencil width and tiles larger than the
// box are deliberately in range: executors must clamp, not corrupt.
const (
	maxCaseEdge = 32
	maxCorner   = 32
	maxGhostPad = 3
	maxOutPad   = 2
	// MaxThreads caps randomized thread counts (the study's P<Box sweeps
	// stop at 8 threads per box).
	MaxThreads = 8
)

// Normalized returns c clamped into the ranges the harness supports, so
// arbitrary fuzzer-chosen values always form a runnable case.
func (c Case) Normalized() Case {
	for d := 0; d < 3; d++ {
		c.Size[d] = clamp(c.Size[d], 1, maxCaseEdge)
		c.Lo[d] = clamp(c.Lo[d], -maxCorner, maxCorner)
	}
	c.GhostPad = clamp(c.GhostPad, 0, maxGhostPad)
	c.OutPad = clamp(c.OutPad, 0, maxOutPad)
	c.Threads = clamp(c.Threads, 1, MaxThreads)
	return c
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Box returns the valid box of the case.
func (c Case) Box() box.Box {
	return box.NewSized(ivect.New(c.Lo[0], c.Lo[1], c.Lo[2]),
		ivect.New(c.Size[0], c.Size[1], c.Size[2]))
}

// String renders the case as the one-line geometry part of a repro.
func (c Case) String() string {
	return fmt.Sprintf("seed=%d box=%v size=%dx%dx%d ghostpad=%d outpad=%d threads=%d warm=%v",
		c.Seed, c.Box(), c.Size[0], c.Size[1], c.Size[2], c.GhostPad, c.OutPad, c.Threads, c.Warm)
}

// RandomCase derives a case deterministically from seed: cubic boxes
// about a third of the time, otherwise independent edges in [1, 14]
// (tiled variants with edge-32 tiles are near-infeasible on every one of
// them and must clamp correctly), shifted corners, occasional ghost and
// guard padding, 1–8 threads, warm half the time.
func RandomCase(seed int64) Case {
	rnd := rand.New(rand.NewSource(seed))
	var c Case
	c.Seed = seed
	if rnd.Intn(3) == 0 {
		n := 4 + rnd.Intn(9)
		c.Size = [3]int{n, n, n}
	} else {
		for d := 0; d < 3; d++ {
			c.Size[d] = 1 + rnd.Intn(14)
		}
	}
	for d := 0; d < 3; d++ {
		c.Lo[d] = rnd.Intn(17) - 8
	}
	c.GhostPad = rnd.Intn(4) % 3 // {0,1,2} with 0 slightly favored
	c.OutPad = rnd.Intn(3) % 2
	c.Threads = 1 + rnd.Intn(MaxThreads)
	c.Warm = rnd.Intn(2) == 0
	return c
}

// Divergence reports one conformance failure: which registered runner,
// which property, on which geometry and seed. It implements error; its
// message is the repro line the acceptance criteria require.
type Divergence struct {
	Runner string `json:"runner"`
	Check  string `json:"check"`
	Case   Case   `json:"case"`
	// Level is set when the failure came from a level (multi-box) case.
	Level *LevelCase `json:"level,omitempty"`
	// Dist is set when the failure came from a distributed (multi-rank)
	// case.
	Dist *DistCase `json:"dist,omitempty"`
	// Detail localizes the failure: worst point, component, values, ULP
	// distance.
	Detail string `json:"detail"`
}

// Error renders the minimized-repro line: check, runner (variant),
// geometry, and seed are all present so the failure can be replayed.
func (d *Divergence) Error() string {
	if d.Dist != nil {
		return fmt.Sprintf("conform: %s check failed for %q on dist case {%s}: %s",
			d.Check, d.Runner, d.Dist, d.Detail)
	}
	if d.Level != nil {
		return fmt.Sprintf("conform: %s check failed for %q on level case {%s}: %s",
			d.Check, d.Runner, d.Level, d.Detail)
	}
	return fmt.Sprintf("conform: %s check failed for %q on case {%s}: %s",
		d.Check, d.Runner, d.Case, d.Detail)
}

// ULPDiff returns the distance between two float64 values in units of
// last place: the number of representable values strictly between them
// plus one, 0 iff they are equal (+0 and -0 compare equal), and MaxUint64
// if either is NaN. Equality checks throughout the harness are
// ULP-bounded with the repository default bound of 0 — the variants
// guarantee bitwise equality — but the bound is configurable for future
// backends (SIMD, GPUs) with relaxed contraction rules.
func ULPDiff(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ia, ib := orderedBits(a), orderedBits(b)
	if ia > ib {
		ia, ib = ib, ia
	}
	// The int64 subtraction may wrap, but the true distance always fits
	// in a uint64, and two's-complement wraparound preserves it mod 2^64.
	return uint64(ib - ia)
}

// orderedBits maps a float64 onto a monotonically ordered int64 scale
// (the standard bit-twiddling trick: negative floats are reflected).
func orderedBits(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// worst is the largest pointwise discrepancy found by a comparison.
type worst struct {
	ulp       uint64
	got, want float64
	at        ivect.IntVect
	comp      int
	found     bool
}

func (w worst) detail() string {
	return fmt.Sprintf("got %v want %v (%d ulps) at %v component %d",
		w.got, w.want, w.ulp, w.at, w.comp)
}

// worstOver scans region x components for the largest ULP discrepancy
// reported by at.
func worstOver(region box.Box, ncomp int, maxULP uint64, at func(p ivect.IntVect, c int) (got, want float64)) worst {
	var w worst
	for c := 0; c < ncomp; c++ {
		c := c
		region.ForEach(func(p ivect.IntVect) {
			g, wv := at(p, c)
			if u := ULPDiff(g, wv); u > maxULP && (!w.found || u > w.ulp) {
				w = worst{ulp: u, got: g, want: wv, at: p, comp: c, found: true}
			}
		})
	}
	return w
}

// compareFABs compares got against want over region (clipped to both)
// for every component.
func compareFABs(got, want *fab.FAB, region box.Box, maxULP uint64) worst {
	region = region.Intersect(got.Box()).Intersect(want.Box())
	return worstOver(region, got.NComp(), maxULP, func(p ivect.IntVect, c int) (float64, float64) {
		return got.Get(p, c), want.Get(p, c)
	})
}

// CheckBox runs every single-box conformance property of r on case c
// and returns the first divergence, or nil if the runner conforms. A
// panicking executor is reported as a divergence (check "panic"), not
// propagated: a crash on a legal geometry is a conformance failure.
func CheckBox(r Runner, c Case, maxULP uint64) (dv *Divergence) {
	c = c.Normalized()
	defer func() {
		if rec := recover(); rec != nil {
			dv = &Divergence{Runner: r.Name, Check: "panic", Case: c,
				Detail: fmt.Sprintf("executor panicked: %v", rec)}
		}
	}()
	valid := c.Box()
	// Temporal-blocking runners read a K-times-deeper ghost shell and
	// produce the K-step state delta; their oracle is kernel.Reference
	// composed K times (temporal.Reference). Everything else about the
	// properties — sentinel guards, determinism, rho linearity — is
	// unchanged: the rho path stays linear through every Euler step
	// because components 1..4 never read component 0.
	depth := temporal.GhostDepth(r.Steps())
	oracle := func(phi0, out *fab.FAB) {
		if r.TemporalK > 0 {
			temporal.Reference(phi0, out, valid, r.TemporalK, kernel.EulerDt)
		} else {
			kernel.Reference(phi0, out, valid)
		}
	}
	phi0 := fab.New(valid.Grow(depth+c.GhostPad), kernel.NComp)
	phi0.Randomize(rand.New(rand.NewSource(c.Seed)), 0.25, 1.75)
	outBox := valid.Grow(c.OutPad)

	// Differential + guard + accumulation: oracle and runner both start
	// from the sentinel, so any out-of-region write, overwrite, or value
	// discrepancy shows as a ULP failure over the full output box.
	want := fab.New(outBox, kernel.NComp)
	want.Fill(sentinel)
	oracle(phi0, want)
	got := fab.New(outBox, kernel.NComp)
	got.Fill(sentinel)
	if err := r.Run(phi0, got, valid, c.Threads); err != nil {
		return &Divergence{Runner: r.Name, Check: "execution", Case: c, Detail: err.Error()}
	}
	if w := compareFABs(got, want, outBox, maxULP); w.found {
		return &Divergence{Runner: r.Name, Check: "differential", Case: c, Detail: w.detail()}
	}

	// Determinism across repetitions: the repeat reuses warmed scratch
	// arenas whose retained contents are undefined; the repo's Verify
	// bug-class (PR 3's repetition-state corruption) lives here.
	if c.Warm {
		again := fab.New(outBox, kernel.NComp)
		again.Fill(sentinel)
		if err := r.Run(phi0, again, valid, c.Threads); err != nil {
			return &Divergence{Runner: r.Name, Check: "execution (warm repeat)", Case: c, Detail: err.Error()}
		}
		if w := compareFABs(again, got, outBox, 0); w.found {
			return &Divergence{Runner: r.Name, Check: "determinism (warm repeat)", Case: c, Detail: w.detail()}
		}
	}

	// Determinism across thread counts: a threaded execution must match
	// the serial one bitwise (the accumulation order is fixed by the
	// schedule contract, not by thread interleaving).
	if c.Threads > 1 {
		serial := fab.New(outBox, kernel.NComp)
		serial.Fill(sentinel)
		if err := r.Run(phi0, serial, valid, 1); err != nil {
			return &Divergence{Runner: r.Name, Check: "execution (serial)", Case: c, Detail: err.Error()}
		}
		if w := compareFABs(got, serial, outBox, 0); w.found {
			return &Divergence{Runner: r.Name, Check: "determinism (threads)", Case: c, Detail: w.detail()}
		}
	}

	// Linearity of the eq. 6 face average in phi: component 0 (rho) is
	// advected but never supplies a velocity (kernel.VelComp is 1..3),
	// so the rho flux is linear in rho and doubling rho — exact in
	// binary floating point — must exactly double the rho divergence
	// while leaving components 1..4 bit-identical. Zero-filled outputs
	// keep the doubling comparison exact.
	base := fab.New(outBox, kernel.NComp)
	if err := r.Run(phi0, base, valid, c.Threads); err != nil {
		return &Divergence{Runner: r.Name, Check: "execution (linearity base)", Case: c, Detail: err.Error()}
	}
	scaled := phi0.Clone()
	rho := scaled.Comp(0)
	for i := range rho {
		rho[i] *= 2
	}
	lin := fab.New(outBox, kernel.NComp)
	if err := r.Run(scaled, lin, valid, c.Threads); err != nil {
		return &Divergence{Runner: r.Name, Check: "execution (linearity)", Case: c, Detail: err.Error()}
	}
	if w := worstOver(outBox, kernel.NComp, 0, func(p ivect.IntVect, cc int) (float64, float64) {
		g := lin.Get(p, cc)
		wv := base.Get(p, cc)
		if cc == 0 {
			wv *= 2
		}
		return g, wv
	}); w.found {
		return &Divergence{Runner: r.Name, Check: "linearity (face average in phi)", Case: c, Detail: w.detail()}
	}
	return nil
}
