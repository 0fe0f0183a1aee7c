package conform

import (
	"fmt"
	"math/rand"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
)

// LevelCase is one randomized multi-box conformance geometry: a domain
// decomposed into boxes (ragged at the high ends when BoxSize does not
// divide the domain), with per-direction periodic or non-periodic
// boundary conditions, exercised through the real ghost exchange.
type LevelCase struct {
	Seed       int64   `json:"seed"`
	DomainSize [3]int  `json:"domain_size"`
	BoxSize    int     `json:"box_size"`
	Periodic   [3]bool `json:"periodic"`
	Threads    int     `json:"threads"`
}

// Level-case bounds: domains stay small enough for a fast sweep while
// still producing multi-box layouts with ragged edges.
const (
	minDomainEdge = 4
	maxDomainEdge = 20
	maxLevelBox   = 12
)

// Normalized clamps lc into the supported ranges.
func (lc LevelCase) Normalized() LevelCase {
	for d := 0; d < 3; d++ {
		lc.DomainSize[d] = clamp(lc.DomainSize[d], minDomainEdge, maxDomainEdge)
	}
	lc.BoxSize = clamp(lc.BoxSize, 2, maxLevelBox)
	lc.Threads = clamp(lc.Threads, 1, MaxThreads)
	return lc
}

// Domain returns the level's domain box (low corner at the origin —
// layout periodic wrapping is defined relative to the domain, so the
// corner carries no extra coverage here; box-level cases shift corners).
func (lc LevelCase) Domain() box.Box {
	return box.NewSized(ivect.Zero, ivect.New(lc.DomainSize[0], lc.DomainSize[1], lc.DomainSize[2]))
}

// String renders the level geometry part of a repro line.
func (lc LevelCase) String() string {
	return fmt.Sprintf("seed=%d domain=%dx%dx%d box=%d periodic=%v threads=%d",
		lc.Seed, lc.DomainSize[0], lc.DomainSize[1], lc.DomainSize[2],
		lc.BoxSize, lc.Periodic, lc.Threads)
}

// RandomLevelCase derives a level case deterministically from seed.
// Box sizes frequently fail to divide the domain (ragged layouts), and
// each direction is periodic with probability 2/3 so most cases have a
// wrap to translate across.
func RandomLevelCase(seed int64) LevelCase {
	rnd := rand.New(rand.NewSource(seed))
	var lc LevelCase
	lc.Seed = seed
	for d := 0; d < 3; d++ {
		lc.DomainSize[d] = minDomainEdge + rnd.Intn(maxDomainEdge-minDomainEdge+1)
		lc.Periodic[d] = rnd.Intn(3) > 0
	}
	lc.BoxSize = 2 + rnd.Intn(7)
	lc.Threads = 1 + rnd.Intn(MaxThreads)
	return lc
}

// wrapPoint maps p onto the domain torus in the periodic directions and
// leaves it unchanged in the others.
func wrapPoint(p ivect.IntVect, domain box.Box, periodic [3]bool) ivect.IntVect {
	sz := domain.Size()
	for d := 0; d < 3; d++ {
		if !periodic[d] {
			continue
		}
		n := sz[d]
		p[d] = ((p[d]-domain.Lo[d])%n+n)%n + domain.Lo[d]
	}
	return p
}

// levelField returns the deterministic pointwise initial condition of a
// level case: a hash of the torus-wrapped coordinates, so translated
// initial data is exactly the translated field. Values live in
// [0.25, 1.75] like the box-level random states.
func levelField(lc LevelCase) func(p ivect.IntVect, c int) float64 {
	domain := lc.Domain()
	return func(p ivect.IntVect, c int) float64 {
		q := wrapPoint(p, domain, lc.Periodic)
		return hashValue(lc.Seed, q, c)
	}
}

// hashValue is a splitmix64-style point hash mapped into [0.25, 1.75].
func hashValue(seed int64, p ivect.IntVect, c int) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [4]int{p[0], p[1], p[2], c} {
		h ^= uint64(int64(v))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return 0.25 + 1.5*float64(h>>11)/float64(1<<53)
}

// runLevel fills a fresh level from field, exchanges ghosts, and runs r
// on every box, returning the per-box divergence fields.
func runLevel(r Runner, lc LevelCase, field func(ivect.IntVect, int) float64) ([]*fab.FAB, *layout.LevelData, error) {
	l, err := layout.Decompose(lc.Domain(), lc.BoxSize, lc.Periodic)
	if err != nil {
		return nil, nil, err
	}
	ld := layout.NewLevelData(l, kernel.NComp, kernel.NGhost)
	ld.FillFromFunction(1, field)
	ld.Exchange(lc.Threads)
	out := make([]*fab.FAB, len(l.Boxes))
	for i, b := range l.Boxes {
		out[i] = fab.New(b, kernel.NComp)
		if err := r.Run(ld.Fabs[i], out[i], b, lc.Threads); err != nil {
			return nil, nil, fmt.Errorf("box %d (%v): %w", i, b, err)
		}
	}
	return out, ld, nil
}

// CheckLevel runs the multi-box conformance properties of r on lc:
//
//   - differential: on every box of the exchanged level, r matches
//     kernel.Reference within maxULP (ghost cells filled by the real
//     periodic/non-periodic exchange, boxes ragged when BoxSize does not
//     divide the domain);
//   - translation: for the first periodic direction, initial data
//     shifted by one cell must produce the exactly shifted divergence
//     field through the exchange and the schedule — the metamorphic
//     invariance of the divergence under periodic wrap.
//
// It returns the first divergence or nil. Panics are reported as
// divergences, as in CheckBox.
func CheckLevel(r Runner, lc LevelCase, maxULP uint64) (dv *Divergence) {
	if r.TemporalK > 0 {
		// Level ghost exchanges fill only NGhost layers; a K-step sweep
		// needs K*NGhost. The deep-halo composition is covered by the
		// internal/dist temporal tests instead.
		return nil
	}
	lc = lc.Normalized()
	defer func() {
		if rec := recover(); rec != nil {
			dv = &Divergence{Runner: r.Name, Check: "panic", Level: &lc,
				Detail: fmt.Sprintf("executor panicked: %v", rec)}
		}
	}()
	field := levelField(lc)
	out, ld, err := runLevel(r, lc, field)
	if err != nil {
		return &Divergence{Runner: r.Name, Check: "execution", Level: &lc, Detail: err.Error()}
	}
	domain := lc.Domain()
	// Differential per box against the reference on the same exchanged
	// inputs; assemble the global divergence field for the translation
	// check as we go.
	global := fab.New(domain, kernel.NComp)
	for i, b := range ld.Layout.Boxes {
		want := fab.New(b, kernel.NComp)
		kernel.Reference(ld.Fabs[i], want, b)
		if w := compareFABs(out[i], want, b, maxULP); w.found {
			return &Divergence{Runner: r.Name, Check: "differential", Level: &lc,
				Detail: fmt.Sprintf("box %d (%v): %s", i, b, w.detail())}
		}
		global.CopyFrom(out[i], b)
	}

	dir := -1
	for d := 0; d < 3; d++ {
		if lc.Periodic[d] {
			dir = d
			break
		}
	}
	if dir < 0 {
		return nil
	}
	// Translated run: initial data shifted one cell along dir (the field
	// wraps, so this is a torus translation). Every cell's stencil then
	// reads bitwise the same values as its preimage, through whatever
	// box the exchange routes them, so the divergence must translate
	// exactly: D'(p) == D(wrap(p - e_dir)).
	shifted := func(p ivect.IntVect, c int) float64 { return field(p.Shift(dir, -1), c) }
	out2, ld2, err := runLevel(r, lc, shifted)
	if err != nil {
		return &Divergence{Runner: r.Name, Check: "execution (translated)", Level: &lc, Detail: err.Error()}
	}
	for i, b := range ld2.Layout.Boxes {
		got2 := out2[i]
		if w := worstOver(b, kernel.NComp, 0, func(p ivect.IntVect, c int) (float64, float64) {
			pre := wrapPoint(p.Shift(dir, -1), domain, lc.Periodic)
			return got2.Get(p, c), global.Get(pre, c)
		}); w.found {
			return &Divergence{Runner: r.Name, Check: "translation (periodic wrap)", Level: &lc,
				Detail: fmt.Sprintf("box %d (%v), shift dir %d: %s", i, b, dir, w.detail())}
		}
	}
	return nil
}
