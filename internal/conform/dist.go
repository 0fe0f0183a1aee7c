package conform

import (
	"context"
	"fmt"
	"math/rand"

	"stencilsched/internal/box"
	"stencilsched/internal/dist"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
	"stencilsched/internal/sched"
)

// DistCase is one randomized distributed conformance geometry: a
// periodic/non-periodic domain decomposed into boxes, dealt to Ranks
// peers (chunked, or randomly shuffled when Shuffle is set), advanced
// Steps time steps with a HaloK-deep ghost exchange between supersteps.
type DistCase struct {
	Seed       int64   `json:"seed"`
	DomainSize [3]int  `json:"domain_size"`
	BoxSize    int     `json:"box_size"`
	Periodic   [3]bool `json:"periodic"`
	// Ranks is clamped to the layout's box count at check time (a rank
	// must own at least one box).
	Ranks int `json:"ranks"`
	// HaloK is the halo depth in kernel applications (1..4).
	HaloK int `json:"halo_k"`
	Steps int `json:"steps"`
	// Threads is the per-rank thread count.
	Threads int `json:"threads"`
	// VariantIdx indexes sched.Studied() — the on-node schedule under
	// test.
	VariantIdx int `json:"variant_idx"`
	// Shuffle randomizes the box-to-rank assignment (seeded by Seed)
	// instead of the chunked cluster.Assign policy.
	Shuffle bool `json:"shuffle"`
}

// Dist-case bounds. The domain floor of 8 keeps every halo depth K <= 4
// feasible in periodic directions (depth K*NGhost <= 8 <= edge); the
// ceiling keeps the three full runs per check (oracle, multi-rank,
// single-rank) cheap enough for the tier-1 sweep.
const (
	minDistDomainEdge = 8
	maxDistDomainEdge = 16
	maxDistBox        = 8
	// MaxDistRanks caps randomized rank counts (the acceptance matrix
	// runs {1,2,4,8}).
	MaxDistRanks = 8
	maxDistHaloK = 4
	maxDistSteps = 5
)

// Normalized clamps dc into the supported ranges.
func (dc DistCase) Normalized() DistCase {
	for d := 0; d < 3; d++ {
		dc.DomainSize[d] = clamp(dc.DomainSize[d], minDistDomainEdge, maxDistDomainEdge)
	}
	dc.BoxSize = clamp(dc.BoxSize, 2, maxDistBox)
	dc.Ranks = clamp(dc.Ranks, 1, MaxDistRanks)
	dc.HaloK = clamp(dc.HaloK, 1, maxDistHaloK)
	dc.Steps = clamp(dc.Steps, 1, maxDistSteps)
	dc.Threads = clamp(dc.Threads, 1, 4)
	n := len(sched.Studied())
	dc.VariantIdx = ((dc.VariantIdx % n) + n) % n
	return dc
}

// Variant returns the studied variant the case executes.
func (dc DistCase) Variant() sched.Variant { return sched.Studied()[dc.VariantIdx] }

// String renders the distributed geometry part of a repro line.
func (dc DistCase) String() string {
	return fmt.Sprintf("seed=%d domain=%dx%dx%d box=%d periodic=%v ranks=%d halo_k=%d steps=%d threads=%d variant_idx=%d shuffle=%v",
		dc.Seed, dc.DomainSize[0], dc.DomainSize[1], dc.DomainSize[2], dc.BoxSize,
		dc.Periodic, dc.Ranks, dc.HaloK, dc.Steps, dc.Threads, dc.VariantIdx, dc.Shuffle)
}

// RandomDistCase derives a distributed case deterministically from
// seed: mostly-periodic domains, box sizes that leave several boxes per
// rank or force rank clamping, every halo depth, and a shuffled
// assignment half the time.
func RandomDistCase(seed int64) DistCase {
	rnd := rand.New(rand.NewSource(seed))
	var dc DistCase
	dc.Seed = seed
	for d := 0; d < 3; d++ {
		dc.DomainSize[d] = minDistDomainEdge + rnd.Intn(maxDistDomainEdge-minDistDomainEdge+1)
		dc.Periodic[d] = rnd.Intn(3) > 0
	}
	dc.BoxSize = 2 + rnd.Intn(maxDistBox-1)
	dc.Ranks = 1 + rnd.Intn(MaxDistRanks)
	dc.HaloK = 1 + rnd.Intn(maxDistHaloK)
	dc.Steps = 1 + rnd.Intn(maxDistSteps)
	dc.Threads = 1 + rnd.Intn(4)
	dc.VariantIdx = rnd.Intn(len(sched.Studied()))
	dc.Shuffle = rnd.Intn(2) == 0
	return dc
}

// distDt is the time-step of the distributed differential check:
// 1/64 is exact in binary floating point, so the explicit update
// phi -= dt*divF introduces no rounding asymmetry between runs.
const distDt = 1.0 / 64

// distField is the deterministic initial condition (valid cells only;
// same hash family as the level checks).
func distField(dc DistCase) func(p ivect.IntVect, c int) float64 {
	return func(p ivect.IntVect, c int) float64 {
		return hashValue(dc.Seed, p, c)
	}
}

// distAssign derives the case's box-to-rank assignment: chunked, or a
// seeded shuffle of the chunked deal (which preserves surjectivity —
// every rank keeps owning at least one box... a multiset permutation).
func distAssign(dc DistCase, numBoxes, ranks int) []int {
	if !dc.Shuffle || ranks <= 1 {
		return nil // dist defaults to the chunked cluster.Assign policy
	}
	of := make([]int, numBoxes)
	for i := range of {
		of[i] = i * ranks / numBoxes
	}
	rnd := rand.New(rand.NewSource(dc.Seed ^ 0x5eed))
	rnd.Shuffle(numBoxes, func(i, j int) { of[i], of[j] = of[j], of[i] })
	return of
}

// referenceAdvance is the distributed oracle: the same Steps explicit
// updates computed on a single in-process level with the standard
// per-step NGhost exchange and the Figure 6 reference kernel — no
// variants, no deep halos, no wire. Physical-boundary ghost cells stay
// zero, the same convention dist uses.
func referenceAdvance(l *layout.Layout, field func(ivect.IntVect, int) float64, steps, threads int) *layout.LevelData {
	ld := layout.NewLevelData(l, kernel.NComp, kernel.NGhost)
	ld.FillFromFunction(1, field)
	accs := make([]*fab.FAB, len(l.Boxes))
	for i, b := range l.Boxes {
		accs[i] = fab.New(b, kernel.NComp)
	}
	for s := 0; s < steps; s++ {
		ld.Exchange(threads)
		for i, b := range l.Boxes {
			accs[i].Fill(0)
			kernel.Reference(ld.Fabs[i], accs[i], b)
			ld.Fabs[i].Plus(accs[i], b, -distDt)
		}
	}
	return ld
}

// gatherSentinel assembles per-box results into a sentinel-filled
// domain FAB with a one-cell guard ring: any box a run failed to
// produce stays sentinel (and diverges from the oracle), and the ring
// must survive untouched.
func gatherSentinel(l *layout.Layout, fabs []*fab.FAB) *fab.FAB {
	g := fab.New(l.Domain.Grow(1), kernel.NComp)
	g.Fill(sentinel)
	for i, b := range l.Boxes {
		if fabs[i] != nil {
			g.CopyFrom(fabs[i], b)
		}
	}
	return g
}

// CheckDist runs the distributed conformance properties of dc:
//
//   - differential: a Ranks-peer loopback run (every frame through the
//     wire codec) matches the kernel.Reference single-level oracle
//     bitwise on every valid cell, for any halo depth K — deep-halo
//     recomputation must reproduce exchanged ghosts bit for bit;
//   - equivalence: the multi-rank run matches the single-rank run of
//     the same config bitwise — rank count and box placement are pure
//     schedule, never values;
//   - coverage: results assemble into a sentinel-guarded domain with
//     no box missing and the guard ring untouched.
//
// It returns the first divergence or nil; panics are reported as
// divergences like the box and level checks.
func CheckDist(dc DistCase, maxULP uint64) (dv *Divergence) {
	dc = dc.Normalized()
	v := dc.Variant()
	defer func() {
		if rec := recover(); rec != nil {
			dv = &Divergence{Runner: v.Name(), Check: "panic", Dist: &dc,
				Detail: fmt.Sprintf("distributed run panicked: %v", rec)}
		}
	}()
	domain := box.NewSized(ivect.Zero, ivect.New(dc.DomainSize[0], dc.DomainSize[1], dc.DomainSize[2]))
	l, err := layout.Decompose(domain, dc.BoxSize, dc.Periodic)
	if err != nil {
		return &Divergence{Runner: v.Name(), Check: "execution", Dist: &dc, Detail: err.Error()}
	}
	ranks := dc.Ranks
	if n := l.NumBoxes(); ranks > n {
		ranks = n
	}
	field := distField(dc)
	cfg := dist.Config{
		Layout:  l,
		Ranks:   ranks,
		Assign:  distAssign(dc, l.NumBoxes(), ranks),
		Variant: v,
		HaloK:   dc.HaloK,
		Steps:   dc.Steps,
		Dt:      distDt,
		Threads: dc.Threads,
		Init:    fab.PointRows(field),
	}
	multi, err := dist.RunLoopback(context.Background(), cfg)
	if err != nil {
		return &Divergence{Runner: v.Name(), Check: "execution (multi-rank)", Dist: &dc, Detail: err.Error()}
	}
	defer multi.Release()

	// Differential vs the reference oracle, through the sentinel gather.
	oracle := referenceAdvance(l, field, dc.Steps, dc.Threads)
	got := gatherSentinel(l, multi.Fabs)
	want := gatherSentinel(l, oracle.Fabs)
	if w := compareFABs(got, want, l.Domain.Grow(1), maxULP); w.found {
		return &Divergence{Runner: v.Name(), Check: "differential (distributed)", Dist: &dc, Detail: w.detail()}
	}

	// Multi-rank vs single-rank, bitwise: same config, one peer.
	if ranks > 1 {
		single := cfg
		single.Ranks = 1
		single.Assign = nil
		sres, err := dist.RunLoopback(context.Background(), single)
		if err != nil {
			return &Divergence{Runner: v.Name(), Check: "execution (single-rank)", Dist: &dc, Detail: err.Error()}
		}
		defer sres.Release()
		sgot := gatherSentinel(l, sres.Fabs)
		if w := compareFABs(got, sgot, l.Domain.Grow(1), 0); w.found {
			return &Divergence{Runner: v.Name(), Check: "determinism (ranks)", Dist: &dc, Detail: w.detail()}
		}
	}
	return nil
}

// MinimizeDist greedily shrinks a failing distributed case, keeping the
// variant fixed (it identifies the runner) and the seed fixed (the
// repro stays replayable).
func MinimizeDist(dc DistCase, maxULP uint64) (DistCase, *Divergence) {
	return minimize(dc, DistCase.Normalized, shrinkDistCase, func(c DistCase) *Divergence { return CheckDist(c, maxULP) })
}

func shrinkDistCase(dc DistCase) []DistCase {
	var out []DistCase
	add := func(n DistCase) {
		if n != dc {
			out = append(out, n)
		}
	}
	for d := 0; d < 3; d++ {
		if dc.DomainSize[d] > minDistDomainEdge {
			n := dc
			n.DomainSize[d] = max(minDistDomainEdge, dc.DomainSize[d]/2)
			add(n)
			n = dc
			n.DomainSize[d]--
			add(n)
		}
		if dc.Periodic[d] {
			n := dc
			n.Periodic[d] = false
			add(n)
		}
	}
	if dc.BoxSize < maxDistBox {
		// Larger boxes -> fewer boxes -> fewer ranks after clamping: the
		// simpler repro, and a monotone direction.
		n := dc
		n.BoxSize = maxDistBox
		add(n)
		n = dc
		n.BoxSize++
		add(n)
	}
	if dc.Ranks > 1 {
		n := dc
		n.Ranks = dc.Ranks / 2
		add(n)
		n = dc
		n.Ranks--
		add(n)
	}
	if dc.HaloK > 1 {
		n := dc
		n.HaloK = 1
		add(n)
		n = dc
		n.HaloK--
		add(n)
	}
	if dc.Steps > 1 {
		n := dc
		n.Steps = dc.Steps / 2
		add(n)
	}
	if dc.Threads > 1 {
		n := dc
		n.Threads = 1
		add(n)
	}
	if dc.Shuffle {
		n := dc
		n.Shuffle = false
		add(n)
	}
	return out
}
