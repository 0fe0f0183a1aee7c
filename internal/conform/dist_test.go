package conform

import (
	"strings"
	"testing"
)

// TestDistAcceptanceMatrix pins the acceptance criterion: for one
// variant of each schedule family, every rank count in {1,2,4,8} and
// halo depth in {1,2,4}, the distributed run is bitwise identical to
// the single-level oracle and to the single-rank run.
func TestDistAcceptanceMatrix(t *testing.T) {
	families := []string{
		"Baseline-CLO: P>=Box",
		"Shift-Fuse-CLI: P<Box",
		"Blocked WF-CLO-8: P<Box",
		"Shift-Fuse OT-8: P>=Box",
	}
	for _, name := range families {
		r, ok := RunnerByName(name)
		if !ok {
			t.Fatalf("runner %q not registered", name)
		}
		vi, ok := studiedIndex(r)
		if !ok {
			t.Fatalf("runner %q has no studied index", name)
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			for _, haloK := range []int{1, 2, 4} {
				dc := DistCase{
					Seed:       17,
					DomainSize: [3]int{8, 8, 8},
					BoxSize:    4,
					Periodic:   [3]bool{true, true, true},
					Ranks:      ranks,
					HaloK:      haloK,
					Steps:      4,
					Threads:    2,
					VariantIdx: vi,
				}
				if dv := CheckDist(dc, 0); dv != nil {
					t.Fatalf("%s ranks=%d K=%d: %v", name, ranks, haloK, dv)
				}
			}
		}
	}
}

// TestDistNonPeriodicAndShuffle covers the physical-boundary clipping
// and the shuffled box-to-rank assignment.
func TestDistNonPeriodicAndShuffle(t *testing.T) {
	for _, dc := range []DistCase{
		{Seed: 3, DomainSize: [3]int{8, 12, 8}, BoxSize: 4,
			Periodic: [3]bool{false, false, false}, Ranks: 4, HaloK: 2, Steps: 3, Threads: 1, VariantIdx: 0},
		{Seed: 4, DomainSize: [3]int{10, 8, 9}, BoxSize: 3,
			Periodic: [3]bool{true, false, true}, Ranks: 6, HaloK: 3, Steps: 3, Threads: 2, VariantIdx: 5, Shuffle: true},
	} {
		if dv := CheckDist(dc, 0); dv != nil {
			t.Fatalf("case {%s}: %v", dc, dv)
		}
	}
}

func TestRandomDistCaseIsNormalized(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		dc := RandomDistCase(seed)
		if dc != dc.Normalized() {
			t.Fatalf("seed %d: RandomDistCase out of bounds: %+v vs %+v", seed, dc, dc.Normalized())
		}
	}
}

func TestDistShuffledAssignmentSurjective(t *testing.T) {
	dc := DistCase{Seed: 99, Shuffle: true}
	for _, geo := range []struct{ boxes, ranks int }{{8, 3}, {27, 8}, {5, 5}} {
		of := distAssign(dc, geo.boxes, geo.ranks)
		if of == nil {
			t.Fatalf("shuffle requested but assignment nil for %+v", geo)
		}
		seen := make([]bool, geo.ranks)
		for _, r := range of {
			seen[r] = true
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("%+v: rank %d owns no box after shuffle", geo, r)
			}
		}
	}
	if of := distAssign(DistCase{Seed: 99}, 8, 3); of != nil {
		t.Fatal("chunked case should defer to the default policy (nil)")
	}
}

// TestMinimizeDistOnPassingCase: the minimizer must report "no
// divergence" for a healthy case, not invent one.
func TestMinimizeDistOnPassingCase(t *testing.T) {
	dc := RandomDistCase(1)
	got, dv := MinimizeDist(dc, 0)
	if dv != nil {
		t.Fatalf("passing case minimized to a divergence: %v", dv)
	}
	if got != dc.Normalized() {
		t.Fatalf("passing case mutated by minimizer: %+v -> %+v", dc.Normalized(), got)
	}
}

// TestShrinkDistCandidatesShrink: every shrink candidate differs from
// its parent and survives normalization unchanged (so the greedy loop
// walks a finite lattice and terminates).
func TestShrinkDistCandidatesShrink(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		dc := RandomDistCase(seed)
		for _, cand := range shrinkDistCase(dc) {
			if cand == dc {
				t.Fatalf("seed %d: candidate identical to parent %+v", seed, dc)
			}
			if cand != cand.Normalized() {
				t.Fatalf("seed %d: candidate %+v not normalized", seed, cand)
			}
		}
	}
}

// TestDistDivergenceReproLine: a distributed divergence renders a
// single replayable repro line naming the runner and the full geometry.
func TestDistDivergenceReproLine(t *testing.T) {
	dc := RandomDistCase(8).Normalized()
	dv := &Divergence{
		Runner: dc.Variant().Name(),
		Check:  "differential (distributed)",
		Dist:   &dc,
		Detail: "synthetic",
	}
	line := dv.Error()
	for _, want := range []string{dc.Variant().Name(), "seed=", "ranks=", "halo_k=", "shuffle="} {
		if !strings.Contains(line, want) {
			t.Fatalf("repro line %q missing %q", line, want)
		}
	}
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("repro line is not one line: %q", line)
	}
}

// TestSweepCoversDist: the tier-1 sweep runs distributed cases for
// every variant runner and skips the generated and spectral ones.
func TestSweepCoversDist(t *testing.T) {
	// Indirect but cheap: count the checks a dist-less sweep loses.
	reg := Registry()
	variants := 0
	for _, r := range reg {
		if _, ok := studiedIndex(r); ok {
			variants++
		}
	}
	if variants == 0 || variants == len(reg) {
		t.Fatalf("registry split looks wrong: %d variant runners of %d", variants, len(reg))
	}
}

// FuzzDistConformance fuzzes the distributed runtime end to end: the
// fuzzer steers geometry, rank count, halo depth, schedule, and
// assignment shuffling; every case must match the oracle and the
// single-rank run bitwise. Failures are minimized to a one-line repro.
//
// Run with: go test ./internal/conform -fuzz=FuzzDistConformance
func FuzzDistConformance(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(0), false)
	f.Add(int64(2), uint8(2), uint8(2), uint8(7), true)
	f.Add(int64(3), uint8(4), uint8(3), uint8(16), false)
	f.Add(int64(4), uint8(8), uint8(4), uint8(24), true)
	f.Add(int64(5), uint8(5), uint8(2), uint8(31), true)

	f.Fuzz(func(t *testing.T, seed int64, ranks, haloK, variantIdx uint8, shuffle bool) {
		dc := RandomDistCase(seed)
		dc.Ranks = int(ranks)
		dc.HaloK = int(haloK)
		dc.VariantIdx = int(variantIdx)
		dc.Shuffle = shuffle
		dc = dc.Normalized()
		if dv := CheckDist(dc, 0); dv != nil {
			min, mdv := MinimizeDist(dc, 0)
			if mdv == nil {
				t.Fatalf("divergence (did not survive minimization): %v", dv)
			}
			t.Fatalf("divergence: %v\nminimized dist case: %+v", mdv, min)
		}
	})
}
