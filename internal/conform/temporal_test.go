package conform

import (
	"fmt"
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/codegen"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/variants/generated"
)

// temporalRunners returns every registered runner fusing k Euler steps.
func temporalRunners(t *testing.T, k int) []Runner {
	t.Helper()
	var rs []Runner
	for _, r := range Registry() {
		// Spectral runners carry TemporalK too, but require frozen
		// velocities and tolerance-mode comparison — they have their own
		// periodic sweep (see tolerance_test.go), not this bitwise one.
		if r.TemporalK == k && !r.Spectral {
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		t.Fatalf("no registered temporal runners for K=%d", k)
	}
	return rs
}

// TestTemporalSweep runs the full single-box conformance property set
// (differential vs the K-step composition, sentinel guards, warm and
// thread determinism, rho linearity) for every registered temporal
// runner across K in {1,2,4} and threads in {1,4}. The deeper
// interpreted schedules, too slow for the per-build registry, are
// exercised here on small boxes.
func TestTemporalSweep(t *testing.T) {
	cases := []Case{
		{Seed: 11, Size: [3]int{8, 8, 8}, Warm: true},
		{Seed: 12, Lo: [3]int{-3, 5, 2}, Size: [3]int{9, 6, 11}, GhostPad: 1, OutPad: 1},
	}
	for _, k := range []int{1, 2, 4} {
		runners := temporalRunners(t, k)
		if k > 1 {
			// Interpreted K2/K4 live only in this test (see Registry).
			runners = append(runners, Runner{
				Name:        fmt.Sprintf("Temporal K%d (interpreted)", k),
				Interpreted: true,
				TemporalK:   k,
				Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
					return codegen.RunTemporalInterpreted(phi0, phi1, valid, k)
				},
			})
		}
		for _, r := range runners {
			for _, threads := range []int{1, 4} {
				for _, c := range cases {
					c.Threads = threads
					if dv := CheckBox(r, c, 0); dv != nil {
						t.Errorf("K=%d threads=%d: %v", k, threads, dv)
					}
				}
			}
		}
	}
}

// TestTemporalGeneratedMatchesInterpreted pins the schedc-generated
// temporal runners (all tile edges) bitwise against the interpreted time-domain schedule — not just both-against-oracle,
// but output-slice against output-slice — across K in {1,2,4} and
// threads in {1,4}.
func TestTemporalGeneratedMatchesInterpreted(t *testing.T) {
	valid := box.NewSized(ivect.New(-2, 1, 3), ivect.New(9, 7, 10))
	for _, k := range []int{1, 2, 4} {
		phi0 := fab.New(valid.Grow(k*kernel.NGhost), kernel.NComp)
		phi0.Randomize(rand.New(rand.NewSource(int64(40+k))), 0.25, 1.75)
		interp := fab.New(valid, kernel.NComp)
		if err := codegen.RunTemporalInterpreted(phi0, interp, valid, k); err != nil {
			t.Fatalf("interpreted K=%d: %v", k, err)
		}
		check := func(name string, run func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error) {
			for _, threads := range []int{1, 4} {
				got := fab.New(valid, kernel.NComp)
				if err := run(phi0, got, valid, threads); err != nil {
					t.Errorf("%s K=%d threads=%d: %v", name, k, threads, err)
					return
				}
				if d, at, c := got.MaxDiff(interp, valid); d != 0 {
					t.Errorf("%s K=%d threads=%d: diverges from interpreted at %v comp %d by %g",
						name, k, threads, at, c, d)
				}
			}
		}
		for _, e := range generated.Entries() {
			if e.TemporalK == k {
				check(e.Name, e.Run)
			}
		}
	}
}
