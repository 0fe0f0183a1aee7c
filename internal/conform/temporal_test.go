package conform

import "testing"

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
// runner across K in {1,2,4} and threads in {1,4}, on a cube and on a
// shifted, padded 9x6x11 box.
func TestTemporalSweep(t *testing.T) {
	cases := []Case{
		{Seed: 11, Size: [3]int{8, 8, 8}, Warm: true},
		{Seed: 12, Lo: [3]int{-3, 5, 2}, Size: [3]int{9, 6, 11}, GhostPad: 1, OutPad: 1},
	}
	for _, k := range []int{1, 2, 4} {
		for _, r := range temporalRunners(t, k) {
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
