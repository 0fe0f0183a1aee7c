package conform

import "testing"

// TestTemporalSweep runs the full single-box conformance property set
// (differential vs the K-step composition, sentinel guards, warm and
// thread determinism, rho linearity) for every registered temporal
// runner, whatever its K, on threads in {1,4}, on a cube and on a
// shifted, padded 9x6x11 box. Spectral runners carry TemporalK too, but
// require frozen velocities and tolerance-mode comparison — they have
// their own periodic sweep (see tolerance_test.go), not this bitwise one.
func TestTemporalSweep(t *testing.T) {
	cases := []Case{
		{Seed: 11, Size: [3]int{8, 8, 8}, Warm: true},
		{Seed: 12, Lo: [3]int{-3, 5, 2}, Size: [3]int{9, 6, 11}, GhostPad: 1, OutPad: 1},
	}
	checked := 0
	for _, r := range Registry() {
		if r.TemporalK == 0 || r.Spectral {
			continue
		}
		checked++
		for _, threads := range []int{1, 4} {
			for _, c := range cases {
				c.Threads = threads
				if dv := CheckBox(r, c, 0); dv != nil {
					t.Errorf("K=%d threads=%d: %v", r.TemporalK, threads, dv)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no registered temporal runners")
	}
}
