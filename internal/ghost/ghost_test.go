package ghost

import (
	"errors"
	"math"
	"testing"
)

func TestRatioKnownValues(t *testing.T) {
	cases := []struct {
		n, dim, g int
		want      float64
	}{
		{16, 3, 2, math.Pow(1.25, 3)},
		{128, 3, 2, math.Pow(1.03125, 3)},
		{64, 3, 5, math.Pow(1+10.0/64, 3)},
		{16, 4, 5, math.Pow(1+10.0/16, 4)},
	}
	for _, c := range cases {
		if got := Ratio(c.n, c.dim, c.g); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Ratio(%d,%d,%d) = %v, want %v", c.n, c.dim, c.g, got, c.want)
		}
	}
	// No ghosts: ratio is exactly 1 regardless of box size.
	if Ratio(7, 3, 0) != 1 {
		t.Error("Ratio with zero ghosts != 1")
	}
}

func TestRatioPanics(t *testing.T) {
	for _, c := range [][3]int{{0, 3, 2}, {8, 0, 2}, {8, 3, -1}} {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Ratio%v did not panic", c)
				}
			}()
			Ratio(c[0], c[1], c[2])
		}()
	}
}

func TestRatioMonotonicity(t *testing.T) {
	// Decreasing in box size, increasing in dimension and ghosts.
	for n := 2; n < 128; n++ {
		if !(Ratio(n, 3, 2) > Ratio(n+1, 3, 2)) {
			t.Fatalf("ratio not decreasing in n at %d", n)
		}
	}
	if !(Ratio(16, 4, 2) > Ratio(16, 3, 2)) {
		t.Error("ratio not increasing in dim")
	}
	if !(Ratio(16, 3, 5) > Ratio(16, 3, 2)) {
		t.Error("ratio not increasing in ghosts")
	}
}

func TestPaperClaimFiveGhostsNeedBox64(t *testing.T) {
	// Section I: "Given five ghosts, a box size of 64 is necessary to get
	// the ratio below 2.0" (in 3-D).
	if got := MinBoxForRatio(2.0, 3, 5); got > 64 || got <= 32 {
		t.Fatalf("MinBoxForRatio(2,3,5) = %d, want in (32, 64]", got)
	}
	if Ratio(64, 3, 5) > 2.0 {
		t.Error("ratio at 64 should be under 2.0")
	}
	if Ratio(32, 3, 5) <= 2.0 {
		t.Error("ratio at 32 should exceed 2.0")
	}
}

func TestMinBoxForRatioIsMinimal(t *testing.T) {
	for _, c := range []struct {
		target float64
		dim, g int
	}{
		{2.0, 3, 2}, {2.0, 3, 5}, {1.5, 4, 2}, {3.0, 4, 5}, {1.1, 3, 2},
	} {
		n := MinBoxForRatio(c.target, c.dim, c.g)
		if Ratio(n, c.dim, c.g) > c.target {
			t.Errorf("MinBoxForRatio(%v,%d,%d) = %d does not meet target", c.target, c.dim, c.g, n)
		}
		if n > 1 && Ratio(n-1, c.dim, c.g) <= c.target {
			t.Errorf("MinBoxForRatio(%v,%d,%d) = %d not minimal", c.target, c.dim, c.g, n)
		}
	}
}

func TestGhostFraction(t *testing.T) {
	// 16^3 with 2 ghosts: ghosts are 20^3-16^3 of 20^3.
	want := 1 - 16.0*16*16/(20.0*20*20)
	if got := GhostFraction(16, 3, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("GhostFraction = %v, want %v", got, want)
	}
}

func TestFig1Series(t *testing.T) {
	series := Fig1Series()
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.N) != 4 || len(s.Ratio) != 4 {
			t.Fatalf("series %+v has wrong lengths", s)
		}
		for i := 1; i < len(s.Ratio); i++ {
			if s.Ratio[i] >= s.Ratio[i-1] {
				t.Fatalf("series dim=%d g=%d not decreasing", s.Dim, s.NGhost)
			}
		}
	}
	// The extreme curve (4-D, 5 ghosts) starts near (1+10/16)^4 ~ 7.
	if series[3].Ratio[0] < 6 {
		t.Errorf("4D/5ghost ratio at 16 = %v", series[3].Ratio[0])
	}
}

// deepHalo is DeepHaloStats for arguments a test knows to be valid.
func deepHalo(t *testing.T, n, dim, nghost, k int) DeepHalo {
	t.Helper()
	dh, err := DeepHaloStats(n, dim, nghost, k)
	if err != nil {
		t.Fatalf("DeepHaloStats(%d, %d, %d, %d): %v", n, dim, nghost, k, err)
	}
	return dh
}

func TestDeepHaloStats(t *testing.T) {
	base := deepHalo(t, 32, 3, 2, 1)
	if base.K != 1 || base.Depth != 2 {
		t.Fatalf("base %+v", base)
	}
	if base.MessagesPerStep != 1 || base.BytesPerStep != 1 || base.RecomputePerStep != 1 {
		t.Fatalf("K=1 must be the unit baseline: %+v", base)
	}
	if base.Ratio != Ratio(32, 3, 2) {
		t.Fatalf("K=1 ratio %v != Ratio %v", base.Ratio, Ratio(32, 3, 2))
	}

	prev := base
	for k := 2; k <= 4; k++ {
		dh := deepHalo(t, 32, 3, 2, k)
		if dh.Depth != 2*k {
			t.Fatalf("K=%d depth %d", k, dh.Depth)
		}
		if dh.MessagesPerStep != 1/float64(k) {
			t.Fatalf("K=%d messages/step %v", k, dh.MessagesPerStep)
		}
		// Deeper halos: more memory, fewer messages, more bytes per
		// exchange than the per-step baseline share, more recompute.
		if dh.Ratio <= prev.Ratio {
			t.Fatalf("K=%d ratio %v not above K=%d's %v", k, dh.Ratio, prev.K, prev.Ratio)
		}
		if dh.BytesPerStep <= dh.MessagesPerStep {
			t.Fatalf("K=%d bytes/step %v should exceed 1/K (halo volume is superlinear)", k, dh.BytesPerStep)
		}
		if dh.BytesPerStep >= 2 {
			t.Fatalf("K=%d bytes/step %v implausibly large for 32^3", k, dh.BytesPerStep)
		}
		if dh.RecomputePerStep <= prev.RecomputePerStep {
			t.Fatalf("K=%d recompute %v not above K=%d's %v", k, dh.RecomputePerStep, prev.K, prev.RecomputePerStep)
		}
		prev = dh
	}

	// Exact hand value: n=4, dim=1, g=1, k=2. Sub-steps compute extents
	// 6 and 4 -> (6+4)/(2*4) = 1.25; halo(2)/2*halo(1) = 4/(2*2) = 1.
	dh := deepHalo(t, 4, 1, 1, 2)
	if dh.RecomputePerStep != 1.25 {
		t.Fatalf("recompute %v, want 1.25", dh.RecomputePerStep)
	}
	if dh.BytesPerStep != 1 {
		t.Fatalf("1-D bytes/step %v, want 1 (linear halo growth)", dh.BytesPerStep)
	}
}

func TestDeepHaloStatsErrors(t *testing.T) {
	for _, c := range []struct{ n, dim, nghost, k int }{
		{32, 3, 2, 0},
		{0, 3, 2, 1},
	} {
		if _, err := DeepHaloStats(c.n, c.dim, c.nghost, c.k); err == nil {
			t.Errorf("DeepHaloStats(%d, %d, %d, %d): no error", c.n, c.dim, c.nghost, c.k)
		}
	}
	if _, err := DeepHaloStats(8, 3, 2, 5); !errors.Is(err, ErrHaloTooDeep) {
		t.Errorf("over-deep halo: err %v, want ErrHaloTooDeep", err)
	}
}

// TestDeepHaloStatsBoundary table-tests the k ~= n boundary: the
// deepest valid superstep is k*nghost == n, one step further is a typed
// ErrHaloTooDeep, and out-of-range arguments are plain errors.
func TestDeepHaloStatsBoundary(t *testing.T) {
	cases := []struct {
		n, dim, nghost, k int
		wantErr           error
		wantAnyErr        bool
	}{
		{n: 8, dim: 3, nghost: 2, k: 3},                          // depth 6 < 8
		{n: 8, dim: 3, nghost: 2, k: 4},                          // depth 8 == 8: deepest valid
		{n: 8, dim: 3, nghost: 2, k: 5, wantErr: ErrHaloTooDeep}, // depth 10 > 8
		{n: 4, dim: 3, nghost: 2, k: 2},                          // k == n/nghost exactly
		{n: 4, dim: 3, nghost: 2, k: 3, wantErr: ErrHaloTooDeep}, // smallest over-deep k
		{n: 5, dim: 3, nghost: 2, k: 2},                          // depth 4 < 5 (non-divisible)
		{n: 5, dim: 3, nghost: 2, k: 3, wantErr: ErrHaloTooDeep}, // depth 6 > 5
		{n: 2, dim: 1, nghost: 1, k: 2},                          // tiny box at the edge
		{n: 2, dim: 1, nghost: 1, k: 3, wantErr: ErrHaloTooDeep}, // tiny box over the edge
		{n: 8, dim: 3, nghost: 0, k: 100},                        // no ghosts: any k is fine
		{n: 8, dim: 3, nghost: 2, k: 0, wantAnyErr: true},        // bad k
		{n: 0, dim: 3, nghost: 2, k: 1, wantAnyErr: true},        // bad n
		{n: 8, dim: 0, nghost: 2, k: 1, wantAnyErr: true},        // bad dim
		{n: 8, dim: 3, nghost: -1, k: 1, wantAnyErr: true},       // bad nghost
	}
	for _, c := range cases {
		dh, err := DeepHaloStats(c.n, c.dim, c.nghost, c.k)
		switch {
		case c.wantErr != nil:
			if !errors.Is(err, c.wantErr) {
				t.Errorf("n=%d nghost=%d k=%d: err %v, want %v", c.n, c.nghost, c.k, err, c.wantErr)
			}
		case c.wantAnyErr:
			if err == nil {
				t.Errorf("n=%d dim=%d nghost=%d k=%d: no error", c.n, c.dim, c.nghost, c.k)
			}
			if errors.Is(err, ErrHaloTooDeep) {
				t.Errorf("n=%d dim=%d nghost=%d k=%d: mislabeled as ErrHaloTooDeep: %v", c.n, c.dim, c.nghost, c.k, err)
			}
		default:
			if err != nil {
				t.Errorf("n=%d nghost=%d k=%d: unexpected error %v", c.n, c.nghost, c.k, err)
			}
			if err == nil && (dh.Depth != c.k*c.nghost || dh.K != c.k) {
				t.Errorf("n=%d nghost=%d k=%d: stats %+v", c.n, c.nghost, c.k, dh)
			}
		}
	}
}
