package perfmodel

import (
	"math"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/kernel"
	"stencilsched/internal/machine"
	"stencilsched/internal/scratch"
	"stencilsched/internal/variants/generated"
)

func TestTemporalWorkingSetGrowsWithK(t *testing.T) {
	prev := int64(0)
	for k := 1; k <= 4; k++ {
		ws := TemporalWorkingSetBytes(48, 16, k)
		if ws <= prev {
			t.Errorf("K=%d working set %d not above K=%d's %d", k, ws, k-1, prev)
		}
		prev = ws
	}
	// Whole-box and clamped tile agree.
	if TemporalWorkingSetBytes(24, 0, 2) != TemporalWorkingSetBytes(24, 24, 2) {
		t.Error("tile<=0 does not clamp to the whole box")
	}
	if TemporalWorkingSetBytes(24, 99, 2) != TemporalWorkingSetBytes(24, 24, 2) {
		t.Error("oversized tile does not clamp to the box")
	}
}

func TestTemporalRecomputeFactor(t *testing.T) {
	if rf := TemporalTrafficBytes(48, 16, 1, machine.IvyBridgeDesktop(), 1).RecomputeFactor; rf != 1 {
		t.Errorf("K=1 recompute factor = %v, want exactly 1", rf)
	}
	// Deeper K recomputes more; bigger tiles amortize it.
	desk := machine.IvyBridgeDesktop()
	r2 := TemporalTrafficBytes(48, 16, 2, desk, 1).RecomputeFactor
	r4 := TemporalTrafficBytes(48, 16, 4, desk, 1).RecomputeFactor
	if !(1 < r2 && r2 < r4) {
		t.Errorf("recompute factors not increasing with K: r2=%v r4=%v", r2, r4)
	}
	r2big := TemporalTrafficBytes(48, 48, 2, desk, 1).RecomputeFactor
	if r2big >= r2 {
		t.Errorf("whole-box recompute %v not below tile-16's %v", r2big, r2)
	}
}

// TestTemporalPerStepTrafficDropsWithKWhenFitting pins the core trade
// the model exists to expose: at a tile whose K-step working set fits
// the cache share, the K-deep sweep streams the state once for K Euler
// steps, so modeled per-step DRAM bytes fall as K grows even though the
// whole-sweep bytes rise.
func TestTemporalPerStepTrafficDropsWithKWhenFitting(t *testing.T) {
	desk := machine.IvyBridgeDesktop()
	share := cacheShareBytes(desk, 1)
	prev := TemporalTraffic{}
	for k := 1; k <= 4; k *= 2 {
		tr := TemporalTrafficBytes(96, 16, k, desk, 1)
		if ws := TemporalWorkingSetBytes(96, 16, k); ws > share {
			t.Fatalf("K=%d tile-16 working set %d spills the %d share; pick a smaller tile", k, ws, share)
		}
		if !tr.Fits {
			t.Fatalf("K=%d: Fits=false for a fitting tile", k)
		}
		if k > 1 {
			if tr.BytesPerStep >= prev.BytesPerStep {
				t.Errorf("K=%d per-step bytes %d not below K=%d's %d",
					k, tr.BytesPerStep, k/2, prev.BytesPerStep)
			}
			if tr.SweepBytes <= prev.SweepBytes {
				t.Errorf("K=%d sweep bytes %d not above K=%d's %d",
					k, tr.SweepBytes, k/2, prev.SweepBytes)
			}
		}
		prev = tr
	}
}

// TestTemporalSpillKillsTheWin pins the other half of the trade: when
// the per-tile working set outgrows the share (whole-box tiling at a
// large N), deeper K stops paying — per-step traffic at K=4 is no
// better than the fitting-tile configuration, and the spill is flagged.
func TestTemporalSpillKillsTheWin(t *testing.T) {
	desk := machine.IvyBridgeDesktop()
	spilled := TemporalTrafficBytes(96, 0, 4, desk, 1)
	if spilled.Fits {
		t.Fatal("whole-box 96^3 K=4 working set reported as fitting")
	}
	fitting := TemporalTrafficBytes(96, 16, 4, desk, 1)
	if spilled.BytesPerStep <= fitting.BytesPerStep {
		t.Errorf("spilled whole-box per-step bytes %d not above fitting tile-16's %d",
			spilled.BytesPerStep, fitting.BytesPerStep)
	}
}

// TestTemporalTrafficPrefersDeepKOnFittingTiles pins the traffic ordering
// at 96^3 on the desktop: the whole box spills, while 16^3 tiles keep
// even K=4 in the cache share, and there per-step bytes fall with K
// below the K=1 whole-box baseline.
func TestTemporalTrafficPrefersDeepKOnFittingTiles(t *testing.T) {
	desk := machine.IvyBridgeDesktop()
	deep := TemporalTrafficBytes(96, 16, 4, desk, 1)
	if !deep.Fits {
		t.Errorf("16^3-tile K=4 working set does not fit the cache share")
	}
	for _, c := range []struct{ tile, k int }{{16, 1}, {16, 2}, {0, 1}} {
		if tr := TemporalTrafficBytes(96, c.tile, c.k, desk, 1); deep.BytesPerStep >= tr.BytesPerStep {
			t.Errorf("16^3-tile K=4 per-step bytes %d not below tile=%d K=%d's %d",
				deep.BytesPerStep, c.tile, c.k, tr.BytesPerStep)
		}
	}
}

func TestTemporalTrafficBytesPanicsOnBadArgs(t *testing.T) {
	for _, c := range []struct{ n, k int }{{0, 1}, {16, 0}, {-3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d k=%d did not panic", c.n, c.k)
				}
			}()
			TemporalTrafficBytes(c.n, 8, c.k, machine.IvyBridgeDesktop(), 1)
		}()
	}
}

// TestTemporalWorkingSetMatchesArenaPeak pins the modeled working set to
// what the generated runner actually draws from its arena — the benchmark's
// geometry, 48^3 in 32^3 tiles at K=2 — so the model and the schedule
// description cannot drift apart.
func TestTemporalWorkingSetMatchesArenaPeak(t *testing.T) {
	const n, tile, k = 48, 32, 2
	saved := scratch.Default
	scratch.Default = scratch.NewPool() // a pool whose only arena is the runner's
	defer func() { scratch.Default = saved }()
	valid := box.Cube(n)
	phi0 := fab.New(valid.Grow(k*kernel.NGhost), kernel.NComp)
	phi1 := fab.New(valid, kernel.NComp)
	if err := generated.RunTemporalK2OT32(phi0, phi1, valid, 1); err != nil {
		t.Fatal(err)
	}
	peak := scratch.Default.Checkout().PeakBytes()
	model := TemporalWorkingSetBytes(n, tile, k)
	if math.Abs(float64(model-peak)) > 0.1*float64(peak) {
		t.Errorf("modeled working set %d B, arena high-water mark %d B: more than 10%% apart", model, peak)

	}
}
