package variants

import (
	"fmt"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
	"stencilsched/internal/tiling"
)

// fusedExecutors are the four schedules the shared sweep serves, called
// below Exec so that tile shapes outside the studied sizes (one cell wide,
// one cell) reach the row kernel too. Overlapped tiles are CLO by
// definition and ignore comp.
var fusedExecutors = []struct {
	name  string
	tiled bool
	run   func(s *state, comp sched.CompLoop, shape ivect.IntVect, threads int, ar *scratch.Arena) Stats
}{
	{"serial", false, func(s *state, comp sched.CompLoop, _ ivect.IntVect, threads int, ar *scratch.Arena) Stats {
		return execShiftFuse(s, comp, false, threads, ar)
	}},
	{"cell-wavefront", false, func(s *state, comp sched.CompLoop, _ ivect.IntVect, threads int, ar *scratch.Arena) Stats {
		return execShiftFuse(s, comp, true, threads, ar)
	}},
	{"blocked-wavefront", true, execBlockedWF},
	{"overlapped", true, func(s *state, _ sched.CompLoop, shape ivect.IntVect, threads int, ar *scratch.Arena) Stats {
		return execOverlapped(s, sched.FusedSched, shape, threads, ar)
	}},
}

// TestFusedSweepBitwiseEqualReference drives the row kernel through every
// schedule that uses it, over the box and tile geometries where its
// hoisting could go wrong: a non-zero Lo (cache indices are relative),
// non-cubic and remainder tiles (rows shorter than the cache rows), tiles
// and regions one cell wide (the x loop runs once, every row is seeded in
// x), and both component-loop placements.
func TestFusedSweepBitwiseEqualReference(t *testing.T) {
	cases := []struct {
		b      box.Box
		shapes []ivect.IntVect
	}{
		{box.NewSized(ivect.New(-3, 5, 2), ivect.Uniform(20)), // 20^3: tile 16 leaves remainders of 4
			[]ivect.IntVect{ivect.Uniform(16), ivect.New(32, 8, 4), ivect.New(1, 4, 4), ivect.New(4, 1, 1), ivect.Uniform(1)}},
		{box.NewSized(ivect.New(7, -9, 4), ivect.Uniform(48)), // 48^3: tile 32 leaves remainders of 16
			[]ivect.IntVect{ivect.Uniform(32), ivect.New(32, 8, 4)}},
		{box.NewSized(ivect.New(2, 0, -6), ivect.New(1, 6, 5)), // nx == 1
			[]ivect.IntVect{ivect.Uniform(4), ivect.Uniform(1)}},
		{box.NewSized(ivect.New(0, 3, 1), ivect.New(5, 1, 4)), // ny == 1
			[]ivect.IntVect{ivect.New(4, 4, 2)}},
	}
	ar := scratch.Default.Checkout()
	defer scratch.Default.Checkin(ar)
	for ci, cse := range cases {
		b := cse.b
		phi0, want := makeState(b, int64(900+ci))
		kernel.Reference(phi0, want, b)
		phi1 := fab.New(b, kernel.NComp)
		s := newState(phi0, phi1, b)
		for _, ex := range fusedExecutors {
			shapes := cse.shapes
			if !ex.tiled {
				shapes = shapes[:1] // untiled: the shape is not read
			}
			for _, shape := range shapes {
				for _, comp := range []sched.CompLoop{sched.CLO, sched.CLI} {
					for _, threads := range []int{1, 2} {
						phi1.Fill(0)
						ar.Reset()
						ex.run(s, comp, shape, threads, ar)
						if d, at, c := phi1.MaxDiff(want, b); d != 0 {
							t.Errorf("box %v, %s tile %v %s threads=%d: diff %g at %v comp %d",
								b, ex.name, shape, comp, threads, d, at, c)
						}
					}
				}
			}
		}
	}
}

// TestFusedSweepSteadyStateAllocs pins the fused families' per-row and
// per-tile work at zero heap allocations once the arena is warm: the
// whole serial schedule, and everything the overlapped and
// blocked-wavefront schedules do per tile. (Their per-execution set-up —
// the tile decomposition and the worker closure — allocates as before and
// goes through sync.Pools, which the race detector makes lossy; it is not
// measured here.)
func TestFusedSweepSteadyStateAllocs(t *testing.T) {
	b := box.NewSized(ivect.New(1, 2, 3), ivect.Uniform(20))
	phi0, phi1 := makeState(b, 5)
	s := newState(phi0, phi1, b)
	dec := tiling.DecomposeVect(b, ivect.Uniform(16))
	ar := scratch.Default.Checkout()
	defer scratch.Default.Checkin(ar)

	check := func(name string, fn func()) {
		t.Helper()
		fn() // warm the arena
		if n := testing.AllocsPerRun(10, fn); n != 0 {
			t.Errorf("%s: %v allocs per run in steady state, want 0", name, n)
		}
	}
	for _, comp := range []sched.CompLoop{sched.CLO, sched.CLI} {
		check(fmt.Sprintf("serial %s", comp), func() {
			ar.Reset()
			execShiftFuse(s, comp, false, 1, ar)
		})
	}
	check("overlapped tiles", func() {
		for _, tile := range dec.Tiles {
			ar.Reset()
			f := newFusedSweep(s, velocityField(s, tile.Cells, 1, ar), tile.Cells, 1, false, ar)
			f.run(tile.Cells)
		}
	})
	ar.Reset()
	f := newFusedSweep(s, velocityField(s, b, 1, ar), b, kernel.NComp, true, ar)
	check("blocked-wavefront tiles", func() {
		for _, tile := range dec.Tiles {
			f.run(tile.Cells)
		}
	})
}

// TestFusedStatsPinned holds the accounting of the two tiled schedules the
// repository benchmark runs at the values they had before the row kernel:
// Table I's temporaries and the face counts are properties of the
// schedule, not of how its inner loop is written.
func TestFusedStatsPinned(t *testing.T) {
	b := box.Cube(48)
	phi0, phi1 := kernel.NewState(b)
	phi0.Fill(1)
	for _, cse := range []struct {
		name             string
		threads          int
		flux, vel, faces int64
		recompute        float64
	}{
		{"Shift-Fuse OT-16: P<Box", 1, 2184, 104448, 352512, 352512.0 / 338688},
		{"Shift-Fuse OT-16: P<Box", 2, 4368, 208896, 352512, 352512.0 / 338688},
		{"Blocked WF-CLO-16: P<Box", 1, 55296, 2709504, 338688, 1},
		{"Blocked WF-CLO-16: P<Box", 2, 55296, 2709504, 338688, 1},
		{"Blocked WF-CLI-16: P<Box", 1, 276480, 2709504, 338688, 1},
		{"Shift-Fuse: P>=Box", 1, 18824, 2709504, 338688, 1},
		{"Shift-Fuse-CLI: P>=Box", 1, 94120, 2709504, 338688, 1},
		{"Shift-Fuse: P<Box", 2, 55296, 2709504, 338688, 1},
	} {
		v, err := sched.ByName(cse.name)
		if err != nil {
			t.Fatal(err)
		}
		st := Exec(v, phi0, phi1, b, cse.threads)
		if st.TempFluxBytes != cse.flux || st.TempVelBytes != cse.vel {
			t.Errorf("%s threads=%d: temporaries flux %d vel %d, want %d and %d",
				cse.name, cse.threads, st.TempFluxBytes, st.TempVelBytes, cse.flux, cse.vel)
		}
		if st.FacesEvaluated != cse.faces || st.UniqueFaces != 338688 {
			t.Errorf("%s threads=%d: faces %d of %d unique, want %d of 338688",
				cse.name, cse.threads, st.FacesEvaluated, st.UniqueFaces, cse.faces)
		}
		if got := st.RecomputeFactor(); got != cse.recompute {
			t.Errorf("%s threads=%d: recompute factor %v, want %v", cse.name, cse.threads, got, cse.recompute)
		}
	}
}
