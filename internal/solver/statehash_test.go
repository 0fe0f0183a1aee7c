package solver

import (
	"hash/fnv"
	"math"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
	"stencilsched/internal/sched"
)

// stateHash folds the bits of every valid value of ld, box by box in
// layout order, component-major, then z, y, x, into one FNV-1a hash.
func stateHash(ld *layout.LevelData) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i, b := range ld.Layout.Boxes {
		f := ld.Fabs[i]
		for c := 0; c < f.NComp(); c++ {
			for z := b.Lo[2]; z <= b.Hi[2]; z++ {
				for y := b.Lo[1]; y <= b.Hi[1]; y++ {
					for x := b.Lo[0]; x <= b.Hi[0]; x++ {
						u := math.Float64bits(f.Get([3]int{x, y, z}, c))
						for k := range buf {
							buf[k] = byte(u >> (8 * k))
						}
						h.Write(buf[:])
					}
				}
			}
		}
	}
	return h.Sum64()
}

// TestStateHash holds every integrator's state after three steps to
// hashes recorded before the time integrator was fused into the sweep:
// every bit of every valid cell, for five schedules of both
// granularities at one and two threads, on a fully periodic level and
// on one with a physical boundary in z. The smooth field varies every
// component, so a wrong coefficient or update order on any of them
// changes the hash.
func TestStateHash(t *testing.T) {
	golden := map[string]uint64{
		"periodic/Euler": 0x9b6c727b67c8e274,
		"periodic/RK2":   0xbb1c8921cb86a39b,
		"periodic/RK4":   0x24b9e4320c4dba46,
		"wall-z/Euler":   0x442dc04463787f5b,
		"wall-z/RK2":     0xbb81941a3b39057e,
		"wall-z/RK4":     0xf073348a16c98221,
	}
	schedules := []string{
		"Baseline-CLO: P>=Box", "Baseline-CLI: P<Box", "Shift-Fuse-CLO: P>=Box",
		"Blocked WF-CLO-4: P<Box", "Shift-Fuse OT-4: P>=Box",
	}
	for _, geom := range []struct {
		name     string
		periodic [3]bool
	}{{"periodic", [3]bool{true, true, true}}, {"wall-z", [3]bool{true, true, false}}} {
		l, err := layout.Decompose(box.Cube(16), 8, geom.periodic)
		if err != nil {
			t.Fatal(err)
		}
		for _, integ := range []Integrator{Euler, RK2, RK4} {
			key := geom.name + "/" + integ.String()
			for _, name := range schedules {
				v, err := sched.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, threads := range []int{1, 2} {
					ld := layout.NewLevelData(l, kernel.NComp, kernel.NGhost)
					ld.FillFromFunction(threads, func(p ivect.IntVect, c int) float64 { return kernel.SmoothAt(16, p, c) })
					s, err := New(ld, Config{Variant: v, Integrator: integ, Dt: 0.05, Threads: threads})
					if err != nil {
						t.Fatal(err)
					}
					s.Advance(3)
					if got := stateHash(ld); got != golden[key] {
						t.Errorf("%s %s threads %d: state hash %#016x, recorded %#016x", key, name, threads, got, golden[key])
					}
				}
			}
		}
	}
}
