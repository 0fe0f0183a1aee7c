package dist

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
)

// resultHash folds the bits of every valid value of a distributed
// solve's boxes, in layout order, component-major, then z, y, x, into
// one FNV-1a hash. Only the valid box of each FAB is read.
func resultHash(l *layout.Layout, fabs []*fab.FAB) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i, b := range l.Boxes {
		f := fabs[i]
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

// TestStateHashDistributed holds a two-rank loopback solve — the path
// stencilsched.SolveDistributed takes, with its smooth initial field —
// to hashes recorded before the rank runtime fused its update into the
// sweep: five Euler steps at halo 1, 2 and 4 (so halo 2 and 4 end on a
// short superstep), for a P>=Box and a P<Box schedule at one and two
// threads, on a fully periodic level and on one with a physical
// boundary in z. Deep halos recompute exchanged ghosts bit for bit, so
// every halo of one geometry shares one hash.
func TestStateHashDistributed(t *testing.T) {
	checkStateHashes(t, nil)
}

// checkStateHashes runs TestStateHashDistributed's matrix, calling
// before (when non-nil) ahead of every solve.
func checkStateHashes(t *testing.T, before func()) {
	t.Helper()
	golden := map[string]uint64{
		"periodic": 0x7091ec0414607c64,
		"wall-z":   0xd229c14766b06e9f,
	}
	for _, geom := range []struct {
		name     string
		periodic [3]bool
	}{{"periodic", [3]bool{true, true, true}}, {"wall-z", [3]bool{true, true, false}}} {
		l, err := layout.Decompose(box.Cube(16), 8, geom.periodic)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Baseline-CLO: P>=Box", "Shift-Fuse OT-4: P<Box"} {
			for _, halo := range []int{1, 2, 4} {
				for _, threads := range []int{1, 2} {
					if before != nil {
						before()
					}
					res, err := RunLoopback(context.Background(), Config{
						Layout: l, Ranks: 2, Variant: mustVariant(t, name), HaloK: halo,
						Steps: 5, Dt: testDt, Threads: threads, Init: kernel.SmoothRowFunc(16),
					})
					if err != nil {
						t.Fatalf("%s %s halo %d threads %d: %v", geom.name, name, halo, threads, err)
					}
					if got := resultHash(l, res.Fabs); got != golden[geom.name] {
						t.Errorf("%s %s halo %d threads %d: state hash %#016x, recorded %#016x",
							geom.name, name, halo, threads, got, golden[geom.name])
					}
					res.Release()
				}
			}
		}
	}
}
