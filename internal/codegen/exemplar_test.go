package codegen

import (
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/kernel"
	"stencilsched/internal/variants/generated"
)

// exemplarMatchesReference runs run, a compiled exemplar description, on
// an n^3 box of random data and requires kernel.Reference's bits.
func exemplarMatchesReference(t *testing.T, n int, seed int64, run func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error) {
	t.Helper()
	b := box.Cube(n)
	phi0, want := kernel.NewState(b)
	phi0.Randomize(rand.New(rand.NewSource(seed)), 0.5, 1.5)
	kernel.Reference(phi0, want, b)
	phi1 := fab.New(b, kernel.NComp)
	if err := run(phi0, phi1, b, 1); err != nil {
		t.Fatal(err)
	}
	if d, at, c := phi1.MaxDiff(want, b); d != 0 {
		t.Fatalf("N=%d differs: %g at %v comp %d", n, d, at, c)
	}
}

// TestExemplarSeriesMatchesReference cross-validates the What/When/Where
// expression of Fig. 6 (SeriesDesc), as schedc compiles it, against the
// hand-written reference: same bits.
func TestExemplarSeriesMatchesReference(t *testing.T) {
	exemplarMatchesReference(t, 6, 71, generated.RunSeries)
}

// TestExemplarFusedMatchesReference validates the shifted-and-fused
// schedule with ring-buffer storage (RowFusedDesc) — the When and Where
// both changed, the Whats untouched, the bits identical.
func TestExemplarFusedMatchesReference(t *testing.T) {
	for _, n := range []int{4, 6} {
		exemplarMatchesReference(t, n, int64(72+n), generated.RunRowFused)
	}
}
