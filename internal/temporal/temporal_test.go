package temporal

import (
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
)

// composeSteps is an independent K-step composition: each Euler step
// ping-pongs into a freshly allocated, exactly-sized state over the
// shrunk region — no in-place update, no shared helper with Reference
// beyond kernel.Reference itself.
func composeSteps(phi0 *fab.FAB, valid box.Box, k int, dt float64) *fab.FAB {
	ng := kernel.NGhost
	curB := valid.Grow(GhostDepth(k))
	cur := fab.New(curB, kernel.NComp)
	cur.CopyFrom(phi0, curB)
	for j := 0; j < k; j++ {
		reg := valid.Grow((k - 1 - j) * ng)
		next := fab.New(reg, kernel.NComp)
		next.CopyFrom(cur, reg)
		acc := fab.New(reg, kernel.NComp)
		kernel.Reference(cur, acc, reg)
		next.Plus(acc, reg, -dt)
		cur = next
	}
	return cur
}

func randomState(t *testing.T, valid box.Box, k int, seed int64) *fab.FAB {
	t.Helper()
	phi0 := fab.New(valid.Grow(k*kernel.NGhost), kernel.NComp)
	phi0.Randomize(rand.New(rand.NewSource(seed)), 0.25, 1.75)
	return phi0
}

func requireSame(t *testing.T, got, want *fab.FAB, r box.Box, what string) {
	t.Helper()
	if d, at, c := got.MaxDiff(want, r); d != 0 {
		t.Fatalf("%s: diverges at %v comp %d by %g", what, at, c, d)
	}
}

// TestReferenceMatchesComposition pins Reference against the
// independent ping-pong composition, bitwise, for several K.
func TestReferenceMatchesComposition(t *testing.T) {
	valid := box.New(ivect.New(-2, 3, 1), ivect.New(8, 9, 7))
	for _, k := range []int{1, 2, 3, 4} {
		phi0 := randomState(t, valid, k, 7)
		want := composeSteps(phi0, valid, k, kernel.EulerDt)
		phi1 := fab.New(valid, kernel.NComp)
		Reference(phi0, phi1, valid, k, kernel.EulerDt)
		// phi1 holds the delta; reconstruct by checking the delta of the
		// composition with the same AddDiff expression.
		wantDelta := fab.New(valid, kernel.NComp)
		AddDiff(wantDelta, want, phi0, valid)
		requireSame(t, phi1, wantDelta, valid, "reference vs composition")
	}
}
