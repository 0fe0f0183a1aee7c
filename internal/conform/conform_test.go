package conform

import (
	"context"
	"math"
	"strings"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/sched"
	"stencilsched/internal/variants/generated"
)

func TestRegistryCoverage(t *testing.T) {
	rs := Registry()
	// Studied variants + every generated entry + 5 spectral FFT runners.
	want := len(sched.Studied()) + len(generated.Entries()) + 5
	if len(rs) != want || want != 45 {
		t.Fatalf("registry has %d runners, its parts sum to %d, want 45 (32 studied + 8 generated + 5 spectral)", len(rs), want)
	}
	seen := map[string]bool{}
	gen, temporal, spectral := 0, 0, 0
	for _, r := range rs {
		if seen[r.Name] {
			t.Errorf("duplicate runner name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Generated {
			gen++
		}
		if r.TemporalK > 0 {
			temporal++
		}
		if r.Spectral {
			spectral++
			if r.Tol == nil {
				t.Errorf("spectral runner %q has no tolerance", r.Name)
			}
		}
		got, ok := RunnerByName(r.Name)
		if !ok || got.Name != r.Name {
			t.Errorf("RunnerByName(%q) = %q, %v", r.Name, got.Name, ok)
		}
	}
	if gen != 8 {
		t.Errorf("registry has %d generated runners, want 8 (4 classic + 4 temporal)", gen)
	}
	if temporal != 9 {
		t.Errorf("registry has %d temporal runners, want 9 (4 generated + 5 spectral)", temporal)
	}
	if spectral != 5 {
		t.Errorf("registry has %d spectral runners, want 5 (K 1/2/4/8/16)", spectral)
	}
	if _, ok := RunnerByName("no such runner"); ok {
		t.Errorf("RunnerByName accepted an unknown name")
	}
}

// TestAddRunnerRejectsDuplicate locks in that registering two runners
// under one name is an error, not a silent shadowing.
func TestAddRunnerRejectsDuplicate(t *testing.T) {
	r := Runner{Name: "dup", Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error { return nil }}
	rs, err := AddRunner(nil, r)
	if err != nil || len(rs) != 1 {
		t.Fatalf("first AddRunner = %d runners, %v", len(rs), err)
	}
	rs2, err := AddRunner(rs, r)
	if err == nil {
		t.Fatal("duplicate AddRunner did not error")
	}
	if !strings.Contains(err.Error(), "dup") {
		t.Errorf("duplicate error %q does not name the runner", err)
	}
	if len(rs2) != 1 {
		t.Errorf("failed AddRunner changed the slice: %d runners", len(rs2))
	}
}

// TestSweep is the tier-1 conformance gate: the deterministic sweep
// must pass for every runner in the registry — the 32 studied variants,
// the generated runners and the spectral backends — across randomized
// single-box and multi-box geometries.
func TestSweep(t *testing.T) {
	rep, err := Sweep(context.Background(), SweepConfig{})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.Runners != len(Registry()) {
		t.Errorf("sweep covered %d runners, want %d", rep.Runners, len(Registry()))
	}
	distRunners, spectralRunners := 0, 0
	for _, r := range Registry() {
		if _, ok := studiedIndex(r); ok {
			distRunners++
		}
		if r.Spectral {
			spectralRunners++
		}
	}
	// Spectral runners run box cases only (periodic contract, no level
	// or distributed ghost exchange).
	wantChecks := (rep.Runners-spectralRunners)*(DefaultBoxCases+DefaultLevelCases) +
		spectralRunners*DefaultBoxCases + distRunners*DefaultDistCases
	if rep.Checks != wantChecks {
		t.Errorf("sweep ran %d checks, want %d", rep.Checks, wantChecks)
	}
	for _, dv := range rep.Divergences {
		t.Errorf("%v", dv)
	}
	if !rep.OK() {
		t.Fatalf("conformance sweep failed (%d divergences, truncated=%v)",
			len(rep.Divergences), rep.Truncated)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, SweepConfig{}); err != context.Canceled {
		t.Fatalf("canceled sweep returned %v, want context.Canceled", err)
	}
}

func TestULPDiff(t *testing.T) {
	cases := []struct {
		a, b float64
		want uint64
	}{
		{1.0, 1.0, 0},
		{0.0, math.Copysign(0, -1), 0},
		{1.0, math.Nextafter(1.0, 2.0), 1},
		{1.0, math.Nextafter(math.Nextafter(1.0, 2.0), 2.0), 2},
		{-1.0, math.Nextafter(-1.0, 0), 1},
		// Across zero: smallest positive and negative subnormals are two
		// representable steps apart (through +0/-0 which compare equal).
		{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2},
		{math.NaN(), 1.0, math.MaxUint64},
		{1.0, math.NaN(), math.MaxUint64},
	}
	for _, tc := range cases {
		if got := ULPDiff(tc.a, tc.b); got != tc.want {
			t.Errorf("ULPDiff(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := ULPDiff(tc.b, tc.a); got != tc.want {
			t.Errorf("ULPDiff(%v, %v) = %d, want %d (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

// perturbedRunner is the acceptance-criteria fault injection: the
// exemplar computed with one stencil coefficient perturbed (C1 off by
// 1e-12). It carries a real variant's name so the repro line names the
// variant the way a genuine executor bug would.
func perturbedRunner() Runner {
	name := sched.Studied()[0].Name() + " [injected: perturbed C1]"
	const c1 = kernel.C1 + 1e-12
	return Runner{Name: name, Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
		for dir := 0; dir < ivect.SpaceDim; dir++ {
			faces := valid.SurroundingFaces(dir)
			flux := fab.New(faces, kernel.NComp)
			for c := 0; c < kernel.NComp; c++ {
				faces.ForEach(func(p ivect.IntVect) {
					lo := p.Shift(dir, -1)
					avg := c1*(phi0.Get(lo, c)+phi0.Get(p, c)) +
						kernel.C2*(phi0.Get(lo.Shift(dir, -1), c)+phi0.Get(p.Shift(dir, 1), c))
					flux.Set(p, c, avg)
				})
			}
			velocity := fab.New(faces, 1)
			velocity.CopyFromShifted(flux, faces, ivect.Zero, kernel.VelComp(dir), 0, 1)
			for c := 0; c < kernel.NComp; c++ {
				faces.ForEach(func(p ivect.IntVect) {
					flux.Set(p, c, velocity.Get(p, 0)*flux.Get(p, c))
				})
				valid.ForEach(func(p ivect.IntVect) {
					d := flux.Get(p.Shift(dir, 1), c) - flux.Get(p, c)
					phi1.Set(p, c, phi1.Get(p, c)+d)
				})
			}
		}
		return nil
	}}
}

// overwriteRunner injects the overwrite-instead-of-accumulate bug
// class: correct values, but phi1's prior contents are discarded.
func overwriteRunner() Runner {
	return Runner{Name: "injected: overwrite", Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
		tmp := fab.New(valid, kernel.NComp)
		kernel.Reference(phi0, tmp, valid)
		phi1.CopyFrom(tmp, valid)
		return nil
	}}
}

// guardRunner injects an out-of-region write: a correct execution that
// also scribbles on one cell outside the valid box.
func guardRunner() Runner {
	return Runner{Name: "injected: guard write", Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
		kernel.Reference(phi0, phi1, valid)
		out := valid.Hi.Shift(0, 1)
		if phi1.Box().Contains(out) {
			phi1.Set(out, 0, -1)
		}
		return nil
	}}
}

// TestInjectedDivergenceCaught is the acceptance criterion: perturbing
// one stencil coefficient must be caught with a minimized repro naming
// the variant, the geometry, and the seed.
func TestInjectedDivergenceCaught(t *testing.T) {
	r := perturbedRunner()
	// A deliberately oversized, offset, padded, threaded case: the
	// minimizer must strip all of it away.
	big := Case{Seed: 7, Lo: [3]int{-5, 9, 3}, Size: [3]int{24, 17, 22},
		GhostPad: 2, OutPad: 1, Threads: 6, Warm: true}
	if dv := CheckBox(r, big, 0); dv == nil {
		t.Fatal("perturbed coefficient not detected on the original case")
	}
	min, dv := Minimize(r, big, 0)
	if dv == nil {
		t.Fatal("Minimize lost the divergence")
	}
	if dv.Check != "differential" {
		t.Errorf("perturbed coefficient reported as %q, want differential", dv.Check)
	}
	vol := min.Size[0] * min.Size[1] * min.Size[2]
	if vol > 8 {
		t.Errorf("minimized case still has volume %d (%v), want a tiny box", vol, min.Size)
	}
	if min.Lo != [3]int{0, 0, 0} || min.Threads != 1 || min.Warm ||
		min.GhostPad != 0 || min.OutPad != 0 {
		t.Errorf("minimized case kept inessential structure: %+v", min)
	}
	line := dv.Error()
	for _, want := range []string{r.Name, "seed=7", "size=", "box="} {
		if !strings.Contains(line, want) {
			t.Errorf("repro line %q does not name %q", line, want)
		}
	}
}

func TestInjectedOverwriteCaught(t *testing.T) {
	c := RandomCase(3)
	if dv := CheckBox(overwriteRunner(), c, 0); dv == nil {
		t.Fatal("overwrite-instead-of-accumulate not detected")
	} else if dv.Check != "differential" {
		t.Errorf("overwrite reported as %q, want differential", dv.Check)
	}
}

func TestInjectedGuardWriteCaught(t *testing.T) {
	c := Case{Seed: 11, Size: [3]int{6, 6, 6}, OutPad: 1, Threads: 1}
	if dv := CheckBox(guardRunner(), c, 0); dv == nil {
		t.Fatal("out-of-region write not detected")
	}
}

func TestInjectedDivergenceInSweep(t *testing.T) {
	rep, err := Sweep(context.Background(), SweepConfig{
		Runners: []Runner{perturbedRunner()}, BoxCases: 2, LevelCases: 1,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(rep.Divergences) != 3 {
		t.Fatalf("sweep recorded %d divergences for the perturbed runner, want 3 (one per case)", len(rep.Divergences))
	}
	for _, dv := range rep.Divergences {
		if !strings.Contains(dv.Error(), "seed=") {
			t.Errorf("repro line %q lacks a seed", dv.Error())
		}
	}
}

func TestInjectedDivergenceOnLevel(t *testing.T) {
	lc := RandomLevelCase(5)
	dv := CheckLevel(perturbedRunner(), lc, 0)
	if dv == nil {
		t.Fatal("perturbed coefficient not detected on a level case")
	}
	min, mdv := MinimizeLevel(perturbedRunner(), lc, 0)
	if mdv == nil {
		t.Fatal("MinimizeLevel lost the divergence")
	}
	if min.DomainSize != [3]int{minDomainEdge, minDomainEdge, minDomainEdge} {
		t.Errorf("minimized level kept domain %v, want %d^3", min.DomainSize, minDomainEdge)
	}
	if mdv.Level == nil || !strings.Contains(mdv.Error(), "domain=") {
		t.Errorf("level repro line %q lacks the level geometry", mdv.Error())
	}
}

// TestPanicIsDivergence locks in that a crashing executor surfaces as a
// conformance failure, not a test-process crash.
func TestPanicIsDivergence(t *testing.T) {
	r := Runner{Name: "injected: panic", Run: func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
		panic("boom")
	}}
	dv := CheckBox(r, RandomCase(1), 0)
	if dv == nil || dv.Check != "panic" {
		t.Fatalf("panicking runner reported as %+v, want check=panic", dv)
	}
	if ldv := CheckLevel(r, RandomLevelCase(1), 0); ldv == nil || ldv.Check != "panic" {
		t.Fatalf("panicking runner on level reported as %+v, want check=panic", ldv)
	}
}

func TestMinimizeOnPassingCase(t *testing.T) {
	r := Registry()[0]
	c := RandomCase(2)
	min, dv := Minimize(r, c, 0)
	if dv != nil {
		t.Fatalf("conforming runner produced a divergence during Minimize: %v", dv)
	}
	if min != c.Normalized() {
		t.Errorf("Minimize changed a passing case: %+v -> %+v", c.Normalized(), min)
	}
}
