package generated

import (
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/schedc"
)

// TestGeneratedFilesFresh recompiles every schedule family and compares
// the result byte-for-byte with the committed files: editing a schedule
// description (or the compiler) without re-running `go generate ./...`
// fails here, and so does a stray .gen.go file the compiler no longer
// emits.
func TestGeneratedFilesFresh(t *testing.T) {
	files, err := schedc.EmitFiles()
	if err != nil {
		t.Fatalf("EmitFiles: %v", err)
	}
	for name, want := range files {
		got, err := os.ReadFile(name)
		if err != nil {
			t.Errorf("%s: %v (run `go generate ./...`)", name, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s is stale: committed file differs from compiler output (run `go generate ./...`)", name)
		}
	}
	stray, err := filepath.Glob("*.gen.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stray {
		if _, ok := files[name]; !ok {
			t.Errorf("%s is no longer emitted by the compiler; delete it", name)
		}
	}
}

// TestGeneratedPackageVetClean runs go vet over this package: the
// emitted source must be idiomatic enough to pass the standard static
// checks (unreachable code, shadowing-prone composites, printf misuse).
func TestGeneratedPackageVetClean(t *testing.T) {
	cmd := exec.Command("go", "vet", ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet: %v\n%s", err, out)
	}
}

// genLines is the line budget of the emitted files: what the eight
// compiled runners take (3 256 lines; 5 321 with the nine-point
// temporal grid, 18 084 before row statements) plus a tenth.
const genLines = 3580

// TestGeneratedLineBudget keeps the emitted code from creeping back up:
// a schedule whose lowering needs more lines than this should share a row
// kernel, not inline another statement series.
func TestGeneratedLineBudget(t *testing.T) {
	names, err := filepath.Glob("*.gen.go")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		total += bytes.Count(src, []byte("\n"))
	}
	if total >= genLines {
		t.Errorf("*.gen.go total %d lines, budget is under %d", total, genLines)
	}
}

// testBoxes are the geometries of the differential tests below: offset and
// non-cubic boxes, and the tile remainders where a row statement's
// projected bounds could go wrong.
var testBoxes = []box.Box{
	box.Cube(8),
	box.Cube(12), // ragged 16^3 tiles
	box.NewSized(ivect.New(-3, 5, 2), ivect.New(9, 7, 11)), // non-cubic, shifted
	box.NewSized(ivect.New(7, -9, 4), ivect.Uniform(48)),   // the benchmark's geometry: 32^3 tiles leave remainders of 16
	box.NewSized(ivect.New(-3, 5, 2), ivect.Uniform(20)),   // 16^3 tiles leave remainders of 4
	box.NewSized(ivect.New(2, 0, -6), ivect.Uniform(33)),   // 32^3 tiles leave tiles one cell wide: rows of n == 1
}

// checkEntries runs every entry of temporal depth k (0: the spatial
// runners) from a zero and from a pre-filled phi1 — every runner
// accumulates — on one and two threads, against oracle applied to the
// same starting phi1.
func checkEntries(t *testing.T, k int, phi0 *fab.FAB, b box.Box, oracle func(phi1 *fab.FAB)) {
	t.Helper()
	fill := fab.New(b, kernel.NComp)
	for _, prefilled := range []bool{false, true} {
		if prefilled {
			fill.Randomize(rand.New(rand.NewSource(77)), -1, 1)
		}
		want := fab.New(b, kernel.NComp)
		want.CopyFrom(fill, b)
		oracle(want)
		for _, e := range Entries() {
			if e.TemporalK != k {
				continue
			}
			for _, threads := range []int{1, 2} {
				phi1 := fab.New(b, kernel.NComp)
				phi1.CopyFrom(fill, b)
				if err := e.Run(phi0, phi1, b, threads); err != nil {
					t.Errorf("box %v, %s: %v", b, e.Name, err)
					continue
				}
				if d, at, c := phi1.MaxDiff(want, b); d != 0 {
					t.Errorf("box %v, %s, prefilled=%v threads=%d: diff %g at %v comp %d",
						b, e.Name, prefilled, threads, d, at, c)
				}
			}
		}
	}
}

// TestEntriesBitwiseEqualReference is the local differential check (the
// conformance sweep covers the same runners across many geometries; this
// pins correctness next to the generated code).
func TestEntriesBitwiseEqualReference(t *testing.T) {
	for bi, b := range testBoxes {
		phi0 := fab.New(kernel.GrownBox(b), kernel.NComp)
		phi0.Randomize(rand.New(rand.NewSource(int64(300+bi))), 0.25, 1.75)
		checkEntries(t, 0, phi0, b, func(phi1 *fab.FAB) { kernel.Reference(phi0, phi1, b) })
	}
}

// temporalDelta composes kernel.Reference k times on shrinking regions
// (the wavefront in time) and returns the K-step delta state_k - phi0
// over valid — the oracle for the temporal-blocking runners, built here
// from the kernel alone (internal/temporal, whose Reference this mirrors,
// imports this package).
func temporalDelta(phi0 *fab.FAB, valid box.Box, k int) *fab.FAB {
	ng := kernel.NGhost
	state := fab.New(valid.Grow(k*ng), kernel.NComp)
	state.CopyFrom(phi0, state.Box())
	for j := 0; j < k; j++ {
		reg := valid.Grow((k - 1 - j) * ng)
		acc := fab.New(reg, kernel.NComp)
		kernel.Reference(state, acc, reg)
		state.Plus(acc, reg, -kernel.EulerDt)
	}
	delta := fab.New(valid, kernel.NComp)
	delta.CopyFrom(state, valid)
	delta.Plus(phi0, valid, -1)
	return delta
}

// temporalKs returns the distinct temporal depths of the entries, in
// entry order.
func temporalKs() []int {
	var ks []int
	for _, e := range Entries() {
		if e.TemporalK > 0 && !slices.Contains(ks, e.TemporalK) {
			ks = append(ks, e.TemporalK)
		}
	}
	return ks
}

// TestTemporalEntriesBitwiseEqualComposition pins every generated
// temporal runner (all K and tile edges) bitwise against composing
// kernel.Reference K times.
func TestTemporalEntriesBitwiseEqualComposition(t *testing.T) {
	ks := temporalKs()
	if len(ks) == 0 {
		t.Fatal("no generated temporal entries")
	}
	for bi, b := range testBoxes {
		for _, k := range ks {
			if k == 4 && b.NumPts() > 40*40*40 {
				// Composing the reference four times at 48^3 costs more
				// than the rest of this test; K4 runs whole-box only, and
				// the smaller test boxes check it.
				continue
			}
			phi0 := fab.New(b.Grow(k*kernel.NGhost), kernel.NComp)
			phi0.Randomize(rand.New(rand.NewSource(int64(500+bi))), 0.25, 1.75)
			delta := temporalDelta(phi0, b, k)
			checkEntries(t, k, phi0, b, func(phi1 *fab.FAB) { phi1.Plus(delta, b, 1) })
		}
	}
}

// TestRunnersSteadyStateAllocs pins the arena discipline of the row
// statements: once the arena is warm, a fused runner — spatial and
// temporal, tiles included — allocates nothing.
func TestRunnersSteadyStateAllocs(t *testing.T) {
	b := box.Cube(36)
	phi0 := fab.New(b.Grow(2*kernel.NGhost), kernel.NComp)
	phi1 := fab.New(b, kernel.NComp)
	for name, run := range map[string]func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error{
		"RunShiftFuse":      RunShiftFuse,
		"RunTemporalK2":     RunTemporalK2,
		"RunTemporalK2OT32": RunTemporalK2OT32, // 36^3: more than one tile
	} {
		step := func() {
			if err := run(phi0, phi1, b, 1); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm the arena
		if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
			t.Errorf("%s: %v allocs per run in steady state, want 0", name, allocs)
		}
	}
}
