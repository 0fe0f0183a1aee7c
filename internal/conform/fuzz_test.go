package conform

import (
	"testing"
)

// fuzzRunner maps a fuzzer-chosen index onto the registry.
func fuzzRunner(idx uint8) Runner {
	reg := Registry()
	return reg[int(idx)%len(reg)]
}

// runnerIndex is the fuzzRunner index of the named runner; it fails
// the fuzz target if no runner has that name.
func runnerIndex(f *testing.F, name string) uint8 {
	f.Helper()
	for i, r := range Registry() {
		if r.Name == name {
			return uint8(i)
		}
	}
	f.Fatalf("no runner named %q", name)
	return 0
}

// FuzzConformance fuzzes single-box conformance: the fuzzer picks a
// runner and raw case fields, Normalized clamps them into a legal
// geometry, and every conformance property must hold. On divergence the
// failure is minimized and reported as a repro line naming the runner,
// geometry, and seed.
//
// Run with: go test ./internal/conform -fuzz=FuzzConformance
func FuzzConformance(f *testing.F) {
	// Seed corpus: one case per axis of interest — cubic, flat/ragged,
	// unit box, shifted corner, padded ghosts, guard ring, threads, warm —
	// spread across the runner index space so hand-written families and
	// the compiled series and row-fused schedules are all exercised
	// before mutation starts.
	f.Add(int64(1), uint8(0), int8(0), int8(0), int8(0), uint8(8), uint8(8), uint8(8), uint8(0), uint8(0), uint8(1), false)
	f.Add(int64(2), uint8(7), int8(-3), int8(5), int8(0), uint8(1), uint8(14), uint8(3), uint8(1), uint8(1), uint8(4), true)
	f.Add(int64(3), uint8(16), int8(9), int8(-9), int8(2), uint8(1), uint8(1), uint8(1), uint8(2), uint8(0), uint8(2), true)
	f.Add(int64(4), uint8(24), int8(0), int8(0), int8(0), uint8(32), uint8(5), uint8(2), uint8(0), uint8(2), uint8(8), false)
	f.Add(int64(5), uint8(32), int8(-8), int8(-8), int8(-8), uint8(6), uint8(6), uint8(6), uint8(3), uint8(1), uint8(3), true)
	f.Add(int64(6), uint8(33), int8(4), int8(4), int8(4), uint8(12), uint8(7), uint8(9), uint8(0), uint8(0), uint8(1), false)
	// Temporal-blocking runners (the K axis), resolved by name so a
	// registry change cannot move them: the tiled generated K2, the
	// generated K4 under threads on a ragged shifted box, and the
	// whole-box generated K2 on a shifted box — mutation from these
	// reaches the deep-ghost contract and the wavefront-in-time guards.
	f.Add(int64(7), runnerIndex(f, "Temporal K2 OT-32 (generated)"), int8(0), int8(0), int8(0), uint8(8), uint8(8), uint8(8), uint8(0), uint8(0), uint8(2), false)
	f.Add(int64(8), runnerIndex(f, "Temporal K4 (generated)"), int8(-5), int8(3), int8(1), uint8(9), uint8(6), uint8(11), uint8(1), uint8(1), uint8(4), true)
	f.Add(int64(9), runnerIndex(f, "Temporal K2 (generated)"), int8(2), int8(-7), int8(0), uint8(12), uint8(5), uint8(7), uint8(0), uint8(1), uint8(1), false)

	f.Fuzz(func(t *testing.T, seed int64, runner uint8,
		lo0, lo1, lo2 int8, s0, s1, s2 uint8,
		ghostPad, outPad, threads uint8, warm bool) {
		r := fuzzRunner(runner)
		c := Case{
			Seed:     seed,
			Lo:       [3]int{int(lo0), int(lo1), int(lo2)},
			Size:     [3]int{int(s0), int(s1), int(s2)},
			GhostPad: int(ghostPad),
			OutPad:   int(outPad),
			Threads:  int(threads),
			Warm:     warm,
		}.Normalized()
		// Spectral runners carry the periodic tolerance-mode contract;
		// CheckBox's bitwise oracle does not apply to them.
		if r.Spectral {
			if dv := CheckPeriodic(r, c); dv != nil {
				min, mdv := MinimizePeriodic(r, c)
				if mdv == nil {
					t.Fatalf("divergence (did not survive minimization): %v", dv)
				}
				t.Fatalf("divergence: %v\nminimized case: %+v", mdv, min)
			}
			return
		}
		if dv := CheckBox(r, c, 0); dv != nil {
			min, mdv := Minimize(r, c, 0)
			if mdv == nil {
				t.Fatalf("divergence (did not survive minimization): %v", dv)
			}
			t.Fatalf("divergence: %v\nminimized case: %+v", mdv, min)
		}
	})
}

// spectralRegistry is the FFT-runner slice of the registry, for the
// dedicated spectral fuzz target.
func spectralRegistry() []Runner {
	var out []Runner
	for _, r := range Registry() {
		if r.Spectral {
			out = append(out, r)
		}
	}
	return out
}

// FuzzFFTConformance fuzzes the spectral fast path: the fuzzer picks a
// K and raw periodic-case fields, and every tolerance-mode conformance
// property — differential against the torus oracle, bitwise guards,
// accumulation, determinism, rho linearity — must hold. Radix-2 and
// Bluestein transform paths are both reachable through the size axes.
//
// Run with: go test ./internal/conform -fuzz=FuzzFFTConformance
func FuzzFFTConformance(f *testing.F) {
	// Seed corpus across the K range, power-of-two and Bluestein edges,
	// shifted corners, ghost/guard padding, threads, warm repeats.
	f.Add(int64(1), uint8(0), int8(0), int8(0), int8(0), uint8(8), uint8(8), uint8(8), uint8(0), uint8(0), uint8(1), false)
	f.Add(int64(2), uint8(1), int8(-3), int8(5), int8(0), uint8(9), uint8(6), uint8(11), uint8(1), uint8(1), uint8(4), true)
	f.Add(int64(3), uint8(2), int8(9), int8(-9), int8(2), uint8(1), uint8(1), uint8(1), uint8(2), uint8(0), uint8(2), true)
	f.Add(int64(4), uint8(3), int8(0), int8(0), int8(0), uint8(12), uint8(5), uint8(7), uint8(0), uint8(2), uint8(8), false)
	f.Add(int64(5), uint8(4), int8(-8), int8(-8), int8(-8), uint8(6), uint8(6), uint8(6), uint8(0), uint8(1), uint8(3), true)

	f.Fuzz(func(t *testing.T, seed int64, runner uint8,
		lo0, lo1, lo2 int8, s0, s1, s2 uint8,
		ghostPad, outPad, threads uint8, warm bool) {
		reg := spectralRegistry()
		r := reg[int(runner)%len(reg)]
		c := Case{
			Seed:     seed,
			Lo:       [3]int{int(lo0), int(lo1), int(lo2)},
			Size:     [3]int{int(s0), int(s1), int(s2)},
			GhostPad: int(ghostPad),
			OutPad:   int(outPad),
			Threads:  int(threads),
			Warm:     warm,
		}.Normalized()
		if dv := CheckPeriodic(r, c); dv != nil {
			min, mdv := MinimizePeriodic(r, c)
			if mdv == nil {
				t.Fatalf("divergence (did not survive minimization): %v", dv)
			}
			t.Fatalf("divergence: %v\nminimized case: %+v", mdv, min)
		}
	})
}

// FuzzLevelConformance fuzzes multi-box conformance: randomized domain
// decompositions with ragged boxes and per-direction periodic BCs, the
// real ghost exchange, and the translation-invariance metamorphic check.
//
// Run with: go test ./internal/conform -fuzz=FuzzLevelConformance
func FuzzLevelConformance(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(8), uint8(8), uint8(4), true, true, true, uint8(2))
	f.Add(int64(2), uint8(9), uint8(20), uint8(5), uint8(11), uint8(3), true, false, false, uint8(8))
	f.Add(int64(3), uint8(17), uint8(4), uint8(4), uint8(4), uint8(12), false, false, false, uint8(1))
	f.Add(int64(4), uint8(25), uint8(13), uint8(17), uint8(7), uint8(5), false, true, false, uint8(4))
	f.Add(int64(5), uint8(33), uint8(16), uint8(16), uint8(16), uint8(6), true, true, false, uint8(6))

	f.Fuzz(func(t *testing.T, seed int64, runner uint8,
		d0, d1, d2, boxSize uint8, p0, p1, p2 bool, threads uint8) {
		r := fuzzRunner(runner)
		if r.Spectral {
			t.Skip("spectral runners have no level executor (NGhost-deep exchange only)")
		}
		lc := LevelCase{
			Seed:       seed,
			DomainSize: [3]int{int(d0), int(d1), int(d2)},
			BoxSize:    int(boxSize),
			Periodic:   [3]bool{p0, p1, p2},
			Threads:    int(threads),
		}.Normalized()
		if dv := CheckLevel(r, lc, 0); dv != nil {
			min, mdv := MinimizeLevel(r, lc, 0)
			if mdv == nil {
				t.Fatalf("divergence (did not survive minimization): %v", dv)
			}
			t.Fatalf("divergence: %v\nminimized level case: %+v", mdv, min)
		}
	})
}
