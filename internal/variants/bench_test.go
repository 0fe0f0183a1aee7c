package variants

import (
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/kernel"
	"stencilsched/internal/sched"
	"stencilsched/internal/variants/generated"
)

// BenchmarkFused48 is the layer number behind the benchmark's
// large_box_sweep: one 48^3 box (beyond L2) on one thread, the baseline
// beside every fused family, in ns per cell (all five components). The
// rows are internal/kernel's; run it with and without the purego tag to
// put the vector bodies beside the Go loops (BenchmarkRowKernels there is
// the same comparison one row form at a time):
//
//	go test -run '^$' -bench Fused48 -benchtime 10x -cpu 1 ./internal/variants
//	go test -run '^$' -bench Fused48 -benchtime 10x -cpu 1 -tags purego ./internal/variants
func BenchmarkFused48(b *testing.B) {
	const n = 48
	valid := box.Cube(n)
	phi0, phi1 := makeState(valid, 48)
	for _, name := range []string{
		"Baseline: P>=Box",
		"Shift-Fuse: P>=Box",
		"Shift-Fuse OT-16: P<Box",
		"Blocked WF-CLO-16: P<Box",
		"Blocked WF-CLI-16: P<Box",
		"Shift-Fuse: P<Box",
	} {
		v, err := sched.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			Exec(v, phi0, phi1, valid, 1) // warm the arena
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Exec(v, phi0, phi1, valid, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*n*n), "ns/cell")
		})
	}
}

// BenchmarkTemporal48 is BenchmarkFused48 for the compiled schedules: the
// generated temporal points (K Euler steps per sweep) and the two spatial
// runners the temporal sub-step is built from, on one
// 48^3 box and one thread, in ns per cell per Euler step. -tags purego
// selects the Go loops here too (-bench Temporal48 -benchtime 5x).
func BenchmarkTemporal48(b *testing.B) {
	const n = 48
	valid := box.Cube(n)
	type runner struct {
		name string
		k    int
		run  func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error
	}
	var rs []runner
	for _, e := range generated.Entries() {
		if e.TemporalK > 0 || e.Name == "CodeGen series (generated)" || e.Name == "Shift-Fuse (generated)" {
			rs = append(rs, runner{e.Name, max(e.TemporalK, 1), e.Run})
		}
	}
	for _, r := range rs {
		phi0 := fab.New(valid.Grow(r.k*kernel.NGhost), kernel.NComp)
		kernel.InitSmooth(phi0, n)
		phi1 := fab.New(valid, kernel.NComp)
		b.Run(r.name, func(b *testing.B) {
			if err := r.run(phi0, phi1, valid, 1); err != nil { // warm the arena
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.run(phi0, phi1, valid, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.k)/(n*n*n), "ns/cell/step")
		})
	}
}
