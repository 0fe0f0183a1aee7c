package variants

import (
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/sched"
)

// BenchmarkFused48 is the layer number behind the benchmark's
// large_box_sweep: one 48^3 box (beyond L2) on one thread, the baseline
// beside every fused family, in ns per cell (all five components).
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
