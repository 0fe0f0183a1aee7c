//go:build !amd64 || purego

package kernel

// Without the assembly (another architecture, or the purego tag) every row
// runs the Go loop: useAVX2 is constant false, vecCells is constant zero,
// and the compiler drops the calls below, which only let row.go compile.
const useAVX2 = false

const noAsm = "kernel: vector row body called without the assembly"

func seedRowAVX2(out, vel, ph *float64, n4, sd int, c1, c2 float64) { panic(noAsm) }

func fusedRowAVX2(dst, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, c1, c2 float64) float64 {
	panic(noAsm)
}

func eulerRowAVX2(next, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, ndt, c1, c2 float64) float64 {
	panic(noAsm)
}

func eulerDeltaRowAVX2(dst, base, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, ndt, c1, c2 float64) float64 {
	panic(noAsm)
}

func faceAvgRowAVX2(out, ph *float64, n4, s int, c1, c2 float64) { panic(noAsm) }

func flux2RowAVX2(out, vel *float64, n4 int) { panic(noAsm) }

func diffAccRowAVX2(dst, hi, lo *float64, n4 int) { panic(noAsm) }
