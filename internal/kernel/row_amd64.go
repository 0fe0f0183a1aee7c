//go:build !purego

package kernel

// The vector bodies of row.go's row kernels (row_amd64.s). Each takes
// pointers to the first cell of its rows and n4, a positive multiple of
// four, and updates exactly cells [0, n4) as the Go loop of the exported
// function of the same name would, bit for bit. c1 and c2 are C1 and C2,
// passed so that the constants exist once, in Go.

// useAVX2 is decided once: the CPU has AVX2 and the OS saves the YMM state.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func seedRowAVX2(out, vel, ph *float64, n4, sd int, c1, c2 float64)

//go:noescape
func fusedRowAVX2(dst, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, c1, c2 float64) float64

//go:noescape
func eulerRowAVX2(next, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, ndt, c1, c2 float64) float64

//go:noescape
func eulerDeltaRowAVX2(dst, base, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, ndt, c1, c2 float64) float64

//go:noescape
func faceAvgRowAVX2(out, ph *float64, n4, s int, c1, c2 float64)

//go:noescape
func flux2RowAVX2(out, vel *float64, n4 int)

//go:noescape
func diffAccRowAVX2(dst, hi, lo *float64, n4 int)
