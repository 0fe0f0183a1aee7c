//go:build !purego

#include "textflag.h"

// AVX2 bodies of the row kernels of row.go, four cells per instruction.
// The Go loop of each exported function is the definition; a lane here
// evaluates that loop's expression tree with the same operations in the
// same order — VMULPD, VADDPD and VSUBPD only, each rounded on its own, so
// never an FMA and nothing reassociated — and is therefore the loop's
// result bit for bit (up to which NaN a NaN is). Declarations and the
// calling contract are in row_amd64.go: pointers to the first cell of each
// row and n4, a positive multiple of four; cells [0, n4) are updated and
// nothing outside the cells the loop would touch is read or written.
//
// Every loop runs a negative byte index AX from -8*n4 up to zero against
// row pointers advanced to the row's end, so one ADDQ both steps and
// tests. Y11 and Y12 hold C1 and C2 in every lane. R14, R15 and X15 belong
// to the Go runtime and are left alone; VZEROUPPER precedes every RET
// because the callers are SSE code.

// FACEAVG is kernel.FaceAvg on four faces:
//	acc = C1*(lo1 + mid) + C2*(lo2 + hi1)
// with lo1, mid, lo2, hi1 the memory operands of phi[off-s], phi[off],
// phi[off-2s] and phi[off+s].
#define FACEAVG(lo1, mid, lo2, hi1, acc, tmp) \
	VMOVUPD lo1, acc      \
	VADDPD  mid, acc, acc \
	VMOVUPD lo2, tmp      \
	VADDPD  hi1, tmp, tmp \
	VMULPD  acc, Y11, acc \
	VMULPD  tmp, Y12, tmp \
	VADDPD  tmp, acc, acc

// FLUXES is the part the three fused write-backs share: the high-face
// fluxes of four cells in x, y and z, their differences against the
// low-face fluxes, and the carry. Registers: SI the first cell in ph
// (stepped by the caller), BX and CX the y and z strides in bytes, DX, DI,
// R8 the ends of vx, vy, vz, R9 and R10 the ends of fy and fz, R13
// scratch. Y10 carries the x flux between iterations: lane 0 is the flux
// at the low face of the first of the four cells. VPERMPD $0x93 turns the
// high-face fluxes [h0 h1 h2 h3] into [h3 h0 h1 h2]; lane 0 of that is the
// next iteration's carry, and blending this iteration's carry into lane 0
// gives the four low-face fluxes [carry h0 h1 h2].
// Leaves Y1 = fxhi-fxlo, Y3 = fyhi-fy, Y5 = fzhi-fz; fy and fz updated.
#define FLUXES \
	FACEAVG((SI), 8(SI), -8(SI), 16(SI), Y1, Y2) \
	VMULPD   (DX)(AX*1), Y1, Y1 \
	VPERMPD  $0x93, Y1, Y2      \
	VBLENDPD $1, Y10, Y2, Y3    \
	VMOVAPD  Y2, Y10            \
	VSUBPD   Y3, Y1, Y1         \
	MOVQ     SI, R13            \
	SUBQ     BX, R13            \
	FACEAVG((SI), (SI)(BX*1), (R13), (SI)(BX*2), Y2, Y3) \
	VMULPD   (DI)(AX*1), Y2, Y2 \
	VSUBPD   (R9)(AX*1), Y2, Y3 \
	VMOVUPD  Y2, (R9)(AX*1)     \
	MOVQ     SI, R13            \
	SUBQ     CX, R13            \
	FACEAVG((SI), (SI)(CX*1), (R13), (SI)(CX*2), Y4, Y5) \
	VMULPD   (R8)(AX*1), Y4, Y4 \
	VSUBPD   (R10)(AX*1), Y4, Y5 \
	VMOVUPD  Y4, (R10)(AX*1)

// EULER is the Euler update both Euler forms share, after FLUXES:
// Y6 = ph[o] + ndt*div, div accumulated from zero (Y8) in x, y, z order —
// the add of zero stays, it turns a -0 difference into +0 — with ndt in Y9.
#define EULER \
	VADDPD  Y1, Y8, Y6 \
	VADDPD  Y3, Y6, Y6 \
	VADDPD  Y5, Y6, Y6 \
	VMULPD  Y6, Y9, Y6 \
	VMOVUPD (SI), Y0   \
	VADDPD  Y6, Y0, Y6

// func hasAVX2() bool
// CPUID leaf 1: OSXSAVE and AVX; XCR0: the OS saves XMM and YMM state;
// CPUID leaf 7: AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// func seedRowAVX2(out, vel, ph *float64, n4, sd int, c1, c2 float64)
TEXT ·seedRowAVX2(SB), NOSPLIT, $0-56
	MOVQ         out+0(FP), DI
	MOVQ         vel+8(FP), DX
	MOVQ         ph+16(FP), SI
	MOVQ         n4+24(FP), AX
	MOVQ         sd+32(FP), BX
	VBROADCASTSD c1+40(FP), Y11
	VBROADCASTSD c2+48(FP), Y12
	SHLQ         $3, AX
	SHLQ         $3, BX
	ADDQ         AX, DI
	ADDQ         AX, DX
	NEGQ         AX
	MOVQ         SI, R13
	SUBQ         BX, R13
	SUBQ         BX, R13 // R13 = &ph[o0-2*sd], stepped with SI
seedloop:
	FACEAVG((R13)(BX*1), (SI), (R13), (SI)(BX*1), Y1, Y2)
	VMULPD  (DX)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, R13
	ADDQ    $32, AX
	JNE     seedloop
	VZEROUPPER
	RET

// func faceAvgRowAVX2(out, ph *float64, n4, s int, c1, c2 float64)
TEXT ·faceAvgRowAVX2(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         ph+8(FP), SI
	MOVQ         n4+16(FP), AX
	MOVQ         s+24(FP), BX
	VBROADCASTSD c1+32(FP), Y11
	VBROADCASTSD c2+40(FP), Y12
	SHLQ         $3, AX
	SHLQ         $3, BX
	ADDQ         AX, DI
	NEGQ         AX
	MOVQ         SI, R13
	SUBQ         BX, R13
	SUBQ         BX, R13 // R13 = &ph[o0-2*s], stepped with SI
avgloop:
	FACEAVG((R13)(BX*1), (SI), (R13), (SI)(BX*1), Y1, Y2)
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, R13
	ADDQ    $32, AX
	JNE     avgloop
	VZEROUPPER
	RET

// func flux2RowAVX2(out, vel *float64, n4 int)
TEXT ·flux2RowAVX2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ vel+8(FP), DX
	MOVQ n4+16(FP), AX
	SHLQ $3, AX
	ADDQ AX, DI
	ADDQ AX, DX
	NEGQ AX
flux2loop:
	VMOVUPD (DX)(AX*1), Y1
	VMULPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	JNE     flux2loop
	VZEROUPPER
	RET

// func diffAccRowAVX2(dst, hi, lo *float64, n4 int)
TEXT ·diffAccRowAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ hi+8(FP), DX
	MOVQ lo+16(FP), SI
	MOVQ n4+24(FP), AX
	SHLQ $3, AX
	ADDQ AX, DI
	ADDQ AX, DX
	ADDQ AX, SI
	NEGQ AX
diffloop:
	VMOVUPD (DX)(AX*1), Y1
	VSUBPD  (SI)(AX*1), Y1, Y1
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JNE     diffloop
	VZEROUPPER
	RET

// func fusedRowAVX2(dst, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, c1, c2 float64) float64
TEXT ·fusedRowAVX2(SB), NOSPLIT, $0-112
	MOVQ         dst+0(FP), R11
	MOVQ         ph+8(FP), SI
	MOVQ         n4+16(FP), AX
	MOVQ         sy+24(FP), BX
	MOVQ         sz+32(FP), CX
	MOVQ         vx+40(FP), DX
	MOVQ         vy+48(FP), DI
	MOVQ         vz+56(FP), R8
	MOVQ         fy+64(FP), R9
	MOVQ         fz+72(FP), R10
	VMOVSD       fxlo+80(FP), X10
	VBROADCASTSD c1+88(FP), Y11
	VBROADCASTSD c2+96(FP), Y12
	SHLQ         $3, AX
	SHLQ         $3, BX
	SHLQ         $3, CX
	ADDQ         AX, R11
	ADDQ         AX, DX
	ADDQ         AX, DI
	ADDQ         AX, R8
	ADDQ         AX, R9
	ADDQ         AX, R10
	NEGQ         AX
fusedloop:
	FLUXES
	VMOVUPD (R11)(AX*1), Y6
	VADDPD  Y1, Y6, Y6
	VADDPD  Y3, Y6, Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (R11)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, AX
	JNE     fusedloop
	VMOVSD  X10, ret+104(FP)
	VZEROUPPER
	RET

// func eulerRowAVX2(next, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, ndt, c1, c2 float64) float64
TEXT ·eulerRowAVX2(SB), NOSPLIT, $0-120
	MOVQ         next+0(FP), R11
	MOVQ         ph+8(FP), SI
	MOVQ         n4+16(FP), AX
	MOVQ         sy+24(FP), BX
	MOVQ         sz+32(FP), CX
	MOVQ         vx+40(FP), DX
	MOVQ         vy+48(FP), DI
	MOVQ         vz+56(FP), R8
	MOVQ         fy+64(FP), R9
	MOVQ         fz+72(FP), R10
	VMOVSD       fxlo+80(FP), X10
	VBROADCASTSD ndt+88(FP), Y9
	VBROADCASTSD c1+96(FP), Y11
	VBROADCASTSD c2+104(FP), Y12
	VXORPD       Y8, Y8, Y8
	SHLQ         $3, AX
	SHLQ         $3, BX
	SHLQ         $3, CX
	ADDQ         AX, R11
	ADDQ         AX, DX
	ADDQ         AX, DI
	ADDQ         AX, R8
	ADDQ         AX, R9
	ADDQ         AX, R10
	NEGQ         AX
eulerloop:
	FLUXES
	EULER
	VMOVUPD Y6, (R11)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, AX
	JNE     eulerloop
	VMOVSD  X10, ret+112(FP)
	VZEROUPPER
	RET

// func eulerDeltaRowAVX2(dst, base, ph *float64, n4, sy, sz int, vx, vy, vz, fy, fz *float64, fxlo, ndt, c1, c2 float64) float64
TEXT ·eulerDeltaRowAVX2(SB), NOSPLIT, $0-128
	MOVQ         dst+0(FP), R11
	MOVQ         base+8(FP), R12
	MOVQ         ph+16(FP), SI
	MOVQ         n4+24(FP), AX
	MOVQ         sy+32(FP), BX
	MOVQ         sz+40(FP), CX
	MOVQ         vx+48(FP), DX
	MOVQ         vy+56(FP), DI
	MOVQ         vz+64(FP), R8
	MOVQ         fy+72(FP), R9
	MOVQ         fz+80(FP), R10
	VMOVSD       fxlo+88(FP), X10
	VBROADCASTSD ndt+96(FP), Y9
	VBROADCASTSD c1+104(FP), Y11
	VBROADCASTSD c2+112(FP), Y12
	VXORPD       Y8, Y8, Y8
	SHLQ         $3, AX
	SHLQ         $3, BX
	SHLQ         $3, CX
	ADDQ         AX, R11
	ADDQ         AX, R12
	ADDQ         AX, DX
	ADDQ         AX, DI
	ADDQ         AX, R8
	ADDQ         AX, R9
	ADDQ         AX, R10
	NEGQ         AX
deltaloop:
	FLUXES
	EULER
	VSUBPD  (R12)(AX*1), Y6, Y6
	VMOVUPD (R11)(AX*1), Y0
	VADDPD  Y6, Y0, Y0
	VMOVUPD Y0, (R11)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, AX
	JNE     deltaloop
	VMOVSD  X10, ret+120(FP)
	VZEROUPPER
	RET
