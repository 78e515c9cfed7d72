//go:build !purego

#include "textflag.h"

// The panel kernels put four targets in the four lanes of a YMM register and
// broadcast each source to all of them. Every operation is the packed form of
// the one the Go loop performs, in the Go expression's association and with no
// FMA, so each lane rounds exactly where the Go loop rounds. nanZero is
// y = x + (x − x); y AND NOT (y unordered y). Loads are unaligned; the
// constants come from the Go array panelConsts (ones, 1/4π, 1/8π).

// func laplacePanelAVX2(tx, ty, tz, sx, sy, sz, den, out *float64, nt, ns int)
//
// out[i] += Σ_j nanZero(c/√r²ᵢⱼ)·den[j] for nt targets, nt a positive multiple
// of 4, against ns > 0 sources in ascending order.
TEXT ·laplacePanelAVX2(SB), NOSPLIT, $0-80
	MOVQ tx+0(FP), AX
	MOVQ ty+8(FP), BX
	MOVQ tz+16(FP), CX
	MOVQ sx+24(FP), SI
	MOVQ sy+32(FP), DI
	MOVQ sz+40(FP), R8
	MOVQ den+48(FP), R9
	MOVQ out+56(FP), DX
	MOVQ nt+64(FP), R10
	MOVQ ns+72(FP), R11
	SHLQ $3, R10                        // byte length of a target panel
	SHLQ $3, R11                        // byte length of a source panel
	VMOVUPD ·panelConsts+32(SB), Y15    // c = 1/4π
	XORQ R12, R12                       // target byte offset
lgroup:
	VMOVUPD (AX)(R12*1), Y0             // x
	VMOVUPD (BX)(R12*1), Y1             // y
	VMOVUPD (CX)(R12*1), Y2             // z
	VXORPD  Y3, Y3, Y3                  // partial sums start from +0
	XORQ    R13, R13                    // source byte offset
lpair:
	VBROADCASTSD (SI)(R13*1), Y4
	VBROADCASTSD (DI)(R13*1), Y5
	VBROADCASTSD (R8)(R13*1), Y6
	VBROADCASTSD (R9)(R13*1), Y7        // d
	VSUBPD  Y4, Y0, Y4                  // dx = x − xs
	VSUBPD  Y5, Y1, Y5                  // dy
	VSUBPD  Y6, Y2, Y6                  // dz
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VADDPD  Y5, Y4, Y4                  // dx·dx + dy·dy
	VADDPD  Y6, Y4, Y4                  // r² = (dx·dx + dy·dy) + dz·dz
	VSQRTPD Y4, Y4
	VDIVPD  Y4, Y15, Y4                 // k = c/√r²
	VSUBPD  Y4, Y4, Y5                  // k − k
	VADDPD  Y5, Y4, Y4                  // k + (k − k): NaN where k was ±Inf
	VCMPPD  $3, Y4, Y4, Y5              // lanes holding NaN
	VANDNPD Y4, Y5, Y4                  // → 0
	VMULPD  Y7, Y4, Y4                  // k·d
	VADDPD  Y4, Y3, Y3
	ADDQ    $8, R13
	CMPQ    R13, R11
	JLT     lpair
	VADDPD  (DX)(R12*1), Y3, Y3         // out[i] += partial sum, once
	VMOVUPD Y3, (DX)(R12*1)
	ADDQ    $32, R12
	CMPQ    R12, R10
	JLT     lgroup
	VZEROUPPER
	RET

// func stokesGroupAVX2(tx, ty, tz, sx, sy, sz, den *float64, ns int, acc *[12]float64)
//
// One group of four targets against ns > 0 sources in ascending order:
// acc[4k+l] = component k of target l's partial sum from zero. All sixteen
// registers are live in the pair loop, so the two constants stay in memory.
TEXT ·stokesGroupAVX2(SB), NOSPLIT, $0-72
	MOVQ tx+0(FP), AX
	MOVQ ty+8(FP), BX
	MOVQ tz+16(FP), CX
	MOVQ sx+24(FP), SI
	MOVQ sy+32(FP), DI
	MOVQ sz+40(FP), R8
	MOVQ den+48(FP), R9
	MOVQ ns+56(FP), R11
	MOVQ acc+64(FP), DX
	SHLQ $3, R11                        // byte length of a source panel
	VMOVUPD (AX), Y0                    // x
	VMOVUPD (BX), Y1                    // y
	VMOVUPD (CX), Y2                    // z
	VXORPD  Y3, Y3, Y3                  // partial sums start from +0
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	XORQ    R13, R13                    // source byte offset
spair:
	VBROADCASTSD (SI)(R13*1), Y6
	VBROADCASTSD (DI)(R13*1), Y7
	VBROADCASTSD (R8)(R13*1), Y8
	VSUBPD  Y6, Y0, Y6                  // dx = x − xs
	VSUBPD  Y7, Y1, Y7                  // dy
	VSUBPD  Y8, Y2, Y8                  // dz
	VMULPD  Y6, Y6, Y9
	VMULPD  Y7, Y7, Y10
	VADDPD  Y10, Y9, Y9                 // dx·dx + dy·dy
	VMULPD  Y8, Y8, Y10
	VADDPD  Y10, Y9, Y9                 // r² = (dx·dx + dy·dy) + dz·dz
	VSQRTPD Y9, Y10
	VMOVUPD ·panelConsts+0(SB), Y11     // ones
	VDIVPD  Y10, Y11, Y10               // 1/√r²
	VSUBPD  Y10, Y10, Y11
	VADDPD  Y11, Y10, Y10
	VCMPPD  $3, Y10, Y10, Y11
	VANDNPD Y10, Y11, Y10               // invR = nanZero(1/√r²)
	VDIVPD  Y9, Y10, Y11                // invR/r²
	VSUBPD  Y11, Y11, Y12
	VADDPD  Y12, Y11, Y11
	VCMPPD  $3, Y11, Y11, Y12
	VANDNPD Y11, Y12, Y11               // invR3 = nanZero(invR/r²)
	VBROADCASTSD (R9), Y12              // d0
	VBROADCASTSD 8(R9), Y13             // d1
	VBROADCASTSD 16(R9), Y9             // d2 (r² is dead)
	VMULPD  Y12, Y6, Y14                // dx·d0
	VMULPD  Y13, Y7, Y15                // dy·d1
	VADDPD  Y15, Y14, Y14
	VMULPD  Y9, Y8, Y15                 // dz·d2
	VADDPD  Y15, Y14, Y14               // dot = (dx·d0 + dy·d1) + dz·d2
	VMULPD  Y14, Y6, Y15                // dx·dot
	VMULPD  Y11, Y15, Y15               // (dx·dot)·invR3
	VMULPD  Y10, Y12, Y12               // d0·invR
	VADDPD  Y15, Y12, Y12
	VMULPD  ·panelConsts+64(SB), Y12, Y12 // c·(d0·invR + dx·dot·invR3), c = 1/8π
	VADDPD  Y12, Y3, Y3
	VMULPD  Y14, Y7, Y15                // dy·dot
	VMULPD  Y11, Y15, Y15
	VMULPD  Y10, Y13, Y13               // d1·invR
	VADDPD  Y15, Y13, Y13
	VMULPD  ·panelConsts+64(SB), Y13, Y13
	VADDPD  Y13, Y4, Y4
	VMULPD  Y14, Y8, Y15                // dz·dot
	VMULPD  Y11, Y15, Y15
	VMULPD  Y10, Y9, Y9                 // d2·invR
	VADDPD  Y15, Y9, Y9
	VMULPD  ·panelConsts+64(SB), Y9, Y9
	VADDPD  Y9, Y5, Y5
	ADDQ    $24, R9
	ADDQ    $8, R13
	CMPQ    R13, R11
	JLT     spair
	VMOVUPD Y3, (DX)
	VMOVUPD Y4, 32(DX)
	VMOVUPD Y5, 64(DX)
	VZEROUPPER
	RET

// The pair kernels serve both directions of a pair from one kernel value:
// four a-targets in the lanes as above, each b point broadcast. The a side is
// the panel kernel's, instruction for instruction. b_j's term from a_l is
// lane l of one more packed product, and its running sum in bpart[j] takes
// the four lanes in lane order with scalar adds (VPERMILPD and VEXTRACTF128
// bring lanes 1–3 down), so across the groups the caller hands over it sees
// the a-targets in ascending order, as EvalPanel(b ← a) does.

// func laplacePairAVX2(ax, ay, az, bx, by, bz, aden, bden, aout, bpart *float64, na, nb int)
//
// aout[i] += Σ_j k_ij·bden[j] and bpart[j] += Σ_i k_ij·aden[i] in ascending i,
// k_ij = nanZero(c/√r²ᵢⱼ), for na a-targets, na a positive multiple of 4,
// against nb > 0 b points. The a-group's densities and output are addressed
// through the frame once per group, which leaves a register for each b stream.
TEXT ·laplacePairAVX2(SB), NOSPLIT, $0-96
	MOVQ ax+0(FP), AX
	MOVQ ay+8(FP), BX
	MOVQ az+16(FP), CX
	MOVQ bx+24(FP), SI
	MOVQ by+32(FP), DI
	MOVQ bz+40(FP), R8
	MOVQ bden+56(FP), R9
	MOVQ bpart+72(FP), R10
	MOVQ na+80(FP), DX
	MOVQ nb+88(FP), R11
	SHLQ $3, DX                         // byte length of the a panel
	SHLQ $3, R11                        // byte length of the b panel
	VMOVUPD ·panelConsts+32(SB), Y15    // c = 1/4π
	XORQ R12, R12                       // a byte offset
pgroup:
	VMOVUPD (AX)(R12*1), Y0             // x
	VMOVUPD (BX)(R12*1), Y1             // y
	VMOVUPD (CX)(R12*1), Y2             // z
	MOVQ    aden+48(FP), R13
	VMOVUPD (R13)(R12*1), Y8            // the four a densities
	VXORPD  Y3, Y3, Y3                  // a partial sums start from +0
	XORQ    R13, R13                    // b byte offset
ppair:
	VBROADCASTSD (SI)(R13*1), Y4
	VBROADCASTSD (DI)(R13*1), Y5
	VBROADCASTSD (R8)(R13*1), Y6
	VBROADCASTSD (R9)(R13*1), Y7        // bden[j]
	VSUBPD  Y4, Y0, Y4                  // dx = x − xb
	VSUBPD  Y5, Y1, Y5                  // dy
	VSUBPD  Y6, Y2, Y6                  // dz
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VADDPD  Y5, Y4, Y4                  // dx·dx + dy·dy
	VADDPD  Y6, Y4, Y4                  // r² = (dx·dx + dy·dy) + dz·dz
	VSQRTPD Y4, Y4
	VDIVPD  Y4, Y15, Y4                 // k = c/√r²
	VSUBPD  Y4, Y4, Y5
	VADDPD  Y5, Y4, Y4
	VCMPPD  $3, Y4, Y4, Y5
	VANDNPD Y4, Y5, Y4                  // nanZero(k)
	VMULPD  Y7, Y4, Y7                  // k·bden[j]
	VADDPD  Y7, Y3, Y3
	VMULPD  Y8, Y4, Y4                  // lane l: k·aden[l], b_j's term from a_l
	VADDSD  (R10)(R13*1), X4, X5        // bpart[j] + lane 0
	VPERMILPD $1, X4, X6
	VADDSD  X6, X5, X5                  // + lane 1
	VEXTRACTF128 $1, Y4, X4
	VADDSD  X4, X5, X5                  // + lane 2
	VPERMILPD $1, X4, X6
	VADDSD  X6, X5, X5                  // + lane 3
	VMOVSD  X5, (R10)(R13*1)
	ADDQ    $8, R13
	CMPQ    R13, R11
	JLT     ppair
	MOVQ    aout+64(FP), R13
	VADDPD  (R13)(R12*1), Y3, Y3        // aout[i] += partial sum, once
	VMOVUPD Y3, (R13)(R12*1)
	ADDQ    $32, R12
	CMPQ    R12, DX
	JLT     pgroup
	VZEROUPPER
	RET
