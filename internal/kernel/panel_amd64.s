//go:build !purego

#include "textflag.h"

// The panel kernels put four targets in the four lanes of a YMM register and
// broadcast each source to all of them. Every operation is the packed form of
// the one the Go loop performs, in the Go expression's association and with no
// FMA, so each lane rounds exactly where the Go loop rounds. The one exception
// is the Yukawa kernels' exp, which is math.Exp's own FMA path (EXP below).
// nanZero is y = x + (x − x); y AND NOT (y unordered y). Loads are unaligned;
// the constants come from the Go arrays panelConsts (ones, 1/4π, 1/8π),
// expConsts and expBias.
//
// Each kernel starts with PCALIGN $64, as hadamardListAVX512 does: it makes
// the linker start the function on a 64-byte boundary, so its loops'
// placement across fetch lines does not depend on the size of the code
// linked before it. At offset 0 it pads nothing; the two Yukawa kernels have
// a frame, and there it pads the assembler's 11-byte prologue to 64 bytes
// with six NOPs, once per call.

// The Yukawa kernels' macros come first, ahead of every TEXT block (go vet
// reads a macro's frame references as those of the TEXT block above it): EXP
// and EXPFIX, the four-lane exp, and YPASSES, which the two Yukawa kernels
// share. The kernels themselves are at the end of the file.

// EXP sets Y5 = e^Y5 lane by lane, bit for bit what math.Exp returns when it
// takes its FMA path ($GOROOT/src/math/exp_amd64.s, label avxfma), which the
// caller checks it does (yukawaAVX2). It follows that path step for step:
// k = LOG2E·x rounded to the nearest integer by CVTSD2SL's rule, the reduced
// argument r = (x − k·LN2U − k·LN2L)·1/16 in two fused steps, the Taylor
// polynomial by fused multiply-adds, three squarings (y+2)·y and a fourth
// fused with the +1, and the scale by 2^k built from the bits of the biased
// exponent b = k + 0x3FF. Where every lane's b is in [1, 0x7FE], math.Exp's
// normal path, that scale is all; otherwise EXPFIX runs all four lanes
// through math.Exp's other exits. Clobbers Y6 and Y9–Y13; a function that
// uses EXP places EXPFIX after its RET.
#define EXP \
	VMULPD  ·expConsts+0(SB), Y5, Y6          /* LOG2E·x */ \
	VCVTPD2DQY Y6, X9                         /* k */ \
	VCVTDQ2PD X9, Y6                          /* float64(k) */ \
	VPADDD  ·expBias+0(SB), X9, X9            /* b = k + 0x3FF */ \
	VMOVUPD Y5, Y10 \
	VFNMADD231PD ·expConsts+32(SB), Y6, Y10   /* x − k·LN2U */ \
	VFNMADD231PD ·expConsts+64(SB), Y6, Y10   /* − k·LN2L */ \
	VMULPD  ·expConsts+96(SB), Y10, Y10       /* r = ·1/16 */ \
	VMOVUPD ·expConsts+128(SB), Y11           /* p = 1/8! */ \
	VFMADD213PD ·expConsts+160(SB), Y10, Y11  /* p = p·r + 1/7! */ \
	VFMADD213PD ·expConsts+192(SB), Y10, Y11 \
	VFMADD213PD ·expConsts+224(SB), Y10, Y11 \
	VFMADD213PD ·expConsts+256(SB), Y10, Y11 \
	VFMADD213PD ·expConsts+288(SB), Y10, Y11 \
	VFMADD213PD ·expConsts+320(SB), Y10, Y11 \
	VFMADD213PD ·expConsts+352(SB), Y10, Y11  /* p = p·r + 1 */ \
	VMULPD  Y11, Y10, Y10                     /* y = r·p */ \
	VADDPD  ·expConsts+384(SB), Y10, Y11 \
	VMULPD  Y11, Y10, Y10                     /* y = y·(y+2) */ \
	VADDPD  ·expConsts+384(SB), Y10, Y11 \
	VMULPD  Y11, Y10, Y10 \
	VADDPD  ·expConsts+384(SB), Y10, Y11 \
	VMULPD  Y11, Y10, Y10 \
	VADDPD  ·expConsts+384(SB), Y10, Y11 \
	VFMADD213PD ·expConsts+352(SB), Y11, Y10  /* y = (y+2)·y + 1 */ \
	VMOVDQU ·expBias+32(SB), X12 \
	VPCMPGTD X9, X12, X12                     /* b ≤ 0 */ \
	VPCMPGTD ·expBias+64(SB), X9, X13         /* b ≥ 0x7FF */ \
	VPOR    X13, X12, X12 \
	VPTEST  X12, X12 \
	JNE     expfix \
	VPMOVSXDQ X9, Y12 \
	VPSLLQ  $52, Y12, Y12                     /* 2^k */ \
	VMULPD  Y12, Y10, Y5 \
expback:

// EXPFIX is EXP's way out of math.Exp's normal path, the four lanes of y and
// b at once: where b ≤ 0 it scales in two steps, by 2^(b−1) and then 2^−1022,
// as math.Exp's label denormal does (where b > 0 the second factor is 1,
// which is exact); b < −52 gives +0, b ≥ 0x7FF or x > Overflow gives +Inf,
// and a NaN x is returned as it is. −Inf falls out as +0 and +Inf as +Inf.
#define EXPFIX \
expfix: \
	VMOVDQU ·expBias+32(SB), X12 \
	VPCMPGTD X9, X12, X12                     /* b ≤ 0 */ \
	VPAND   ·expBias+16(SB), X12, X12         /* 0x3FE there, else 0 */ \
	VPADDD  X12, X9, X13                      /* b, or b + 0x3FE */ \
	VMOVDQU ·expBias+0(SB), X6 \
	VPSUBD  X12, X6, X12                      /* 0x3FF, or 1 */ \
	VPMOVSXDQ X13, Y13 \
	VPSLLQ  $52, Y13, Y13 \
	VPMOVSXDQ X12, Y12 \
	VPSLLQ  $52, Y12, Y12 \
	VMULPD  Y13, Y10, Y10                     /* ·2^k, or ·2^(b−1) */ \
	VMULPD  Y12, Y10, Y10                     /* ·1, or ·2^−1022 */ \
	VMOVDQU ·expBias+48(SB), X12 \
	VPCMPGTD X9, X12, X12                     /* b < −52 */ \
	VPMOVSXDQ X12, Y12 \
	VANDNPD Y10, Y12, Y10                     /* → +0 */ \
	VPCMPGTD ·expBias+64(SB), X9, X13         /* b ≥ 0x7FF */ \
	VPMOVSXDQ X13, Y13 \
	VCMPPD  $0x1e, ·expConsts+416(SB), Y5, Y12 /* x > Overflow */ \
	VORPD   Y13, Y12, Y12 \
	VBLENDVPD Y12, ·expConsts+448(SB), Y10, Y10 /* → +Inf */ \
	VCMPPD  $3, Y5, Y5, Y12                   /* x NaN */ \
	VBLENDVPD Y12, Y5, Y10, Y5                /* → x */ \
	JMP     expback

// YPASSES is a block's first two passes, for the four targets in Y0–Y2
// against the R14/8 sources at SI, DI and R8: r and −λ·r (−λ in Y14) into
// the frame's two buffers, then e^(−λ·r) in place. Clobbers R13, Y4–Y6 and
// what EXP clobbers.
#define YPASSES \
	XORQ    R13, R13                    /* byte offset in the block */ \
ydist: \
	VBROADCASTSD (SI)(R13*1), Y4 \
	VBROADCASTSD (DI)(R13*1), Y5 \
	VBROADCASTSD (R8)(R13*1), Y6 \
	VSUBPD  Y4, Y0, Y4                  /* dx = x − xs */ \
	VSUBPD  Y5, Y1, Y5                  /* dy */ \
	VSUBPD  Y6, Y2, Y6                  /* dz */ \
	VMULPD  Y4, Y4, Y4 \
	VMULPD  Y5, Y5, Y5 \
	VMULPD  Y6, Y6, Y6 \
	VADDPD  Y5, Y4, Y4                  /* dx·dx + dy·dy */ \
	VADDPD  Y6, Y4, Y4                  /* r² = (dx·dx + dy·dy) + dz·dz */ \
	VSQRTPD Y4, Y4                      /* r */ \
	VMOVUPD Y4, (SP)(R13*4) \
	VMULPD  Y4, Y14, Y4                 /* −λ·r */ \
	VMOVUPD Y4, 256(SP)(R13*4) \
	ADDQ    $8, R13 \
	CMPQ    R13, R14 \
	JLT     ydist \
	XORQ    R13, R13 \
yexp: \
	VMOVUPD 256(SP)(R13*4), Y5 \
	EXP \
	VMOVUPD Y5, 256(SP)(R13*4)          /* e^(−λr) */ \
	ADDQ    $8, R13 \
	CMPQ    R13, R14 \
	JLT     yexp

// func laplacePanelAVX2(tx, ty, tz, sx, sy, sz, den, out *float64, nt, ns int)
//
// out[i] += Σ_j nanZero(c/√r²ᵢⱼ)·den[j] for nt targets, nt a positive multiple
// of 4, against ns > 0 sources in ascending order.
TEXT ·laplacePanelAVX2(SB), NOSPLIT, $0-80
	PCALIGN $64
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
	PCALIGN $64
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
	PCALIGN $64
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

// func expAVX2(x, y *float64, n int)
//
// y[i] = e^x[i] for n elements, n a positive multiple of 4.
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
egroup:
	VMOVUPD (SI)(AX*1), Y5
	EXP
	VMOVUPD Y5, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     egroup
	VZEROUPPER
	RET
	EXPFIX

// The Yukawa kernels take the sources a block of at most 8 at a time and make
// three passes over a block, through two buffers in the frame: r and −λ·r
// (at 0(SP) and 256(SP), one 32-byte row per source), then e^(−λ·r) in place
// of −λ·r, then the kernel values and the sums. Each pass is a loop of
// independent iterations: in one loop from coordinates to sum, each source's
// chain of some 190 cycles of latency held its ≈ 55 instructions in the
// reorder buffer, and too few sources were in flight to fill the FP ports.

// func yukawaPanelAVX2(tx, ty, tz, sx, sy, sz, den, out *float64, nt, ns int, nlam float64)
//
// laplacePanelAVX2 with k = nanZero(c·e^(nlam·r)/r), r = √r², nlam = −λ:
// out[i] += Σ_j k_ij·den[j] for nt targets, nt a positive multiple of 4,
// against ns > 0 sources in ascending order.
TEXT ·yukawaPanelAVX2(SB), NOSPLIT, $512-88
	PCALIGN $64
	MOVQ tx+0(FP), AX
	MOVQ ty+8(FP), BX
	MOVQ tz+16(FP), CX
	MOVQ out+56(FP), DX
	MOVQ nt+64(FP), R10
	SHLQ $3, R10                        // byte length of a target panel
	VMOVUPD ·panelConsts+32(SB), Y15    // c = 1/4π
	VBROADCASTSD nlam+80(FP), Y14       // −λ
	XORQ R12, R12                       // target byte offset
ygroup:
	VMOVUPD (AX)(R12*1), Y0             // x
	VMOVUPD (BX)(R12*1), Y1             // y
	VMOVUPD (CX)(R12*1), Y2             // z
	VXORPD  Y3, Y3, Y3                  // partial sums start from +0
	MOVQ sx+24(FP), SI
	MOVQ sy+32(FP), DI
	MOVQ sz+40(FP), R8
	MOVQ den+48(FP), R9
	MOVQ ns+72(FP), R11
	SHLQ $3, R11                        // source bytes left
yblock:
	MOVQ    $64, R14
	CMPQ    R11, R14
	CMOVQLT R11, R14                    // the block's bytes
	YPASSES
	XORQ    R13, R13
ysum:
	VMULPD  256(SP)(R13*4), Y15, Y5     // c·e^(−λr)
	VDIVPD  (SP)(R13*4), Y5, Y5         // k = c·e^(−λr)/r
	VSUBPD  Y5, Y5, Y6
	VADDPD  Y6, Y5, Y5
	VCMPPD  $3, Y5, Y5, Y6
	VANDNPD Y5, Y6, Y5                  // nanZero(k)
	VBROADCASTSD (R9)(R13*1), Y7        // d
	VMULPD  Y7, Y5, Y5                  // k·d
	VADDPD  Y5, Y3, Y3
	ADDQ    $8, R13
	CMPQ    R13, R14
	JLT     ysum
	ADDQ    R14, SI
	ADDQ    R14, DI
	ADDQ    R14, R8
	ADDQ    R14, R9
	SUBQ    R14, R11
	JNZ     yblock
	VADDPD  (DX)(R12*1), Y3, Y3         // out[i] += partial sum, once
	VMOVUPD Y3, (DX)(R12*1)
	ADDQ    $32, R12
	CMPQ    R12, R10
	JLT     ygroup
	VZEROUPPER
	RET
	EXPFIX

// func yukawaPairAVX2(ax, ay, az, bx, by, bz, aden, bden, aout, bpart *float64, na, nb int, nlam float64)
//
// laplacePairAVX2 with the kernel value of yukawaPanelAVX2, in its blocks.
TEXT ·yukawaPairAVX2(SB), NOSPLIT, $512-104
	PCALIGN $64
	MOVQ ax+0(FP), AX
	MOVQ ay+8(FP), BX
	MOVQ az+16(FP), CX
	MOVQ na+80(FP), DX
	SHLQ $3, DX                         // byte length of the a panel
	VMOVUPD ·panelConsts+32(SB), Y15    // c = 1/4π
	VBROADCASTSD nlam+96(FP), Y14       // −λ
	XORQ R12, R12                       // a byte offset
qgroup:
	VMOVUPD (AX)(R12*1), Y0             // x
	VMOVUPD (BX)(R12*1), Y1             // y
	VMOVUPD (CX)(R12*1), Y2             // z
	MOVQ    aden+48(FP), R13
	VMOVUPD (R13)(R12*1), Y8            // the four a densities
	VXORPD  Y3, Y3, Y3                  // a partial sums start from +0
	MOVQ bx+24(FP), SI
	MOVQ by+32(FP), DI
	MOVQ bz+40(FP), R8
	MOVQ bden+56(FP), R9
	MOVQ bpart+72(FP), R10
	MOVQ nb+88(FP), R11
	SHLQ $3, R11                        // b bytes left
qblock:
	MOVQ    $64, R14
	CMPQ    R11, R14
	CMOVQLT R11, R14                    // the block's bytes
	YPASSES
	XORQ    R13, R13
qsum:
	VMULPD  256(SP)(R13*4), Y15, Y5     // c·e^(−λr)
	VDIVPD  (SP)(R13*4), Y5, Y4         // k = c·e^(−λr)/r
	VSUBPD  Y4, Y4, Y5
	VADDPD  Y5, Y4, Y4
	VCMPPD  $3, Y4, Y4, Y5
	VANDNPD Y4, Y5, Y4                  // nanZero(k)
	VBROADCASTSD (R9)(R13*1), Y7        // bden[j]
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
	CMPQ    R13, R14
	JLT     qsum
	ADDQ    R14, SI
	ADDQ    R14, DI
	ADDQ    R14, R8
	ADDQ    R14, R9
	ADDQ    R14, R10
	SUBQ    R14, R11
	JNZ     qblock
	MOVQ    aout+64(FP), R13
	VADDPD  (R13)(R12*1), Y3, Y3        // aout[i] += partial sum, once
	VMOVUPD Y3, (R13)(R12*1)
	ADDQ    $32, R12
	CMPQ    R12, DX
	JLT     qgroup
	VZEROUPPER
	RET
	EXPFIX
