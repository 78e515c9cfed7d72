//go:build !purego

#include "textflag.h"

// The packed kernel puts four rows of a Packed in the four lanes of a YMM
// register: one column step of a four-row group is one 32-byte load from the
// group's panel, times x[j] broadcast. Each lane sums its row from +0 over
// ascending j with a separate VMULPD and VADDPD (no FMA), so it rounds
// exactly where Packed's Go loop and Mat.MulVec round. Four groups are in
// flight — four independent add chains hide the add latency — and the last
// groups of a count not a multiple of four run one at a time.
//
// PCALIGN $64 at offset 0 pads nothing and makes the linker start the
// function on a 64-byte boundary, so the loop's placement across fetch lines
// does not depend on the size of the code linked before it.

// func packedAVX2(pk, x, y *float64, groups, cols int, add bool)
//
// For groups > 0 four-row panels of cols > 0 columns at pk: y[4g+l] = the
// sum of row 4g+l times x, or y[4g+l] += it, once, when add is set.
TEXT ·packedAVX2(SB), NOSPLIT, $0-41
	PCALIGN $64
	MOVQ    pk+0(FP), AX
	MOVQ    x+8(FP), BX
	MOVQ    y+16(FP), CX
	MOVQ    groups+24(FP), DX
	MOVQ    cols+32(FP), SI
	MOVBLZX add+40(FP), DI
	SHLQ    $3, SI                      // byte length of x
	MOVQ    SI, R8
	SHLQ    $2, R8                      // byte length of one group's panel
quad:
	CMPQ    DX, $4
	JLT     single
	LEAQ    (AX)(R8*1), R9              // the next three groups' panels
	LEAQ    (R9)(R8*1), R11
	LEAQ    (R11)(R8*1), R12
	VXORPD  Y0, Y0, Y0                  // row sums start from +0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	XORQ    R10, R10                    // x byte offset; the panels' is 4×
qloop:
	VBROADCASTSD (BX)(R10*1), Y4        // x[j]
	VMULPD  (AX)(R10*4), Y4, Y5         // A[4g+l][j]·x[j]
	VADDPD  Y5, Y0, Y0
	VMULPD  (R9)(R10*4), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R11)(R10*4), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R12)(R10*4), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $8, R10
	CMPQ    R10, SI
	JLT     qloop
	TESTQ   DI, DI
	JZ      qstore
	VADDPD  (CX), Y0, Y0                // y[i] += sum
	VADDPD  32(CX), Y1, Y1
	VADDPD  64(CX), Y2, Y2
	VADDPD  96(CX), Y3, Y3
qstore:
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, 64(CX)
	VMOVUPD Y3, 96(CX)
	LEAQ    (R12)(R8*1), AX
	ADDQ    $128, CX
	SUBQ    $4, DX
	JMP     quad
single:
	TESTQ   DX, DX
	JZ      done
	VXORPD  Y0, Y0, Y0
	XORQ    R10, R10
sloop:
	VBROADCASTSD (BX)(R10*1), Y4
	VMULPD  (AX)(R10*4), Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $8, R10
	CMPQ    R10, SI
	JLT     sloop
	TESTQ   DI, DI
	JZ      sstore
	VADDPD  (CX), Y0, Y0
sstore:
	VMOVUPD Y0, (CX)
	ADDQ    R8, AX
	ADDQ    $32, CX
	DECQ    DX
	JMP     single
done:
	VZEROUPPER
	RET

// func cpuProbe() (avx2, avx512 bool)
//
// One probe, two flags. Both need the OS to save the vector state:
// CPUID.1:ECX OSXSAVE+AVX, then XCR0. AVX2 is usable when the CPU has it
// (CPUID.7.0:EBX[5]) and XCR0[2:1] = 11b (XMM, YMM); AVX-512 when the CPU
// has AVX512F (CPUID.7.0:EBX[16]) and XCR0 & 0xE6 = 0xE6 (XMM, YMM, the
// opmask registers and both halves of the ZMM state).
TEXT ·cpuProbe(SB), NOSPLIT, $0-2
	MOVB  $0, avx2+0(FP)
	MOVB  $0, avx512+1(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   probed
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX    // OSXSAVE | AVX
	CMPL  CX, $0x18000000
	JNE   probed
	XORL  CX, CX
	XGETBV
	MOVL  AX, R8             // XCR0, low half
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	MOVL  R8, AX
	ANDL  $6, AX             // XMM and YMM state enabled
	CMPL  AX, $6
	JNE   probed
	BTL   $5, BX
	JCC   avx512
	MOVB  $1, avx2+0(FP)
avx512:
	ANDL  $0xE6, R8          // ... and opmask, ZMM_Hi256, Hi16_ZMM state
	CMPL  R8, $0xE6
	JNE   probed
	BTL   $16, BX
	JCC   probed
	MOVB  $1, avx512+1(FP)
probed:
	RET
