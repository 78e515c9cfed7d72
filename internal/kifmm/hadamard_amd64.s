//go:build !purego

#include "textflag.h"

// The list bodies of the V-list Hadamard kernel. For each hadamardOp
// triple (ops[0], …, ops[nops-1]) in order, and elements [c0, c0+n) of the
// half spectrum: (ar, ai) += (tr, ti)·(sr, si), each operand's im panel hl
// elements after its re panel. A hadamardOp is three slice headers (72
// bytes); the data pointers sit at byte offsets 0 (a), 24 (t) and 48 (s).
// Separate VMULPD/VSUBPD/VADDPD, no FMA: every lane rounds exactly where
// hadamardGo's expression rounds. n is a positive multiple of the lane
// count, nops positive.

// func hadamardListAVX512(ops *hadamardOp, nops, c0, n, hl int)
//
// PCALIGN $64 at offset 0 pads nothing; it makes the linker start the
// function on a 64-byte boundary, so the 101-byte inner loop always spans two
// 64-byte lines, wherever the code linked before it ends. At 32 mod 64 the
// loop spans three, and a far_uniform Apply, ≈ 40 % of which is this loop,
// reads a few percent slower. hadamardListAVX2 is pinned the same way.
TEXT ·hadamardListAVX512(SB), NOSPLIT, $0-40
	PCALIGN $64
	MOVQ  ops+0(FP), R10
	MOVQ  nops+8(FP), R11
	MOVQ  c0+16(FP), R13
	MOVQ  n+24(FP), R8
	MOVQ  hl+32(FP), R12
	SHLQ  $3, R13             // byte offset of element c0
	SHLQ  $3, R8              // byte length of the chunk
	SHLQ  $3, R12             // re panel → im panel
	IMULQ $72, R11
	ADDQ  R10, R11            // end of ops
op512:
	MOVQ  0(R10), AX          // ar
	MOVQ  24(R10), CX         // tr
	MOVQ  48(R10), SI         // sr
	ADDQ  R13, AX
	ADDQ  R13, CX
	ADDQ  R13, SI
	LEAQ  (AX)(R12*1), BX     // ai
	LEAQ  (CX)(R12*1), DX     // ti
	LEAQ  (SI)(R12*1), DI     // si
	XORQ  R9, R9              // byte offset in the chunk
elem512:
	VMOVUPD (CX)(R9*1), Z0    // tr
	VMOVUPD (DX)(R9*1), Z1    // ti
	VMOVUPD (SI)(R9*1), Z2    // sr
	VMOVUPD (DI)(R9*1), Z3    // si
	VMULPD  Z2, Z0, Z4        // tr·sr
	VMULPD  Z3, Z1, Z5        // ti·si
	VSUBPD  Z5, Z4, Z4        // tr·sr − ti·si
	VADDPD  (AX)(R9*1), Z4, Z4
	VMOVUPD Z4, (AX)(R9*1)
	VMULPD  Z3, Z0, Z6        // tr·si
	VMULPD  Z2, Z1, Z7        // ti·sr
	VADDPD  Z7, Z6, Z6        // tr·si + ti·sr
	VADDPD  (BX)(R9*1), Z6, Z6
	VMOVUPD Z6, (BX)(R9*1)
	ADDQ    $64, R9
	CMPQ    R9, R8
	JLT     elem512
	ADDQ    $72, R10
	CMPQ    R10, R11
	JLT     op512
	VZEROUPPER
	RET

// func hadamardListAVX2(ops *hadamardOp, nops, c0, n, hl int)
TEXT ·hadamardListAVX2(SB), NOSPLIT, $0-40
	PCALIGN $64
	MOVQ  ops+0(FP), R10
	MOVQ  nops+8(FP), R11
	MOVQ  c0+16(FP), R13
	MOVQ  n+24(FP), R8
	MOVQ  hl+32(FP), R12
	SHLQ  $3, R13             // byte offset of element c0
	SHLQ  $3, R8              // byte length of the chunk
	SHLQ  $3, R12             // re panel → im panel
	IMULQ $72, R11
	ADDQ  R10, R11            // end of ops
op256:
	MOVQ  0(R10), AX          // ar
	MOVQ  24(R10), CX         // tr
	MOVQ  48(R10), SI         // sr
	ADDQ  R13, AX
	ADDQ  R13, CX
	ADDQ  R13, SI
	LEAQ  (AX)(R12*1), BX     // ai
	LEAQ  (CX)(R12*1), DX     // ti
	LEAQ  (SI)(R12*1), DI     // si
	XORQ  R9, R9              // byte offset in the chunk
elem256:
	VMOVUPD (CX)(R9*1), Y0    // tr
	VMOVUPD (DX)(R9*1), Y1    // ti
	VMOVUPD (SI)(R9*1), Y2    // sr
	VMOVUPD (DI)(R9*1), Y3    // si
	VMULPD  Y2, Y0, Y4        // tr·sr
	VMULPD  Y3, Y1, Y5        // ti·si
	VSUBPD  Y5, Y4, Y4        // tr·sr − ti·si
	VADDPD  (AX)(R9*1), Y4, Y4
	VMOVUPD Y4, (AX)(R9*1)
	VMULPD  Y3, Y0, Y6        // tr·si
	VMULPD  Y2, Y1, Y7        // ti·sr
	VADDPD  Y7, Y6, Y6        // tr·si + ti·sr
	VADDPD  (BX)(R9*1), Y6, Y6
	VMOVUPD Y6, (BX)(R9*1)
	ADDQ    $32, R9
	CMPQ    R9, R8
	JLT     elem256
	ADDQ    $72, R10
	CMPQ    R10, R11
	JLT     op256
	VZEROUPPER
	RET
