//go:build !purego

#include "textflag.h"

// func hadamardAVX2(ar, ai, tr, ti, sr, si *float64, n int)
//
// Four lanes of (ar, ai) += (tr, ti)·(sr, si) per iteration over n elements,
// n a positive multiple of 4. Separate VMULPD/VSUBPD/VADDPD, no FMA: every
// lane rounds exactly where the Go loop's expression rounds.
TEXT ·hadamardAVX2(SB), NOSPLIT, $0-56
	MOVQ ar+0(FP), AX
	MOVQ ai+8(FP), BX
	MOVQ tr+16(FP), CX
	MOVQ ti+24(FP), DX
	MOVQ sr+32(FP), SI
	MOVQ si+40(FP), DI
	MOVQ n+48(FP), R8
	SHLQ $3, R8              // byte length of a panel
	XORQ R9, R9              // byte offset
loop:
	VMOVUPD (CX)(R9*1), Y0   // tr
	VMOVUPD (DX)(R9*1), Y1   // ti
	VMOVUPD (SI)(R9*1), Y2   // sr
	VMOVUPD (DI)(R9*1), Y3   // si
	VMULPD  Y2, Y0, Y4       // tr·sr
	VMULPD  Y3, Y1, Y5       // ti·si
	VSUBPD  Y5, Y4, Y4       // tr·sr − ti·si
	VADDPD  (AX)(R9*1), Y4, Y4
	VMOVUPD Y4, (AX)(R9*1)
	VMULPD  Y3, Y0, Y6       // tr·si
	VMULPD  Y2, Y1, Y7       // ti·sr
	VADDPD  Y7, Y6, Y6       // tr·si + ti·sr
	VADDPD  (BX)(R9*1), Y6, Y6
	VMOVUPD Y6, (BX)(R9*1)
	ADDQ    $32, R9
	CMPQ    R9, R8
	JLT     loop
	VZEROUPPER
	RET
