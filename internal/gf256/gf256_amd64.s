//go:build amd64 && gc

#include "textflag.h"

// Low-nibble lane mask used by both kernels.
DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA, $16

// func cpuidFeatureECX() (ecx uint32)
TEXT ·cpuidFeatureECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx+0(FP)
	RET

// func galXorSSE2(dst, src *byte, n int)
//
// dst[i] ^= src[i] for i in [0, n), n a positive multiple of 16.
// SSE2 only, so available on every amd64.
TEXT ·galXorSSE2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

xorLoop:
	MOVOU (SI), X0
	MOVOU (DI), X1
	PXOR  X1, X0
	MOVOU X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	SUBQ  $16, CX
	JNZ   xorLoop
	RET

// func galMulAddSSSE3(tab, dst, src *byte, n int)
//
// dst[i] ^= mul(src[i]) for i in [0, n), n a positive multiple of 16.
// tab is the 32-byte nibble product table: products of the coefficient
// with the 16 low-nibble values, then with the 16 high-nibble values.
// Each 16-byte block: split src bytes into nibbles, PSHUFB each half
// through its table, XOR the halves and the destination.
TEXT ·galMulAddSSSE3(SB), NOSPLIT, $0-32
	MOVQ  tab+0(FP), AX
	MOVQ  dst+8(FP), DI
	MOVQ  src+16(FP), SI
	MOVQ  n+24(FP), CX
	MOVOU (AX), X6            // low-nibble product table
	MOVOU 16(AX), X7          // high-nibble product table
	MOVOU nibbleMask<>(SB), X5

mulAddLoop:
	MOVOU  (SI), X0
	MOVO   X0, X1
	PSRLQ  $4, X1
	PAND   X5, X0             // low nibbles
	PAND   X5, X1             // high nibbles
	MOVO   X6, X2
	MOVO   X7, X3
	PSHUFB X0, X2             // products of low nibbles
	PSHUFB X1, X3             // products of high nibbles
	PXOR   X3, X2
	MOVOU  (DI), X4
	PXOR   X4, X2
	MOVOU  X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $16, CX
	JNZ    mulAddLoop
	RET

// func galMulSSSE3(tab, row *byte, n int)
//
// row[i] = mul(row[i]) for i in [0, n), n a positive multiple of 16.
TEXT ·galMulSSSE3(SB), NOSPLIT, $0-24
	MOVQ  tab+0(FP), AX
	MOVQ  row+8(FP), DI
	MOVQ  n+16(FP), CX
	MOVOU (AX), X6
	MOVOU 16(AX), X7
	MOVOU nibbleMask<>(SB), X5

mulLoop:
	MOVOU  (DI), X0
	MOVO   X0, X1
	PSRLQ  $4, X1
	PAND   X5, X0
	PAND   X5, X1
	MOVO   X6, X2
	MOVO   X7, X3
	PSHUFB X0, X2
	PSHUFB X1, X3
	PXOR   X3, X2
	MOVOU  X2, (DI)
	ADDQ   $16, DI
	SUBQ   $16, CX
	JNZ    mulLoop
	RET

// func cpuidLeaf7() (ebx, ecx uint32)
TEXT ·cpuidLeaf7(SB), NOSPLIT, $0-8
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ebx+0(FP)
	MOVL CX, ecx+4(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func galXorAVX2(dst, src *byte, n int)
//
// dst[i] ^= src[i] for i in [0, n), n a positive multiple of 32.
// 64 bytes per main-loop step, one 32-byte step for the remainder.
TEXT ·galXorAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

	SUBQ $64, CX
	JL   xorTail32

xorLoop64:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	JGE     xorLoop64

xorTail32:
	ADDQ $64, CX
	JZ   xorDone
	// n is a multiple of 32, so exactly 32 bytes remain.
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

xorDone:
	VZEROUPPER
	RET

// func galMulAddAVX2(tab, dst, src *byte, n int)
//
// dst[i] ^= mul(src[i]) for i in [0, n), n a positive multiple of 32.
// The 16-byte nibble product tables are broadcast to both ymm lanes;
// VPSHUFB shuffles within each lane, so the SSSE3 scheme carries over
// unchanged at twice the width.
TEXT ·galMulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ           tab+0(FP), AX
	MOVQ           dst+8(FP), DI
	MOVQ           src+16(FP), SI
	MOVQ           n+24(FP), CX
	VBROADCASTI128 (AX), Y6           // low-nibble product table
	VBROADCASTI128 16(AX), Y7         // high-nibble product table
	VBROADCASTI128 nibbleMask<>(SB), Y5

mulAddLoop32:
	VMOVDQU (SI), Y0
	VPSRLQ  $4, Y0, Y1
	VPAND   Y5, Y0, Y0                // low nibbles
	VPAND   Y5, Y1, Y1                // high nibbles
	VPSHUFB Y0, Y6, Y2                // products of low nibbles
	VPSHUFB Y1, Y7, Y3                // products of high nibbles
	VPXOR   Y3, Y2, Y2
	VPXOR   (DI), Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mulAddLoop32
	VZEROUPPER
	RET

// func galMulAVX2(tab, row *byte, n int)
//
// row[i] = mul(row[i]) for i in [0, n), n a positive multiple of 32.
TEXT ·galMulAVX2(SB), NOSPLIT, $0-24
	MOVQ           tab+0(FP), AX
	MOVQ           row+8(FP), DI
	MOVQ           n+16(FP), CX
	VBROADCASTI128 (AX), Y6
	VBROADCASTI128 16(AX), Y7
	VBROADCASTI128 nibbleMask<>(SB), Y5

mulLoop32:
	VMOVDQU (DI), Y0
	VPSRLQ  $4, Y0, Y1
	VPAND   Y5, Y0, Y0
	VPAND   Y5, Y1, Y1
	VPSHUFB Y0, Y6, Y2
	VPSHUFB Y1, Y7, Y3
	VPXOR   Y3, Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mulLoop32
	VZEROUPPER
	RET

// The AVX-512 kernels take any n > 0. They run 128 bytes per main-loop
// step, one 64-byte step if 64 or more remain, and finish the last
// n mod 64 bytes with byte-masked loads and stores: K1 holds one bit per
// remaining byte, masked-off lanes are neither written nor faulted on,
// so no scalar tail is needed. A multiply is one VGF2P8AFFINEQB against
// the coefficient's 8x8 bit matrix (affTab[c]) broadcast to every
// qword; its constant term is 0, so a zeroed lane maps to 0.

// func galXorAVX512(dst, src *byte, n int)
//
// dst[i] ^= src[i] for i in [0, n).
TEXT ·galXorAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

	SUBQ $128, CX
	JL   xor512Tail

xor512Loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ      $128, SI
	ADDQ      $128, DI
	SUBQ      $128, CX
	JGE       xor512Loop

xor512Tail:
	ADDQ $128, CX
	CMPQ CX, $64
	JL   xor512Mask
	VMOVDQU64 (SI), Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $64, CX

xor512Mask:
	TESTQ CX, CX
	JZ    xor512Done
	MOVQ  $-1, AX
	SHLQ  CX, AX
	NOTQ  AX
	KMOVQ AX, K1
	VMOVDQU8.Z (SI), K1, Z0
	VMOVDQU8.Z (DI), K1, Z1
	VPXORQ     Z1, Z0, Z0
	VMOVDQU8   Z0, K1, (DI)

xor512Done:
	VZEROUPPER
	RET

// func galMulAddGFNI(mat *uint64, dst, src *byte, n int)
//
// dst[i] ^= c*src[i] for i in [0, n), mat pointing at affTab[c].
TEXT ·galMulAddGFNI(SB), NOSPLIT, $0-32
	MOVQ         mat+0(FP), AX
	MOVQ         dst+8(FP), DI
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), CX
	VPBROADCASTQ (AX), Z7

	SUBQ $128, CX
	JL   mulAdd512Tail

mulAdd512Loop:
	VMOVDQU64      (SI), Z0
	VMOVDQU64      64(SI), Z1
	VGF2P8AFFINEQB $0, Z7, Z0, Z0
	VGF2P8AFFINEQB $0, Z7, Z1, Z1
	VPXORQ         (DI), Z0, Z0
	VPXORQ         64(DI), Z1, Z1
	VMOVDQU64      Z0, (DI)
	VMOVDQU64      Z1, 64(DI)
	ADDQ           $128, SI
	ADDQ           $128, DI
	SUBQ           $128, CX
	JGE            mulAdd512Loop

mulAdd512Tail:
	ADDQ $128, CX
	CMPQ CX, $64
	JL   mulAdd512Mask
	VMOVDQU64      (SI), Z0
	VGF2P8AFFINEQB $0, Z7, Z0, Z0
	VPXORQ         (DI), Z0, Z0
	VMOVDQU64      Z0, (DI)
	ADDQ           $64, SI
	ADDQ           $64, DI
	SUBQ           $64, CX

mulAdd512Mask:
	TESTQ CX, CX
	JZ    mulAdd512Done
	MOVQ  $-1, AX
	SHLQ  CX, AX
	NOTQ  AX
	KMOVQ AX, K1
	VMOVDQU8.Z     (SI), K1, Z0
	VMOVDQU8.Z     (DI), K1, Z1
	VGF2P8AFFINEQB $0, Z7, Z0, Z0
	VPXORQ         Z1, Z0, Z0
	VMOVDQU8       Z0, K1, (DI)

mulAdd512Done:
	VZEROUPPER
	RET

// func galMulGFNI(mat *uint64, row *byte, n int)
//
// row[i] = c*row[i] for i in [0, n), mat pointing at affTab[c].
TEXT ·galMulGFNI(SB), NOSPLIT, $0-24
	MOVQ         mat+0(FP), AX
	MOVQ         row+8(FP), DI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ (AX), Z7

	SUBQ $128, CX
	JL   mul512Tail

mul512Loop:
	VMOVDQU64      (DI), Z0
	VMOVDQU64      64(DI), Z1
	VGF2P8AFFINEQB $0, Z7, Z0, Z0
	VGF2P8AFFINEQB $0, Z7, Z1, Z1
	VMOVDQU64      Z0, (DI)
	VMOVDQU64      Z1, 64(DI)
	ADDQ           $128, DI
	SUBQ           $128, CX
	JGE            mul512Loop

mul512Tail:
	ADDQ $128, CX
	CMPQ CX, $64
	JL   mul512Mask
	VMOVDQU64      (DI), Z0
	VGF2P8AFFINEQB $0, Z7, Z0, Z0
	VMOVDQU64      Z0, (DI)
	ADDQ           $64, DI
	SUBQ           $64, CX

mul512Mask:
	TESTQ CX, CX
	JZ    mul512Done
	MOVQ  $-1, AX
	SHLQ  CX, AX
	NOTQ  AX
	KMOVQ AX, K1
	VMOVDQU8.Z     (DI), K1, Z0
	VGF2P8AFFINEQB $0, Z7, Z0, Z0
	VMOVDQU8       Z0, K1, (DI)

mul512Done:
	VZEROUPPER
	RET

// func galExpandGFNI(mats *uint64, c *byte, n int)
//
// mats[i] = affTab[c[i]] for i in [0, n), n > 0: eight coefficients
// widened to qword indices per VPMOVZXBQ and their matrices fetched by
// one VPGATHERQQ, the last n mod 8 one at a time.
TEXT ·galExpandGFNI(SB), NOSPLIT, $0-24
	MOVQ mats+0(FP), DI
	MOVQ c+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·affTab(SB), AX
	SUBQ $8, CX
	JL   expandTail

expandLoop:
	VPMOVZXBQ  (SI), Z0
	KXNORB     K2, K2, K2
	VPGATHERQQ (AX)(Z0*8), K2, Z1
	VMOVDQU64  Z1, (DI)
	ADDQ       $8, SI
	ADDQ       $64, DI
	SUBQ       $8, CX
	JGE        expandLoop

expandTail:
	ADDQ $8, CX
	JZ   expandDone

expandOne:
	MOVBQZX (SI), BX
	MOVQ    (AX)(BX*8), BX
	MOVQ    BX, (DI)
	INCQ    SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     expandOne

expandDone:
	VZEROUPPER
	RET

// func galAddSlotsAVX512(dst, arena *byte, stride int, idx *int32, nidx, n int)
//
// dst[x] ^= sum over i < nidx of arena[idx[i]*stride+x] for x in [0, n),
// nidx and n at least 1. Each 256-byte chunk of dst is loaded into Z0-Z3
// once, the slots' chunks are added into it two slots per step (one
// loaded into Z4-Z7, the other read by VPTERNLOGQ straight from memory,
// imm 0x96 being a three-way XOR), and the chunk is stored once. Slot
// i's address is arena + idx[i]*stride, computed anew per chunk: one
// load, one multiply, one add beside four 64-byte loads. The last
// n mod 256 bytes take one more pass, a slot per step, with every load
// and the store under the byte masks K1-K4, one per 64-byte lane: all
// ones, the lane's share of the ragged end, or none.
TEXT ·galAddSlotsAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DX
	MOVQ arena+8(FP), AX
	MOVQ stride+16(FP), CX
	MOVQ idx+24(FP), BX
	MOVQ nidx+32(FP), R8
	MOVQ n+40(FP), DI
	XORQ SI, SI
	SUBQ $256, DI
	JL   slotsTail

slotsChunk:
	VMOVDQU64 (DX)(SI*1), Z0
	VMOVDQU64 64(DX)(SI*1), Z1
	VMOVDQU64 128(DX)(SI*1), Z2
	VMOVDQU64 192(DX)(SI*1), Z3
	MOVQ      BX, R9
	MOVQ      R8, R10
	SUBQ      $2, R10
	JL        slotsChunkOne

slotsChunkPair:
	MOVLQSX    (R9), R11
	MOVLQSX    4(R9), R12
	IMULQ      CX, R11
	IMULQ      CX, R12
	ADDQ       AX, R11
	ADDQ       AX, R12
	VMOVDQU64  (R11)(SI*1), Z4
	VMOVDQU64  64(R11)(SI*1), Z5
	VMOVDQU64  128(R11)(SI*1), Z6
	VMOVDQU64  192(R11)(SI*1), Z7
	VPTERNLOGQ $0x96, (R12)(SI*1), Z4, Z0
	VPTERNLOGQ $0x96, 64(R12)(SI*1), Z5, Z1
	VPTERNLOGQ $0x96, 128(R12)(SI*1), Z6, Z2
	VPTERNLOGQ $0x96, 192(R12)(SI*1), Z7, Z3
	ADDQ       $8, R9
	SUBQ       $2, R10
	JGE        slotsChunkPair

slotsChunkOne:
	ADDQ    $2, R10
	JZ      slotsChunkStore
	MOVLQSX (R9), R11
	IMULQ   CX, R11
	ADDQ    AX, R11
	VPXORQ  (R11)(SI*1), Z0, Z0
	VPXORQ  64(R11)(SI*1), Z1, Z1
	VPXORQ  128(R11)(SI*1), Z2, Z2
	VPXORQ  192(R11)(SI*1), Z3, Z3

slotsChunkStore:
	VMOVDQU64 Z0, (DX)(SI*1)
	VMOVDQU64 Z1, 64(DX)(SI*1)
	VMOVDQU64 Z2, 128(DX)(SI*1)
	VMOVDQU64 Z3, 192(DX)(SI*1)
	ADDQ      $256, SI
	CMPQ      SI, DI
	JLE       slotsChunk

slotsTail:
	ADDQ $256, DI
	SUBQ SI, DI
	JZ   slotsDone

	// DI bytes remain, 0 < DI < 256. Lane j's mask keeps its first
	// DI - 64j bytes, clamped to [0, 64]; SHLQ shifts by CL, so the
	// stride waits in R12.
	MOVQ CX, R12
	MOVQ DI, CX
	MOVQ $-1, R13
	CMPQ CX, $64
	JGE  slotsLane0
	SHLQ CX, R13
	NOTQ R13

slotsLane0:
	KMOVQ R13, K1
	SUBQ  $64, CX
	MOVQ  $-1, R13
	CMPQ  CX, $64
	JGE   slotsLane1
	XORQ  R13, R13
	CMPQ  CX, $0
	JLE   slotsLane1
	MOVQ  $-1, R13
	SHLQ  CX, R13
	NOTQ  R13

slotsLane1:
	KMOVQ R13, K2
	SUBQ  $64, CX
	MOVQ  $-1, R13
	CMPQ  CX, $64
	JGE   slotsLane2
	XORQ  R13, R13
	CMPQ  CX, $0
	JLE   slotsLane2
	MOVQ  $-1, R13
	SHLQ  CX, R13
	NOTQ  R13

slotsLane2:
	KMOVQ R13, K3
	SUBQ  $64, CX
	XORQ  R13, R13
	CMPQ  CX, $0
	JLE   slotsLane3
	MOVQ  $-1, R13
	SHLQ  CX, R13
	NOTQ  R13

slotsLane3:
	KMOVQ R13, K4
	MOVQ  R12, CX

	VMOVDQU8.Z (DX)(SI*1), K1, Z0
	VMOVDQU8.Z 64(DX)(SI*1), K2, Z1
	VMOVDQU8.Z 128(DX)(SI*1), K3, Z2
	VMOVDQU8.Z 192(DX)(SI*1), K4, Z3

slotsTailSlot:
	MOVLQSX    (BX), R11
	IMULQ      CX, R11
	ADDQ       AX, R11
	VMOVDQU8.Z (R11)(SI*1), K1, Z4
	VMOVDQU8.Z 64(R11)(SI*1), K2, Z5
	VMOVDQU8.Z 128(R11)(SI*1), K3, Z6
	VMOVDQU8.Z 192(R11)(SI*1), K4, Z7
	VPXORQ     Z4, Z0, Z0
	VPXORQ     Z5, Z1, Z1
	VPXORQ     Z6, Z2, Z2
	VPXORQ     Z7, Z3, Z3
	ADDQ       $4, BX
	DECQ       R8
	JNZ        slotsTailSlot

	VMOVDQU8 Z0, K1, (DX)(SI*1)
	VMOVDQU8 Z1, K2, 64(DX)(SI*1)
	VMOVDQU8 Z2, K3, 128(DX)(SI*1)
	VMOVDQU8 Z3, K4, 192(DX)(SI*1)

slotsDone:
	VZEROUPPER
	RET
