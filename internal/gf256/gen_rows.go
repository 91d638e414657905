//go:build ignore

// gen_rows writes gf256_rows_amd64.s, the GFNI/AVX-512 multi-row kernel
// galMulAddRowsGFNI: one straight-line body for each destination row
// count from 1 to 8. Run it from this directory:
//
//	go run gen_rows.go
package main

import (
	"bytes"
	"fmt"
	"os"
)

func main() {
	var b bytes.Buffer
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("// Code generated by gen_rows.go; DO NOT EDIT.")
	w("")
	w("//go:build amd64 && gc")
	w("")
	w(`#include "textflag.h"`)
	w("")
	w("// func galMulAddRowsGFNI(mats *uint64, src *[]byte, nsrc int, dst *[]byte, rows, n int)")
	w("//")
	w("// dst[j][x] ^= sum over i of c(j, i)*src[i][x] for j < rows and x < n,")
	w("// where mats[j*nsrc+i] is affTab[c(j, i)], nsrc >= 1 and n >= 64. The")
	w("// rows accumulators live in Z0-Z7 while the kernel walks the sources")
	w("// for one 64-byte chunk: two sources per step, each loaded once and")
	w("// multiplied by every row's matrix, broadcast straight from mats, the")
	w("// two products folded into the accumulator by one VPTERNLOGQ (imm 0x96")
	w("// is a three-way XOR). Only then is each destination chunk read, added")
	w("// and written, under the byte mask K1. K1 is all ones but for the")
	w("// ragged end of a row: that chunk is taken as the row's last 64 bytes,")
	w("// overlapping the chunk before it, and K1 writes only the bytes that")
	w("// chunk did not. src and dst point at slice headers, 24 bytes apart;")
	w("// the kernel reads their data pointers only, the caller checks their")
	w("// lengths.")
	w("//")
	w("// Row j's matrices are j strides S = 8*nsrc past row 0's: CX holds S,")
	w("// R14 3S, R8 walks row 0 and R13, 3S ahead of it, rows 5 and 7.")
	w("TEXT ·galMulAddRowsGFNI(SB), NOSPLIT, $0-48")
	w("\tMOVQ mats+0(FP), AX")
	w("\tMOVQ src+8(FP), BX")
	w("\tMOVQ dst+24(FP), DX")
	w("\tMOVQ n+40(FP), DI")
	w("\tXORQ SI, SI")
	w("\tKXNORQ K1, K1, K1")
	w("\tMOVQ rows+32(FP), R8")
	w("\tMOVQ nsrc+16(FP), CX")
	w("\tSHLQ $3, CX")
	w("\tLEAQ (CX)(CX*2), R14")
	for r := 1; r < 8; r++ {
		w("\tCMPQ R8, $%d", r)
		w("\tJEQ  rows%d", r)
	}
	for r := 8; r >= 1; r-- {
		body(w, r)
	}
	w("")
	w("done:")
	w("\tVZEROUPPER")
	w("\tRET")
	if err := os.WriteFile("gf256_rows_amd64.s", b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// mat is the address of row j's matrix for the source disp bytes past
// the cursor's.
func mat(j, disp int) string {
	return fmt.Sprintf("%d%s", disp, [8]string{
		"(R8)", "(R8)(CX*1)", "(R8)(CX*2)", "(R8)(R14*1)",
		"(R8)(CX*4)", "(R13)(CX*2)", "(R8)(R14*2)", "(R13)(CX*4)",
	}[j])
}

// body emits the kernel for r destination rows: AX is mats, BX the
// source headers, DX the destination headers, DI the row length and SI
// the byte offset of the chunk.
func body(w func(string, ...any), r int) {
	l := fmt.Sprintf("rows%d", r)
	w("")
	w("%s:", l)
	for j := 0; j < r; j++ {
		w("\tVPXORQ Z%d, Z%d, Z%d", j, j, j)
	}
	w("\tMOVQ AX, R8")
	if r > 5 {
		w("\tLEAQ (AX)(R14*1), R13")
	}
	w("\tMOVQ BX, R9")
	w("\tMOVQ nsrc+16(FP), R10")
	w("\tSUBQ $2, R10")
	w("\tJLT  %sOne", l)
	w("")
	w("%sPair:", l)
	w("\tMOVQ (R9), R11")
	w("\tMOVQ 24(R9), R12")
	w("\tVMOVDQU64 (R11)(SI*1), Z8")
	w("\tVMOVDQU64 (R12)(SI*1), Z9")
	for j := 0; j < r; j++ {
		w("\tVGF2P8AFFINEQB.BCST $0, %s, Z8, Z10", mat(j, 0))
		w("\tVGF2P8AFFINEQB.BCST $0, %s, Z9, Z11", mat(j, 8))
		w("\tVPTERNLOGQ $0x96, Z11, Z10, Z%d", j)
	}
	w("\tADDQ $48, R9")
	w("\tADDQ $16, R8")
	if r > 5 {
		w("\tADDQ $16, R13")
	}
	w("\tSUBQ $2, R10")
	w("\tJGE  %sPair", l)
	w("")
	w("%sOne:", l)
	w("\tCMPQ R10, $-1")
	w("\tJNE  %sStore", l)
	w("\tMOVQ (R9), R11")
	w("\tVMOVDQU64 (R11)(SI*1), Z8")
	for j := 0; j < r; j++ {
		w("\tVGF2P8AFFINEQB.BCST $0, %s, Z8, Z10", mat(j, 0))
		w("\tVPXORQ Z10, Z%d, Z%d", j, j)
	}
	w("")
	w("%sStore:", l)
	for j := 0; j < r; j++ {
		w("\tMOVQ %d(DX), R11", 24*j)
		w("\tVPXORQ (R11)(SI*1), Z%d, Z%d", j, j)
		w("\tVMOVDQU8 Z%d, K1, (R11)(SI*1)", j)
	}
	w("\tADDQ $64, SI")
	w("\tLEAQ 64(SI), R13")
	w("\tCMPQ R13, DI")
	w("\tJLE  %s", l)
	w("\tCMPQ SI, DI")
	w("\tJEQ  done")
	// The ragged end: n-SI bytes are left; K1 keeps the top n-SI bytes of
	// the last 64, a shift by 64-(n-SI). The shift count must be in CX, so
	// S is reloaded after it.
	w("\tMOVQ SI, CX")
	w("\tSUBQ DI, CX")
	w("\tADDQ $64, CX")
	w("\tMOVQ $-1, R13")
	w("\tSHLQ CX, R13")
	w("\tKMOVQ R13, K1")
	w("\tMOVQ nsrc+16(FP), CX")
	w("\tSHLQ $3, CX")
	w("\tLEAQ -64(DI), SI")
	w("\tJMP  %s", l)
}
