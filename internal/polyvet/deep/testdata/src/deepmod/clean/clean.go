// Package clean holds annotated functions every deep gate accepts:
// the regression tests compile it for real and expect zero findings.
package clean

import "encoding/binary"

// Sink keeps results observable so the compiler cannot discard the
// bodies under test.
var Sink uint64

//polyvet:noalloc steady-state kernel must not touch the heap
func SumScaled(xs []uint64, c uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x * c
	}
	return s
}

// XorWords is the length-cursor loop idiom: the only bounds check is
// the reslice before the loops.
//
//polyvet:noalloc innermost kernel
//polyvet:nobce in-loop checks would halve throughput
func XorWords(dst, src []byte) {
	dst = dst[:len(src)]
	for len(dst) >= 8 && len(src) >= 8 {
		binary.LittleEndian.PutUint64(dst,
			binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		dst = dst[8:]
		src = src[8:]
	}
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] ^= s
	}
}

// Mix must stay cheap enough to inline into per-element loops.
//
//polyvet:inline called per element
func Mix(a, b uint64) uint64 {
	a ^= b >> 17
	return a * 0x9E3779B97F4A7C15
}

// StackBuffer is the false-positive guard: a make the compiler
// proves never leaves the stack is not an allocation, so the escape
// gate must accept it.
//
//polyvet:noalloc scratch buffer is stack-allocated
func StackBuffer(seed byte) uint64 {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = seed + byte(i)
	}
	return SumScaled([]uint64{uint64(buf[0]), uint64(buf[63])}, 3)
}

// Guarded allocates only on its panic path; the escape gate must
// exempt the boxed constant.
//
//polyvet:noalloc allocation is unreachable in steady state
func Guarded(xs []uint64) uint64 {
	if len(xs) == 0 {
		panic("clean: empty input")
	}
	return xs[0]
}
