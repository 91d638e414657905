//go:build !amd64 || !gc

package gf256

// Non-amd64 (or non-gc toolchain) targets use the portable word-wise
// kernels only.
const useSSSE3 = false
const haveSSE2 = false
const useAVX2 = false
const useGFNI = false

func cpuidFeatureECX() uint32 { return 0 }

func galXorAVX2(dst, src *byte, n int) {
	panic("gf256: AVX2 kernel called without asm support")
}

func galMulAddAVX2(tab, dst, src *byte, n int) {
	panic("gf256: AVX2 kernel called without asm support")
}

func galMulAVX2(tab, row *byte, n int) {
	panic("gf256: AVX2 kernel called without asm support")
}

func galXorSSE2(dst, src *byte, n int) {
	panic("gf256: SSE2 kernel called without asm support")
}

func galMulAddSSSE3(tab, dst, src *byte, n int) {
	panic("gf256: SSSE3 kernel called without asm support")
}

func galMulSSSE3(tab, row *byte, n int) {
	panic("gf256: SSSE3 kernel called without asm support")
}

func galXorAVX512(dst, src *byte, n int) {
	panic("gf256: AVX-512 kernel called without asm support")
}

func galMulAddGFNI(mat *uint64, dst, src *byte, n int) {
	panic("gf256: GFNI kernel called without asm support")
}

func galMulGFNI(mat *uint64, row *byte, n int) {
	panic("gf256: GFNI kernel called without asm support")
}

func galMulAddRowsGFNI(mats *uint64, src *[]byte, nsrc int, dst *[]byte, rows, n int) {
	panic("gf256: GFNI kernel called without asm support")
}

func galAddSlotsAVX512(dst, arena *byte, stride int, idx *int32, nidx, n int) {
	panic("gf256: AVX-512 kernel called without asm support")
}

func galExpandGFNI(mats *uint64, c *byte, n int) {
	panic("gf256: GFNI kernel called without asm support")
}

// SetGFNI has no tier to switch on targets without the assembly kernels.
func SetGFNI(on bool) (was bool) { return false }
