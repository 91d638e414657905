//go:build amd64 && gc

package gf256

// useSSSE3 gates the PSHUFB kernels. SSSE3 (2006) is near-universal on
// amd64 but not part of the GOAMD64=v1 baseline, so it is detected at
// startup via CPUID.
var useSSSE3 = cpuidFeatureECX()&(1<<9) != 0

// haveSSE2 gates the XOR kernel; SSE2 is part of the amd64 baseline. It
// is a variable, not a constant, only so the parity tests can select
// the word tier.
var haveSSE2 = true

// cpuidFeatureECX returns ECX of CPUID leaf 1 (feature flags;
// bit 9 = SSSE3). Implemented in gf256_amd64.s.
func cpuidFeatureECX() (ecx uint32)

// galXorSSE2 computes dst[i] ^= src[i] for i in [0, n) where n is a
// positive multiple of 16. dst and src must not overlap. Implemented
// in gf256_amd64.s.
//
//go:noescape
func galXorSSE2(dst, src *byte, n int)

// galMulAddSSSE3 computes dst[i] ^= c*src[i] for i in [0, n) where tab
// points at the 32-byte nibble product table for c (nibTab[c]) and n
// is a positive multiple of 16. dst and src must not overlap.
// Implemented in gf256_amd64.s.
//
//go:noescape
func galMulAddSSSE3(tab, dst, src *byte, n int)

// galMulSSSE3 computes row[i] = c*row[i] for i in [0, n), with tab and
// n as in galMulAddSSSE3. Implemented in gf256_amd64.s.
//
//go:noescape
func galMulSSSE3(tab, row *byte, n int)

// useAVX2 gates the 32-byte-wide kernels: the CPU must report AVX2
// (CPUID leaf 7 EBX bit 5) and the OS must save/restore the ymm state
// (OSXSAVE set and XCR0 bits 1:2 enabled), the standard two-part check.
var useAVX2 = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuidFeatureECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	ebx, _ := cpuidLeaf7()
	return ebx&(1<<5) != 0
}()

// useGFNI gates the 64-byte-wide tier: AVX-512 XOR for AddRow and the
// GFNI affine multiply for MulAddRow and ScaleRow.
var useGFNI = haveGFNI()

// haveGFNI reports whether the CPU runs the GFNI/AVX-512 tier: it must
// report AVX512F (leaf 7 EBX bit 16), AVX512BW (EBX bit 30, for the
// byte-masked tails) and GFNI (ECX bit 8), and the OS must save/restore
// the opmask and zmm state as well as the ymm state (XCR0 bits 1:2 and
// 5:7, readable once OSXSAVE is set).
func haveGFNI() bool {
	const osxsave = 1 << 27
	const avx512f, avx512bw, gfni = 1 << 16, 1 << 30, 1 << 8
	if cpuidFeatureECX()&osxsave == 0 || xgetbv0()&0xE6 != 0xE6 {
		return false
	}
	ebx, ecx := cpuidLeaf7()
	return ebx&avx512f != 0 && ebx&avx512bw != 0 && ecx&gfni != 0
}

// cpuidLeaf7 returns EBX and ECX of CPUID leaf 7 subleaf 0 (extended
// features; EBX bit 5 = AVX2, 16 = AVX512F, 30 = AVX512BW; ECX bit 8 =
// GFNI). Implemented in gf256_amd64.s.
func cpuidLeaf7() (ebx, ecx uint32)

// xgetbv0 returns the low 32 bits of XCR0 (the XSAVE feature mask;
// bits 1:2 = SSE and AVX register state, 5:7 = opmask and zmm state).
// Implemented in gf256_amd64.s.
func xgetbv0() (eax uint32)

// galXorAVX2 computes dst[i] ^= src[i] for i in [0, n) where n is a
// positive multiple of 32, 64 bytes per unrolled step. dst and src must
// not overlap. Implemented in gf256_amd64.s.
//
//go:noescape
func galXorAVX2(dst, src *byte, n int)

// galMulAddAVX2 is galMulAddSSSE3 widened to 32-byte steps: the 16-byte
// nibble tables are broadcast to both ymm lanes, so the same in-lane
// PSHUFB trick applies. n must be a positive multiple of 32.
//
//go:noescape
func galMulAddAVX2(tab, dst, src *byte, n int)

// galMulAVX2 computes row[i] = c*row[i] for i in [0, n), with tab and n
// as in galMulAddAVX2.
//
//go:noescape
func galMulAVX2(tab, row *byte, n int)

// galXorAVX512 computes dst[i] ^= src[i] for i in [0, n), any n > 0:
// 64 bytes per VPXORQ, the last n mod 64 under a byte mask. dst and src
// must not overlap. Implemented in gf256_amd64.s.
//
//go:noescape
func galXorAVX512(dst, src *byte, n int)

// galMulAddGFNI computes dst[i] ^= c*src[i] for i in [0, n), any n > 0,
// where mat points at affTab[c]. dst and src must not overlap.
//
//go:noescape
func galMulAddGFNI(mat *uint64, dst, src *byte, n int)

// galMulGFNI computes row[i] = c*row[i] for i in [0, n), with mat and n
// as in galMulAddGFNI.
//
//go:noescape
func galMulGFNI(mat *uint64, row *byte, n int)

// galMulAddRowsGFNI computes dst[j][x] ^= sum over i < nsrc of
// c(j, i)*src[i][x] for j < rows and x < n, where mats[j*nsrc+i] is
// affTab[c(j, i)]: src and dst point at the first of nsrc and rows
// slice headers. rows is 1 to 8, nsrc and n at least 1 and 64, and no
// destination row may overlap a source row. Generated by gen_rows.go
// into gf256_rows_amd64.s.
//
//go:noescape
func galMulAddRowsGFNI(mats *uint64, src *[]byte, nsrc int, dst *[]byte, rows, n int)

// galAddSlotsAVX512 computes dst[x] ^= sum over i < nidx of
// arena[idx[i]*stride+x] for x in [0, n), nidx and n at least 1: the
// multi-source XOR of AddSlots. No slot may overlap dst; the caller
// checks that every slot lies inside the arena. Implemented in
// gf256_amd64.s.
//
//go:noescape
func galAddSlotsAVX512(dst, arena *byte, stride int, idx *int32, nidx, n int)

// galExpandGFNI sets mats[i] = affTab[c[i]] for i in [0, n), n > 0:
// MulAddRows' coefficients in the form its kernel reads. Implemented in
// gf256_amd64.s.
//
//go:noescape
func galExpandGFNI(mats *uint64, c *byte, n int)

//go:generate go run gen_rows.go

// SetGFNI switches the GFNI/AVX-512 tier on or off and reports whether
// it was on; it switches it on only on a CPU that has it. Off, the row
// operations take the AVX2 tier's kernels. It exists for byte-identity
// tests in the packages above gf256, and must not be called while row
// operations run on other goroutines.
func SetGFNI(on bool) (was bool) {
	was = useGFNI
	useGFNI = on && haveGFNI()
	return was
}
