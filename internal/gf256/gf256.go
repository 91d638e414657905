// Package gf256 implements arithmetic over the finite field GF(2^8) as
// specified by RFC 6330 §5.7 (the "octet" field used by RaptorQ).
//
// The field is GF(2)[x]/(x^8+x^4+x^3+x^2+1), i.e. the reduction
// polynomial 0x11D, with generator element 2. Multiplication and
// division are performed through logarithm/exponential tables, exactly
// as prescribed by the RFC (OCT_LOG / OCT_EXP). Row operations used by
// the RaptorQ encoder and decoder (AddRow, MulAddRow, ScaleRow,
// MulAddRows, a whole matrix product of rows, and AddSlots, a sum of
// rows of one arena) operate on byte slices and form the hot path of
// matrix elimination, so they are allocation-free and run on the
// widest kernel tier the CPU offers, chosen once at init from CPUID
// (and XCR0, for the OS-saved register state):
//
//   - GFNI/AVX-512 (amd64 with AVX512F, AVX512BW and GFNI): 64 bytes per
//     instruction, the ragged end of a row under a byte mask. A multiply
//     by c is one VGF2P8AFFINEQB against c's 8x8 bit matrix (affTab).
//     GF2P8MULB would be a single instruction too, but it is hard-wired
//     to AES's polynomial 0x11B; the affine form multiplies in any
//     field, so it is the one that is exact for 0x11D.
//   - AVX2: 32 bytes per step, multiplies through PSHUFB lookups in
//     16-entry nibble product tables (nibTab), then the SSE tier for a
//     16-byte remainder.
//   - SSSE3 (multiplies) and SSE2 (XOR): the same at 16 bytes.
//   - Words, everywhere else and for the last <16 bytes of a row on the
//     AVX2 and SSE tiers: XOR a uint64 at a time, and multiply by a
//     branchless bit-plane decomposition over eight byte lanes, with
//     byte tails.
//
// Every tier is exact GF(2^8) arithmetic, so every tier produces the
// same bytes. The scalar byte-at-a-time paths are retained
// (AddRowScalar and friends) as the reference implementations for
// parity tests and perf baselines.
//
// MulAddRow requires dst and src to not overlap; ScaleRow is in-place
// by definition.
package gf256

import "encoding/binary"

// Polynomial x^8 + x^4 + x^3 + x^2 + 1, per RFC 6330 §5.7.2.
const reductionPoly = 0x11D

// Features reports which accelerated kernel paths this build selected
// at startup, in a stable order. An empty slice means the portable
// word-wise kernels only. Intended for perf-report metadata, so runs
// on different hardware are comparable.
func Features() []string {
	var fs []string
	if haveSSE2 {
		fs = append(fs, "sse2")
	}
	if useSSSE3 {
		fs = append(fs, "ssse3")
	}
	if useAVX2 {
		fs = append(fs, "avx2")
	}
	if useGFNI {
		fs = append(fs, "avx512", "gfni")
	}
	return fs
}

// expTable[i] = alpha^i mod alpha^255, doubled so that mul can index
// expTable[log(a)+log(b)] without a modulo. The length is 511 rather
// than 510: indexing with a sum of two byte-typed logs (each ≤ 255)
// then provably never exceeds 510, so the compiler's prove pass drops
// the bounds check from every table lookup in the row-kernel tails.
// Index 510 itself is unreachable (logs are ≤ 254) but holds the
// correct alpha^510 = 1 anyway.
var expTable [511]byte

// logTable[a] = log_alpha(a) for a in [1, 256). logTable[0] is unused
// (log of zero is undefined); it is set to 0 and guarded by callers.
var logTable [256]byte

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= reductionPoly
		}
	}
	// alpha^255 == 1; repeat the cycle so exp lookups for summed logs
	// (max 254+254 = 508) stay in range.
	for i := 255; i < 511; i++ {
		expTable[i] = expTable[i-255]
	}
	// Nibble product tables for the SIMD kernels: for each coefficient
	// c, 16 products of the low-nibble values and 16 of the high-nibble
	// values, so c*s = lo[s&15] ^ hi[s>>4]. 8 KB total, computed once.
	for c := 1; c < 256; c++ {
		for v := 0; v < 16; v++ {
			nibTab[c][v] = Mul(byte(c), byte(v))
			nibTab[c][16+v] = Mul(byte(c), byte(v<<4))
		}
		// Bit matrix for GF2P8AFFINEQB: output bit i is the parity of
		// (matrix byte 7-i AND x), and c*x = XOR over set bits j of x of
		// c*2^j, so bit j of byte 7-i is bit i of c*2^j. 2 KB total.
		for j := 0; j < 8; j++ {
			p := Mul(byte(c), 1<<j)
			for i := 0; i < 8; i++ {
				affTab[c] |= uint64(p>>i&1) << (8*(7-i) + j)
			}
		}
	}
}

// nibTab[c] holds the 32-byte PSHUFB table pair for coefficient c:
// products of c with the 16 low-nibble values, then with the 16
// high-nibble values.
var nibTab [256][32]byte

// affTab[c] is the 8x8 bit matrix of multiplication by c, in the
// qword layout GF2P8AFFINEQB reads (row for output bit i in byte 7-i).
var affTab [256]uint64

// Add returns a + b in GF(2^8). Addition is XOR; it is its own inverse,
// so Sub is identical.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). Div panics if b == 0, mirroring integer
// division semantics; callers in the decoder always pivot on non-zero
// elements.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += 255
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. Inv panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns alpha^i where alpha = 2 is the field generator and i may
// be any non-negative integer.
func Exp(i int) byte { return expTable[i%255] }

// Log returns log_alpha(a). Log panics if a == 0.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// lsbLanes masks the low bit of each of the eight byte lanes of a word.
const lsbLanes = 0x0101010101010101

// mulPlanes returns the eight lane-broadcast multipliers c*2^j (in
// GF(2^8)) consumed by mulWord. Computed once per row operation and
// amortised over every word.
func mulPlanes(c byte) (m [8]uint64) {
	v := c
	for j := 0; j < 8; j++ {
		m[j] = uint64(v)
		if v&0x80 != 0 {
			v = v<<1 ^ (reductionPoly & 0xFF)
		} else {
			v <<= 1
		}
	}
	return m
}

// mulWord multiplies each of the eight byte lanes of w by the
// coefficient whose plane multipliers are m. Multiplication by c is
// GF(2)-linear in the source bits, so the product decomposes over bit
// planes: plane j of w, masked to lane low bits, is a 0/1 lane
// selector, and an integer multiply by c*2^j broadcasts that plane's
// contribution into the selected lanes — carry-free, because each
// contribution occupies disjoint 8-bit lanes. XOR across the eight
// planes assembles the product. Fully branchless.
func mulWord(w uint64, m *[8]uint64) uint64 {
	return (w&lsbLanes)*m[0] ^
		(w>>1&lsbLanes)*m[1] ^
		(w>>2&lsbLanes)*m[2] ^
		(w>>3&lsbLanes)*m[3] ^
		(w>>4&lsbLanes)*m[4] ^
		(w>>5&lsbLanes)*m[5] ^
		(w>>6&lsbLanes)*m[6] ^
		(w>>7&lsbLanes)*m[7]
}

// AddRow sets dst[i] ^= src[i] for every position — 64, 32 or 16 bytes
// per step on amd64 (see the package doc for the tiers), 8-byte words
// elsewhere, with a byte tail. dst and src must have equal length and
// not overlap. Empty rows are a no-op.
//
//polyvet:noalloc matrix-elimination hot path; runs O(K^2) times per block
func AddRow(dst, src []byte) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1] // bounds-check hint
	if useGFNI {
		galXorAVX512(&dst[0], &src[0], len(src))
		return
	}
	i := 0
	if useAVX2 {
		if n := len(src) &^ 31; n > 0 {
			galXorAVX2(&dst[0], &src[0], n)
			i = n
		}
	}
	if haveSSE2 {
		if n := (len(src) - i) &^ 15; n > 0 {
			galXorSSE2(&dst[i], &src[i], n)
			i += n
		}
	}
	addRowWords(dst[i:len(src)], src[i:])
}

// addRowWords is the portable word-wise core of AddRow. Both loops are
// written in the length-cursor style the prove pass can verify: the
// one reslice up front is the only bounds check, and every in-loop
// access is covered by the loop condition (word loop) or the range
// clause (byte tail).
//
//polyvet:noalloc innermost XOR kernel of matrix elimination
//polyvet:nobce per-element bounds checks would halve word-loop throughput
func addRowWords(dst, src []byte) {
	dst = dst[:len(src)] // single bounds check; hints len(dst) == len(src)
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

// AddRowScalar is the byte-at-a-time reference for AddRow, retained for
// parity tests and as the perf baseline.
func AddRowScalar(dst, src []byte) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i := range src {
		dst[i] ^= src[i]
	}
}

// MulAddRow sets dst[i] ^= c * src[i] for non-overlapping rows. A zero
// coefficient is a no-op; coefficient one degenerates to AddRow. It
// runs 64, 32 or 16 bytes per step on amd64, 8-byte words elsewhere,
// with a scalar byte tail.
//
//polyvet:noalloc matrix-elimination hot path; runs O(K^2) times per block
func MulAddRow(dst, src []byte, c byte) {
	switch {
	case c == 0 || len(src) == 0:
		return
	case c == 1:
		AddRow(dst, src)
		return
	}
	_ = dst[len(src)-1]
	if useGFNI {
		galMulAddGFNI(&affTab[c], &dst[0], &src[0], len(src))
		return
	}
	i := 0
	if useAVX2 {
		if n := len(src) &^ 31; n > 0 {
			galMulAddAVX2(&nibTab[c][0], &dst[0], &src[0], n)
			i = n
		}
	}
	if useSSSE3 {
		if n := (len(src) - i) &^ 15; n > 0 {
			galMulAddSSSE3(&nibTab[c][0], &dst[i], &src[i], n)
			i += n
		}
	}
	if i < len(src) { // the plane multipliers are not free: skip them for a row the vector kernels finished
		mulAddRowWords(dst[i:len(src)], src[i:], c)
	}
}

// mulAddRowWords is the portable word-wise core of MulAddRow: 8 bytes
// at a time via the bit-plane multiply, then a scalar byte tail. It is
// the whole kernel on non-SSSE3 targets and handles the sub-16-byte
// remainder on amd64. c must be neither 0 nor 1. Written in the same
// length-cursor style as addRowWords so the only bounds checks are the
// two reslices outside the loops; the exp-table lookups in the tail
// are proven in-bounds by expTable's 511-entry length.
//
//polyvet:noalloc innermost multiply-accumulate kernel of matrix elimination
//polyvet:nobce per-element bounds checks would halve word-loop throughput
func mulAddRowWords(dst, src []byte, c byte) {
	dst = dst[:len(src)] // single bounds check; hints len(dst) == len(src)
	m := mulPlanes(c)
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	m4, m5, m6, m7 := m[4], m[5], m[6], m[7]
	for len(dst) >= 8 && len(src) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		p := (w&lsbLanes)*m0 ^ (w>>1&lsbLanes)*m1 ^
			(w>>2&lsbLanes)*m2 ^ (w>>3&lsbLanes)*m3 ^
			(w>>4&lsbLanes)*m4 ^ (w>>5&lsbLanes)*m5 ^
			(w>>6&lsbLanes)*m6 ^ (w>>7&lsbLanes)*m7
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^p)
		dst = dst[8:]
		src = src[8:]
	}
	dst = dst[:len(src)]
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}

// MulAddRowScalar is the log/exp-table byte-at-a-time reference for
// MulAddRow, retained for parity tests and as the perf baseline.
func MulAddRowScalar(dst, src []byte, c byte) {
	switch {
	case c == 0 || len(src) == 0:
		return
	case c == 1:
		AddRowScalar(dst, src)
		return
	}
	lc := int(logTable[c])
	_ = dst[len(src)-1]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}

// MulAddRows adds a matrix product into dst: dst[j][x] ^= sum over i
// of c[j][i]*src[i][x] for every x < n, n = len(src[0]), with one
// coefficient row c[j] per destination row and one coefficient in it per
// source row. Every row must be at least n bytes long and c[j] at least
// len(src); no destination row may overlap a source row.
//
// On the GFNI/AVX-512 tier the destination rows go up to eight at a
// time, in passes as even as their count allows. A pass's rows stay in
// zmm registers while each 64-byte chunk of a source is loaded once and
// multiplied into all of them, so the sources are read once per pass
// and not once per coefficient. The coefficients are expanded to the
// bit matrices the kernel reads in mats, which MulAddRows grows when it
// must and returns: a caller that keeps it allocates nothing once warm.
// Every other tier, and rows under 64 bytes, run one MulAddRow per
// coefficient and leave mats as it is.
//
//polyvet:noalloc partial decode's product; the expanded coefficients live in caller scratch
func MulAddRows(dst, src, c [][]byte, mats []uint64) []uint64 {
	if len(dst) == 0 || len(src) == 0 || len(src[0]) == 0 {
		return mats
	}
	n, ns := len(src[0]), len(src)
	for _, s := range src {
		_ = s[n-1] // bounds-check hint: the kernel reads n bytes of every row
	}
	c = c[:len(dst)]
	for j, d := range dst {
		_, _ = d[n-1], c[j][ns-1]
	}
	if !useGFNI || n < 64 {
		for i, s := range src {
			for j, d := range dst {
				MulAddRow(d[:n], s[:n], c[j][i])
			}
		}
		return mats
	}
	// Row j's coefficients expand to m[j*ns:], every row's before the
	// first pass streams the sources through the cache.
	if cap(mats) < ns*len(dst) {
		mats = grownMats(2 * ns * len(dst))
	}
	m := mats[:ns*len(dst)]
	for j, cj := range c {
		galExpandGFNI(&m[j*ns], &cj[0], ns)
	}
	for j0, passes := 0, (len(dst)+7)/8; j0 < len(dst); passes-- {
		r := (len(dst) - j0 + passes - 1) / passes
		galMulAddRowsGFNI(&m[j0*ns], &src[0], ns, &dst[j0], r, n)
		j0 += r
	}
	return mats
}

// grownMats is the cold half of MulAddRows' scratch: noinline keeps its
// allocation out of the annotated caller under the escape gate.
//
//go:noinline
func grownMats(n int) []uint64 { return make([]uint64, n) }

// AddSlots adds slots of an arena into dst: dst[x] ^= sum over s in idx
// of arena[s*stride+x] for every x < len(dst), slot s being the len(dst)
// bytes at s*stride. Every slot must lie inside arena, and no slot may
// overlap dst; slots may overlap one another.
//
// On the GFNI/AVX-512 tier 256 bytes of dst stay in four zmm registers
// while that chunk of every slot streams through them, so dst is read
// and written once however many slots there are, and a slot is addressed
// by its index, with no slice header built for it. Every other tier runs
// one AddRow per slot.
//
//polyvet:noalloc schedule replay's grouped XOR: one call per peel or back-substitution row of a solve
func AddSlots(dst, arena []byte, stride int, idx []int32) {
	n := len(dst)
	if n == 0 || len(idx) == 0 {
		return
	}
	lo, hi := idx[0], idx[0]
	for _, s := range idx[1:] {
		lo, hi = min(lo, s), max(hi, s)
	}
	// With the lowest and highest slot inside arena, every slot is.
	_, _ = arena[int(lo)*stride:][:n], arena[int(hi)*stride:][:n]
	if useGFNI {
		galAddSlotsAVX512(&dst[0], &arena[0], stride, &idx[0], len(idx), n)
		return
	}
	for _, s := range idx {
		AddRow(dst, arena[int(s)*stride:][:n])
	}
}

// ScaleRow multiplies every element of row by c in place, 64, 32 or 16
// bytes per step on amd64, 8-byte words elsewhere, with a scalar byte
// tail.
//
//polyvet:noalloc pivot-normalization hot path of matrix elimination
func ScaleRow(row []byte, c byte) {
	switch c {
	case 0:
		for i := range row {
			row[i] = 0
		}
		return
	case 1:
		return
	}
	if useGFNI && len(row) > 0 {
		galMulGFNI(&affTab[c], &row[0], len(row))
		return
	}
	i := 0
	if useAVX2 {
		if n := len(row) &^ 31; n > 0 {
			galMulAVX2(&nibTab[c][0], &row[0], n)
			i = n
		}
	}
	if useSSSE3 {
		if n := (len(row) - i) &^ 15; n > 0 {
			galMulSSSE3(&nibTab[c][0], &row[i], n)
			i += n
		}
	}
	if i < len(row) {
		scaleRowWords(row[i:], c)
	}
}

// scaleRowWords is the portable word-wise core of ScaleRow. c must be
// neither 0 nor 1. Length-cursor style: the loop conditions cover
// every access, so no bounds check survives into either loop.
//
//polyvet:noalloc in-place scale kernel of matrix elimination
//polyvet:nobce per-element bounds checks would halve word-loop throughput
func scaleRowWords(row []byte, c byte) {
	m := mulPlanes(c)
	for len(row) >= 8 {
		binary.LittleEndian.PutUint64(row,
			mulWord(binary.LittleEndian.Uint64(row), &m))
		row = row[8:]
	}
	lc := int(logTable[c])
	for i, s := range row {
		if s != 0 {
			row[i] = expTable[lc+int(logTable[s])]
		}
	}
}

// ScaleRowScalar is the byte-at-a-time reference for ScaleRow, retained
// for parity tests and as the perf baseline.
func ScaleRowScalar(row []byte, c byte) {
	switch c {
	case 0:
		for i := range row {
			row[i] = 0
		}
		return
	case 1:
		return
	}
	lc := int(logTable[c])
	for i, s := range row {
		if s != 0 {
			row[i] = expTable[lc+int(logTable[s])]
		}
	}
}
