package gf256

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Parity tests: every kernel tier the host has must be byte-identical
// to the scalar reference paths for every coefficient, every length
// (covering all vector/word/tail splits) and unaligned sub-slices.

// kernelTier is one kernel tier: the tier-variable settings that select
// it and nothing faster.
type kernelTier struct {
	name                    string
	gfni, avx2, ssse3, sse2 bool
}

// tiers lists the tiers this host runs, the one init chose first.
var tiers = hostTiers()

// eachTier runs f as a subtest once per tier in tiers, with that tier
// selected, and restores init's choice afterwards.
func eachTier(t *testing.T, f func(t *testing.T)) {
	defer selectTier(tiers[0])
	for _, k := range tiers {
		selectTier(k)
		t.Run(k.name, f)
	}
}

func randRow(rng *rand.Rand, n int) []byte {
	row := make([]byte, n)
	rng.Read(row)
	// Sprinkle zeros so the scalar paths' zero-skip branch is exercised.
	for i := 0; i < n/4; i++ {
		row[rng.Intn(n)] = 0
	}
	return row
}

// tierLengths covers every vector/word/byte split up to 200 bytes, the
// codec's 1,024-byte symbols, a partial-decode slot of 1,024 + 32 bytes
// and polyperf's 1,436-byte rows (neither a multiple of 64).
var tierLengths = func() []int {
	var ns []int
	for n := 1; n <= 200; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1024, 1056, 1436)
}()

// paritySweep calls check for every row the tier parity tests cover:
// each of tierLengths with dst and src at offset 0 of their backing
// arrays, then a spread of lengths at unaligned dst and src offsets.
func paritySweep(check func(n, dOff, sOff int)) {
	for _, n := range tierLengths {
		check(n, 0, 0)
	}
	for _, off := range [][2]int{{1, 5}, {7, 7}, {33, 2}, {63, 1}} {
		for _, n := range []int{1, 31, 63, 64, 65, 127, 200, 1436} {
			check(n, off[0], off[1])
		}
	}
}

// window returns a random backing array and the n-byte row at offset off
// in it. The array runs 64 bytes past the row, so comparing whole arrays
// also catches a kernel that writes outside its row.
func window(rng *rand.Rand, off, n int) (buf, row []byte) {
	buf = randRow(rng, off+n+64)
	return buf, buf[off : off+n]
}

func TestAddRowParity(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		paritySweep(func(n, dOff, sOff int) {
			dbuf, _ := window(rng, dOff, n)
			_, src := window(rng, sOff, n)
			want := bytes.Clone(dbuf)
			AddRowScalar(want[dOff:dOff+n], src)
			got := bytes.Clone(dbuf)
			AddRow(got[dOff:dOff+n], src)
			if !bytes.Equal(got, want) {
				t.Fatalf("AddRow n=%d offsets %d/%d diverges from scalar", n, dOff, sOff)
			}
		})
	})
}

func TestMulAddRowParity(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		paritySweep(func(n, dOff, sOff int) {
			dbuf, _ := window(rng, dOff, n)
			_, src := window(rng, sOff, n)
			for c := 0; c < 256; c++ {
				want := bytes.Clone(dbuf)
				MulAddRowScalar(want[dOff:dOff+n], src, byte(c))
				got := bytes.Clone(dbuf)
				MulAddRow(got[dOff:dOff+n], src, byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("MulAddRow n=%d offsets %d/%d c=%d diverges from scalar", n, dOff, sOff, c)
				}
			}
		})
	})
}

func TestScaleRowParity(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		paritySweep(func(n, off, _ int) {
			buf, _ := window(rng, off, n)
			for c := 0; c < 256; c++ {
				want := bytes.Clone(buf)
				ScaleRowScalar(want[off:off+n], byte(c))
				got := bytes.Clone(buf)
				ScaleRow(got[off:off+n], byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("ScaleRow n=%d offset %d c=%d diverges from scalar", n, off, c)
				}
			}
		})
	})
}

// MulAddRows must equal one MulAddRowScalar per coefficient on every
// tier: 1 to 9 destination rows, so that a second, remainder pass runs;
// 1, 2, 3, 8, 255 and 258 sources, odd counts leaving the kernel a
// single source after its pairs, and counts with and without a remainder
// of eight for the coefficient expansion; rows of 1, 64, 1,024 and 1,436
// bytes, the last a ragged 64-byte end; coefficients with zeros and ones
// among them. Rows sit at odd offsets inside larger arrays, so a write outside
// a row shows.
func TestMulAddRowsParity(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		var mats []uint64
		for _, n := range []int{1, 64, 1024, 1436} {
			for _, ns := range []int{1, 2, 3, 8, 255, 258} {
				src := make([][]byte, ns)
				for i := range src {
					_, src[i] = window(rng, i%3, n)
				}
				for nd := 1; nd <= 9; nd++ {
					bufs, want := make([][]byte, nd), make([][]byte, nd)
					dst, c := make([][]byte, nd), make([][]byte, nd)
					for j := range dst {
						off := j % 5
						bufs[j], dst[j] = window(rng, off, n)
						c[j] = randRow(rng, ns)
						for i := range c[j] {
							if rng.Intn(8) == 0 {
								c[j][i] = 1
							}
						}
						want[j] = bytes.Clone(bufs[j])
						for i, s := range src {
							MulAddRowScalar(want[j][off:off+n], s, c[j][i])
						}
					}
					mats = MulAddRows(dst, src, c, mats)
					for j := range dst {
						if !bytes.Equal(bufs[j], want[j]) {
							t.Fatalf("MulAddRows n=%d sources=%d rows=%d: row %d diverges from scalar", n, ns, nd, j)
						}
					}
				}
			}
		}
	})
}

// AddSlots must equal one AddRowScalar per slot on every tier: rows of
// 1, 4, 63, 64, 65, 1,024 and 1,436 bytes (a masked lane alone, one
// full lane, a masked lane behind full ones, no ragged end, a ragged end
// over three lanes) and 1 to 64 slots, drawn with repeats from an arena
// whose stride leaves a gap behind each slot. dst sits at an odd offset
// inside a larger array, so a write outside it shows.
func TestAddSlotsParity(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, n := range []int{1, 4, 63, 64, 65, 1024, 1436} {
			const slots = 80
			stride := n + 3
			arena := randRow(rng, slots*stride)
			for ns := 1; ns <= 64; ns++ {
				idx := make([]int32, ns)
				for i := range idx {
					idx[i] = int32(rng.Intn(slots))
				}
				buf, dst := window(rng, ns%5, n)
				want := bytes.Clone(buf)
				for _, s := range idx {
					AddRowScalar(want[ns%5:ns%5+n], arena[int(s)*stride:][:n])
				}
				AddSlots(dst, arena, stride, idx)
				if !bytes.Equal(buf, want) {
					t.Fatalf("AddSlots n=%d slots=%d diverges from scalar", n, ns)
				}
			}
		}
	})
}

// AddSlots refuses a slot that does not lie inside the arena before it
// reads a byte.
func TestAddSlotsBounds(t *testing.T) {
	arena, dst := make([]byte, 4*64), make([]byte, 64)
	for _, idx := range [][]int32{{4}, {0, 4}, {-1}, {3, -1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddSlots with slots %v in a 4-slot arena did not panic", idx)
				}
			}()
			AddSlots(dst, arena, 64, idx)
		}()
	}
}

// The portable word-wise cores must stay byte-identical to the scalar
// paths when called directly too, not only through the exported
// kernels' dispatch.
func TestPortableWordCoresParity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 64, 1031} {
		src := randRow(rng, n)
		dst := randRow(rng, n)
		wantAdd := append([]byte(nil), dst...)
		AddRowScalar(wantAdd, src)
		gotAdd := append([]byte(nil), dst...)
		addRowWords(gotAdd, src)
		if !bytes.Equal(gotAdd, wantAdd) {
			t.Fatalf("addRowWords n=%d diverges from scalar", n)
		}
		for _, c := range []byte{2, 3, 0x35, 0x80, 0xFF} {
			want := append([]byte(nil), dst...)
			MulAddRowScalar(want, src, c)
			got := append([]byte(nil), dst...)
			mulAddRowWords(got, src, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("mulAddRowWords n=%d c=%d diverges from scalar", n, c)
			}
			wantRow := append([]byte(nil), src...)
			ScaleRowScalar(wantRow, c)
			gotRow := append([]byte(nil), src...)
			scaleRowWords(gotRow, c)
			if !bytes.Equal(gotRow, wantRow) {
				t.Fatalf("scaleRowWords n=%d c=%d diverges from scalar", n, c)
			}
		}
	}
}

// Unaligned sub-slices: no tier may assume alignment of the slice data
// pointer.
func TestRowOpsUnalignedParity(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		backingSrc := randRow(rng, 256)
		backingDst := randRow(rng, 256)
		for off := 0; off < 8; off++ {
			for _, n := range []int{24, 25, 31} {
				src := backingSrc[off : off+n]
				dst := backingDst[off : off+n]
				want := append([]byte(nil), dst...)
				MulAddRowScalar(want, src, 0x53)
				got := append([]byte(nil), dst...)
				MulAddRow(got, src, 0x53)
				if !bytes.Equal(got, want) {
					t.Fatalf("MulAddRow off=%d n=%d diverges from scalar", off, n)
				}
			}
		}
	})
}

// TestAffineTable emulates GF2P8AFFINEQB with a zero constant term in
// pure Go — output bit i is the parity of (matrix byte 7-i AND x) — and
// requires affTab to give Mul(c, x) for all 65,536 pairs, so a host
// without GFNI still checks the table's bit order.
func TestAffineTable(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			var y byte
			for i := 0; i < 8; i++ {
				row := byte(affTab[c] >> (8 * (7 - i)))
				y |= byte(bits.OnesCount8(row&byte(x))&1) << i
			}
			if want := Mul(byte(c), byte(x)); y != want {
				t.Fatalf("affine multiply %#x*%#x = %#x, want %#x", c, x, y, want)
			}
		}
	}
}

// TestKernelTier logs which tier this host's row operations run on and
// which tiers the parity tests above covered: a host without GFNI (or
// AVX2) never ran those subtests.
func TestKernelTier(t *testing.T) {
	names := make([]string, len(tiers))
	for i, k := range tiers {
		names[i] = k.name
	}
	rows, slots := "one MulAddRow per coefficient", "one AddRow per slot"
	if tiers[0].gfni {
		rows, slots = "the multi-row GFNI kernel", "the multi-source AVX-512 XOR kernel"
	}
	t.Logf("row kernels run on the %s tier (Features %v), MulAddRows on %s, AddSlots on %s; parity covers %s",
		tiers[0].name, Features(), rows, slots, strings.Join(names, ", "))
	if gfni := slices.Contains(Features(), "gfni"); gfni != tiers[0].gfni {
		t.Errorf("Features() reports gfni=%v, but the selected tier has gfni=%v", gfni, tiers[0].gfni)
	}
}

func TestMulWordMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w [8]byte
	for c := 0; c < 256; c++ {
		rng.Read(w[:])
		var in, want [8]byte
		copy(in[:], w[:])
		for i := range w {
			want[i] = Mul(w[i], byte(c))
		}
		var got [8]byte
		putUint64 := func(b []byte, v uint64) {
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
		}
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(in[i]) << (8 * i)
		}
		m := mulPlanes(byte(c))
		putUint64(got[:], mulWord(v, &m))
		if got != want {
			t.Fatalf("mulWord c=%d: got %v want %v", c, got, want)
		}
	}
}

func BenchmarkMulAddRowScalar(b *testing.B) {
	dst := make([]byte, 1280)
	src := make([]byte, 1280)
	for i := range src {
		src[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddRowScalar(dst, src, 0x35)
	}
}

func BenchmarkAddRowScalar(b *testing.B) {
	dst := make([]byte, 1280)
	src := make([]byte, 1280)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddRowScalar(dst, src)
	}
}

func BenchmarkScaleRow(b *testing.B) {
	row := make([]byte, 1280)
	for i := range row {
		row[i] = byte(i*17 + 1)
	}
	b.SetBytes(int64(len(row)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScaleRow(row, 0x35)
	}
}

func BenchmarkScaleRowScalar(b *testing.B) {
	row := make([]byte, 1280)
	for i := range row {
		row[i] = byte(i*17 + 1)
	}
	b.SetBytes(int64(len(row)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScaleRowScalar(row, 0x35)
	}
}
