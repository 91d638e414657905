package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXOR(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatalf("Add(0x53,0xCA) = %#x, want %#x", Add(0x53, 0xCA), 0x53^0xCA)
	}
	if Add(7, 7) != 0 {
		t.Fatal("x + x must be 0 in GF(2^8)")
	}
}

func TestMulIdentity(t *testing.T) {
	for a := 0; a < 256; a++ {
		if got := Mul(byte(a), 1); got != byte(a) {
			t.Fatalf("Mul(%d,1) = %d", a, got)
		}
		if got := Mul(byte(a), 0); got != 0 {
			t.Fatalf("Mul(%d,0) = %d", a, got)
		}
	}
}

// mulSlow is a reference bitwise (carry-less with reduction) multiply
// used to validate the table-driven implementation.
func mulSlow(a, b byte) byte {
	var p int
	x, y := int(a), int(b)
	for i := 0; i < 8; i++ {
		if y&1 != 0 {
			p ^= x
		}
		y >>= 1
		x <<= 1
		if x&0x100 != 0 {
			x ^= reductionPoly
		}
	}
	return byte(p)
}

func TestMulAgainstReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := mulSlow(byte(a), byte(b))
			if got := Mul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutativeAssociativeQuick(t *testing.T) {
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributivityQuick(t *testing.T) {
	distr := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distr, nil); err != nil {
		t.Error(err)
	}
}

func TestDivInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("Div(%d,%d)*%d != %d", a, b, b, a)
			}
		}
	}
}

func TestInv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Mul(byte(a), Inv(byte(a))) != 1 {
			t.Fatalf("a * Inv(a) != 1 for a=%d", a)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	// alpha = 2 must generate the full multiplicative group: 255 distinct
	// powers before cycling.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		v := Exp(i)
		if seen[v] {
			t.Fatalf("Exp(%d)=%d repeats before full cycle", i, v)
		}
		seen[v] = true
	}
	if Exp(255) != 1 {
		t.Fatalf("alpha^255 = %d, want 1", Exp(255))
	}
}

func TestAddRow(t *testing.T) {
	dst := []byte{1, 2, 3, 4}
	src := []byte{4, 3, 2, 1}
	AddRow(dst, src)
	want := []byte{5, 1, 1, 5}
	if !bytes.Equal(dst, want) {
		t.Fatalf("AddRow = %v, want %v", dst, want)
	}
	AddRow(dst, src) // adding twice restores the original
	if !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
		t.Fatalf("AddRow twice did not cancel: %v", dst)
	}
}

func TestMulAddRowAgainstScalar(t *testing.T) {
	src := []byte{0, 1, 2, 0x53, 0xFF}
	for c := 0; c < 256; c++ {
		dst := []byte{9, 9, 9, 9, 9}
		MulAddRow(dst, src, byte(c))
		for i := range src {
			want := byte(9) ^ Mul(byte(c), src[i])
			if dst[i] != want {
				t.Fatalf("MulAddRow c=%d idx=%d got %d want %d", c, i, dst[i], want)
			}
		}
	}
}

func TestScaleRow(t *testing.T) {
	for c := 0; c < 256; c++ {
		row := []byte{0, 1, 7, 0x80, 0xFF}
		orig := append([]byte(nil), row...)
		ScaleRow(row, byte(c))
		for i := range row {
			if row[i] != Mul(orig[i], byte(c)) {
				t.Fatalf("ScaleRow c=%d idx=%d got %d want %d", c, i, row[i], Mul(orig[i], byte(c)))
			}
		}
	}
}

func TestMulAddRowZeroAndOneFastPaths(t *testing.T) {
	src := []byte{10, 20, 30}
	dst := []byte{1, 2, 3}
	MulAddRow(dst, src, 0)
	if !bytes.Equal(dst, []byte{1, 2, 3}) {
		t.Fatalf("MulAddRow with c=0 modified dst: %v", dst)
	}
	MulAddRow(dst, src, 1)
	if !bytes.Equal(dst, []byte{11, 22, 29}) {
		t.Fatalf("MulAddRow with c=1 = %v", dst)
	}
}

func BenchmarkMulAddRow(b *testing.B) {
	dst := make([]byte, 1280)
	src := make([]byte, 1280)
	for i := range src {
		src[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddRow(dst, src, 0x35)
	}
}

func BenchmarkAddRow(b *testing.B) {
	dst := make([]byte, 1280)
	src := make([]byte, 1280)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddRow(dst, src)
	}
}

// BenchmarkMulAddRows is one pass of the multi-row kernel, 8
// destination rows over 256 sources of 1,024 bytes, against the same
// product as one MulAddRow per coefficient. Bytes are row-operation
// bytes, 8*256 rows of 1,024 an op, as in polyperf's cell.
func BenchmarkMulAddRows(b *testing.B) {
	const rows, ns, n = 8, 256, 1024
	rng := rand.New(rand.NewSource(8))
	src, dst, c := make([][]byte, ns), make([][]byte, rows), make([][]byte, rows)
	for i := range src {
		src[i] = make([]byte, n)
		rng.Read(src[i])
	}
	for j := range dst {
		dst[j], c[j] = make([]byte, n), make([]byte, ns)
		rng.Read(c[j])
	}
	b.Run("rows", func(b *testing.B) {
		var mats []uint64
		b.SetBytes(rows * ns * n)
		for i := 0; i < b.N; i++ {
			mats = MulAddRows(dst, src, c, mats)
		}
	})
	b.Run("per-row", func(b *testing.B) {
		b.SetBytes(rows * ns * n)
		for i := 0; i < b.N; i++ {
			for k, s := range src {
				for j, d := range dst {
					MulAddRow(d, s, c[j][k])
				}
			}
		}
	})
}

// BenchmarkAddSlots sums ten 1,436-byte slots of an arena into a row,
// as one AddSlots call and as one AddRow per slot. Its bytes are
// row-operation bytes, ten rows a call, so its MB/s reads against
// AddRow's.
func BenchmarkAddSlots(b *testing.B) {
	const ns, n = 10, 1436
	rng := rand.New(rand.NewSource(10))
	arena, dst := make([]byte, 4*ns*n), make([]byte, n)
	rng.Read(arena)
	idx := make([]int32, ns)
	for i := range idx {
		idx[i] = int32(4*i + 1)
	}
	b.Run("slots", func(b *testing.B) {
		b.SetBytes(ns * n)
		for i := 0; i < b.N; i++ {
			AddSlots(dst, arena, n, idx)
		}
	})
	b.Run("per-slot", func(b *testing.B) {
		b.SetBytes(ns * n)
		for i := 0; i < b.N; i++ {
			for _, s := range idx {
				AddRow(dst, arena[int(s)*n:][:n])
			}
		}
	})
}
