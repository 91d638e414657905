package raptorq

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSymbols(rng *rand.Rand, k, t int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, t)
		rng.Read(out[i])
	}
	return out
}

func TestEncoderSystematic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 5, 13, 64, 200} {
		src := randSymbols(rng, k, 64)
		enc, err := NewEncoder(src)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(enc.Symbol(uint32(i)), src[i]) {
				t.Fatalf("K=%d: symbol %d is not systematic", k, i)
			}
		}
	}
}

func TestEncoderRepairConsistentWithLT(t *testing.T) {
	// A repair symbol must equal the XOR of the intermediate symbols
	// selected by LTIndices — i.e. AppendSymbol and the systematic
	// property must come from the same construction.
	rng := rand.New(rand.NewSource(2))
	src := randSymbols(rng, 32, 16)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	for esi := uint32(32); esi < 64; esi++ {
		want := make([]byte, 16)
		c := enc.intermediates()
		for _, col := range enc.p.LTIndices(esi) {
			for i := range want {
				want[i] ^= c[col][i]
			}
		}
		if !bytes.Equal(enc.Symbol(esi), want) {
			t.Fatalf("repair esi %d mismatch", esi)
		}
	}
}

func TestEncoderInputValidation(t *testing.T) {
	if _, err := NewEncoder(nil); err == nil {
		t.Fatal("NewEncoder(nil) succeeded")
	}
	if _, err := NewEncoder([][]byte{{}}); err == nil {
		t.Fatal("NewEncoder with empty symbol succeeded")
	}
	if _, err := NewEncoder([][]byte{{1, 2}, {1}}); err == nil {
		t.Fatal("NewEncoder with ragged symbols succeeded")
	}
}

func TestDecodeAllSourceSymbols(t *testing.T) {
	// Systematic fast path: feeding exactly the K source symbols must
	// decode with no matrix work and return identical data.
	rng := rand.New(rand.NewSource(3))
	src := randSymbols(rng, 50, 32)
	dec, err := NewDecoder(50, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range src {
		added, err := dec.AddSymbol(uint32(i), s)
		if err != nil || !added {
			t.Fatalf("AddSymbol(%d): added=%v err=%v", i, added, err)
		}
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if !bytes.Equal(got[i], src[i]) {
			t.Fatalf("source symbol %d corrupted", i)
		}
	}
}

func TestDecodeRepairOnly(t *testing.T) {
	// Decode using only repair symbols (no source symbols at all).
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 7, 40} {
		src := randSymbols(rng, k, 24)
		enc, err := NewEncoder(src)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(k, 24)
		if err != nil {
			t.Fatal(err)
		}
		esi := uint32(k)
		for !dec.Ready() || !tryDecode(dec) {
			if _, err := dec.AddSymbol(esi, enc.Symbol(esi)); err != nil {
				t.Fatal(err)
			}
			esi++
			if esi > uint32(k+50) {
				t.Fatalf("K=%d: decode did not converge after %d repair symbols", k, esi-uint32(k))
			}
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				t.Fatalf("K=%d: symbol %d wrong after repair-only decode", k, i)
			}
		}
	}
}

func tryDecode(d *Decoder) bool {
	_, err := d.Decode()
	return err == nil
}

func TestDecodeMixedLoss(t *testing.T) {
	// Drop a random subset of source symbols and replace them with
	// repair symbols — the common Polyraptor case.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		k := 20 + rng.Intn(100)
		tSize := 8 + rng.Intn(64)
		src := randSymbols(rng, k, tSize)
		enc, err := NewEncoder(src)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(k, tSize)
		if err != nil {
			t.Fatal(err)
		}
		lost := 0
		for i := 0; i < k; i++ {
			if rng.Float64() < 0.3 {
				lost++
				continue
			}
			dec.AddSymbol(uint32(i), src[i])
		}
		// Feed repair symbols until decode succeeds (allow a couple of
		// extra for the rare rank shortfall).
		esi := uint32(k)
		for i := 0; i < lost+5; i++ {
			dec.AddSymbol(esi, enc.Symbol(esi))
			esi++
			if dec.Ready() && tryDecode(dec) {
				break
			}
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("trial %d (K=%d, lost=%d): %v", trial, k, lost, err)
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				t.Fatalf("trial %d: symbol %d wrong", trial, i)
			}
		}
	}
}

func TestDecoderDuplicateSymbolsIgnored(t *testing.T) {
	src := randSymbols(rand.New(rand.NewSource(6)), 10, 8)
	dec, _ := NewDecoder(10, 8)
	added, _ := dec.AddSymbol(3, src[3])
	if !added {
		t.Fatal("first add not registered")
	}
	added, _ = dec.AddSymbol(3, src[3])
	if added {
		t.Fatal("duplicate add registered as new")
	}
	if dec.Received() != 1 {
		t.Fatalf("Received = %d, want 1", dec.Received())
	}
}

func TestDecoderRejectsWrongSize(t *testing.T) {
	dec, _ := NewDecoder(10, 8)
	if _, err := dec.AddSymbol(0, make([]byte, 9)); err == nil {
		t.Fatal("wrong-size symbol accepted")
	}
}

func TestDecodeNeedMoreSymbols(t *testing.T) {
	dec, _ := NewDecoder(10, 8)
	dec.AddSymbol(0, make([]byte, 8))
	if _, err := dec.Decode(); err != ErrNeedMoreSymbols {
		t.Fatalf("err = %v, want ErrNeedMoreSymbols", err)
	}
}

func TestDecoderSourceKnownCount(t *testing.T) {
	src := randSymbols(rand.New(rand.NewSource(7)), 10, 8)
	enc, _ := NewEncoder(src)
	dec, _ := NewDecoder(10, 8)
	dec.AddSymbol(0, src[0])
	dec.AddSymbol(4, src[4])
	dec.AddSymbol(12, enc.Symbol(12)) // repair
	if dec.SourceKnown() != 2 {
		t.Fatalf("SourceKnown = %d, want 2", dec.SourceKnown())
	}
	if dec.Received() != 3 {
		t.Fatalf("Received = %d, want 3", dec.Received())
	}
	if got := dec.Source(4); !bytes.Equal(got, src[4]) {
		t.Fatal("Source(4) does not return the received symbol")
	}
	if dec.Source(1) != nil {
		t.Fatal("Source(1) should be nil before decode")
	}
}

// Property-based round trip across random K, T, loss patterns and
// repair overhead.
func TestRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(60)
		tSize := 1 + r.Intn(48)
		src := randSymbols(rng, k, tSize)
		enc, err := NewEncoder(src)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(k, tSize)
		if err != nil {
			return false
		}
		// Random arrival order of source + 10 repair symbols, with each
		// symbol surviving with p=0.7; keep feeding until decoded.
		esis := r.Perm(k + 10)
		for _, e := range esis {
			if r.Float64() < 0.3 {
				continue
			}
			dec.AddSymbol(uint32(e), enc.Symbol(uint32(e)))
		}
		extra := uint32(k + 10)
		for !(dec.Ready() && tryDecode(dec)) {
			dec.AddSymbol(extra, enc.Symbol(extra))
			extra++
			if extra > uint32(k+200) {
				return false
			}
		}
		got, err := dec.Decode()
		if err != nil {
			return false
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestStatisticallyUniqueAcrossESIRanges validates the multi-source
// claim: symbols drawn from disjoint ESI ranges by uncoordinated
// senders are all useful (jointly decodable) because they are distinct
// equations of the same code.
func TestStatisticallyUniqueAcrossESIRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k := 60
	src := randSymbols(rng, k, 16)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewDecoder(k, 16)
	// Three "senders", each contributing ~k/3+3 repair symbols from a
	// disjoint ESI range (the paper's partitioning scheme).
	n := 3
	per := k/n + 3
	for s := 0; s < n; s++ {
		for i := 0; i < per; i++ {
			esi := uint32(k + s + n*i) // ESIs ≡ s (mod n)
			dec.AddSymbol(esi, enc.Symbol(esi))
		}
	}
	if !dec.Ready() {
		t.Fatalf("only %d symbols for K=%d", dec.Received(), k)
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatalf("multi-range decode failed: %v", err)
	}
	for i := range src {
		if !bytes.Equal(got[i], src[i]) {
			t.Fatalf("symbol %d wrong", i)
		}
	}
}

func TestAppendSymbolNoRealloc(t *testing.T) {
	src := randSymbols(rand.New(rand.NewSource(10)), 16, 32)
	enc, _ := NewEncoder(src)
	buf := make([]byte, 0, 32)
	out := enc.AppendSymbol(buf, 20)
	if len(out) != 32 {
		t.Fatalf("AppendSymbol length %d, want 32", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendSymbol reallocated despite sufficient capacity")
	}
}
