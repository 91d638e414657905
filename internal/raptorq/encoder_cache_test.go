package raptorq

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"polyraptor/internal/gf256"
)

// uncachedSymbol recomputes encoding symbol esi the way the pre-cache
// encoder did: a fresh LTIndices expansion XORed over the intermediate
// symbols, bypassing ltIndices entirely.
func uncachedSymbol(e *Encoder, esi uint32) []byte {
	out := make([]byte, e.t)
	if int(esi) < e.p.K {
		copy(out, e.src[esi])
		return out
	}
	c := e.intermediates()
	for _, col := range e.p.LTIndices(esi) {
		gf256.AddRow(out, c[col])
	}
	return out
}

// TestEncoderCacheParity: symbols produced through the LT-expansion
// cache (first touch, memo hit, and source fast path) must be
// byte-identical to the uncached scalar-era computation.
func TestEncoderCacheParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 13, 64} {
		src := make([][]byte, k)
		for i := range src {
			src[i] = make([]byte, 96)
			rng.Read(src[i])
		}
		enc, err := NewEncoder(src)
		if err != nil {
			t.Fatal(err)
		}
		// Two passes over the same ESIs: pass 1 populates the repair
		// memo, pass 2 must serve hits with identical bytes.
		for pass := 0; pass < 2; pass++ {
			for esi := uint32(0); esi < uint32(2*k+5); esi++ {
				want := uncachedSymbol(enc, esi)
				got := enc.Symbol(esi)
				if !bytes.Equal(got, want) {
					t.Fatalf("K=%d esi=%d pass=%d: cached symbol diverges", k, esi, pass)
				}
			}
		}
	}
}

// TestEncoderCacheBeyondCap: ESIs past the memo cap must still encode
// correctly (computed, just not stored).
func TestEncoderCacheBeyondCap(t *testing.T) {
	src := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}}
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the memo past its cap, then verify a fresh high ESI and a
	// cached low one.
	for i := 0; i < ltRepairCacheCap+10; i++ {
		enc.Symbol(uint32(enc.K() + i))
	}
	if len(enc.ltRepair) > ltRepairCacheCap {
		t.Fatalf("memo grew past cap: %d", len(enc.ltRepair))
	}
	for _, esi := range []uint32{uint32(enc.K()), uint32(enc.K() + ltRepairCacheCap + 7), 1 << 30} {
		if !bytes.Equal(enc.Symbol(esi), uncachedSymbol(enc, esi)) {
			t.Fatalf("esi %d diverges beyond cache cap", esi)
		}
	}
}

// TestEncoderConcurrentSymbols: the documented contract — an Encoder
// is safe for concurrent use after construction — now also covers the
// memo. Run with -race.
func TestEncoderConcurrentSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := make([][]byte, 32)
	for i := range src {
		src[i] = make([]byte, 64)
		rng.Read(src[i])
	}
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 80)
	for esi := range want {
		want[esi] = uncachedSymbol(enc, uint32(esi))
	}
	var wg sync.WaitGroup
	errs := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 64)
			for round := 0; round < 4; round++ {
				for esi := range want {
					buf = enc.AppendSymbol(buf[:0], uint32(esi))
					if !bytes.Equal(buf, want[esi]) {
						errs[g]++
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, n := range errs {
		if n != 0 {
			t.Fatalf("goroutine %d saw %d divergent symbols", g, n)
		}
	}
}
