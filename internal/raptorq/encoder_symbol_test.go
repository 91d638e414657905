package raptorq

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"polyraptor/internal/gf256"
)

// scalarSymbol recomputes encoding symbol esi independently of
// AppendSymbol: a fresh LTIndices expansion XORed over the intermediate
// symbols.
func scalarSymbol(e *Encoder, esi uint32) []byte {
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

// TestSymbolMatchesLTExpansion: every symbol, source and repair, asked
// for once and again, is byte-identical to the scalar computation from its
// LT expansion, up to the highest ESI there is.
func TestSymbolMatchesLTExpansion(t *testing.T) {
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
		esis := []uint32{uint32(k + 4103), 1 << 30, 1<<32 - 1}
		for esi := uint32(0); esi < uint32(2*k+5); esi++ {
			esis = append(esis, esi)
		}
		for pass := 0; pass < 2; pass++ {
			for _, esi := range esis {
				if !bytes.Equal(enc.Symbol(esi), scalarSymbol(enc, esi)) {
					t.Fatalf("K=%d esi=%d pass=%d: symbol diverges", k, esi, pass)
				}
			}
		}
	}
}

// TestEncoderConcurrentSymbols: the documented contract — an Encoder
// is safe for concurrent use after construction. Run with -race.
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
		want[esi] = scalarSymbol(enc, uint32(esi))
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
