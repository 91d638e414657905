package raptorq

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestEncodedSymbolsGolden pins every encoded symbol to the bytes the
// map-based solver produced at commit 768d2e3 (the parent of the flat
// planner): per K, the SHA-256 of the L intermediate symbols in column
// order and of the 64 repair symbols with ESIs K..K+63. The
// intermediates are the unique solution of the precode system, so no
// change of pivot order, schedule pruning or storage layout may move
// them — and a receiver built before the change must still decode what
// a sender built after it emits. Both ways of building an encoder are
// held to them: NewEncoder precodes at once, a block of NewObjectEncoder
// on its first repair symbol, which is why the repairs are hashed first.
// The hashes hold on every gf256 kernel tier (eachGFTier); at 24 bytes
// every row is one masked tail on the GFNI/AVX-512 tier.
func TestEncodedSymbolsGolden(t *testing.T) {
	const symSize = 24
	golden := []struct {
		k                     int
		intermediate, repairs string
	}{
		{10, "4a61ad55c28ece76e99ee36c7c22a4945f8de53131c1785d2d15dd689482823f", "2dea81fe9f7dd2a517322a176d38709e1fcd50bc77071ec234aa8d4d05408a87"},
		{101, "71804f3725807a3fb776c7fd6262703fd27df2f575f1b1996a81937bf88be4c6", "7497c5bb57bb22d51833ad5c01613494491da9a2f032b4231ccb9c07dece7af9"},
		{256, "56a2a84c9cc8b2645da265a38273b2f676392f57320e03977e7ba9c29e07d39a", "8cb45ff09f1420465e7ee87963d49797e8d178d5b0fe0cd4cb5324176c536f91"},
		{1000, "79d2f81f3779ec45ca5af197d0ccf7c28ed101580ba19511f22627ad0e381561", "cfd28c316d708931ef1799dbd6ac3273acf2404c8ec6b4f79662ab0e65e6bd60"},
	}
	eachGFTier(t, func(t *testing.T) {
		for _, g := range golden {
			src := randSymbols(rand.New(rand.NewSource(int64(7000+g.k))), g.k, symSize)
			eager, err := NewEncoder(src)
			if err != nil {
				t.Fatalf("K=%d: %v", g.k, err)
			}
			lazy, err := NewObjectEncoder(bytes.Join(src, nil), symSize, g.k)
			if err != nil {
				t.Fatalf("K=%d: %v", g.k, err)
			}
			if n := lazy.Precoded(); n != 0 {
				t.Fatalf("K=%d: NewObjectEncoder precoded %d blocks before a repair symbol was asked for", g.k, n)
			}
			for _, b := range []struct {
				name string
				enc  *Encoder
			}{{"NewEncoder", eager}, {"NewObjectEncoder", lazy.Block(0)}} {
				h := sha256.New()
				for esi := uint32(g.k); esi < uint32(g.k)+64; esi++ {
					h.Write(b.enc.Symbol(esi))
				}
				rep := hex.EncodeToString(h.Sum(nil))
				h.Reset()
				for _, c := range b.enc.intermediates() {
					h.Write(c)
				}
				inter := hex.EncodeToString(h.Sum(nil))
				if inter != g.intermediate || rep != g.repairs {
					t.Errorf("K=%d (L=%d), %s: encoded symbols moved\n  intermediates %s\n  repairs       %s", g.k, b.enc.p.L, b.name, inter, rep)
				}
			}
			if n := lazy.Precoded(); n != 1 {
				t.Errorf("K=%d: %d precodes for one block", g.k, n)
			}
		}
	})
}
