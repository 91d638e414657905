package raptorq

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"polyraptor/internal/gf256"
)

// eachGFTier runs f as a subtest on the gf256 kernel tier init chose
// and, where that is the GFNI/AVX-512 tier, again with it switched off,
// so the same bytes are required of the AVX2 kernels.
func eachGFTier(t *testing.T, f func(t *testing.T)) {
	t.Run("host", f)
	if gf256.SetGFNI(false) {
		defer gf256.SetGFNI(true)
		t.Run("gfni-off", f)
	}
}

// TestKernelTiersAgree encodes one block, draws its repair symbols and
// decodes it from a 30 %-loss receive set on the host's tier and again
// with the GFNI/AVX-512 tier off, and requires the intermediates, the
// repairs and the decoded block to be byte-equal. Symbol sizes 1,024
// and 1,436: the second leaves every row a ragged 28-byte end.
func TestKernelTiersAgree(t *testing.T) {
	if !slices.Contains(gf256.Features(), "gfni") {
		t.Skip("host has no GFNI/AVX-512 tier: one tier, nothing to compare")
	}
	const k = 256
	for _, symSize := range []int{1024, 1436} {
		rng := rand.New(rand.NewSource(int64(symSize)))
		source := randSymbols(rng, k, symSize)
		var received []uint32
		for esi := uint32(0); len(received) < k+2; esi++ {
			if esi >= k || rng.Float64() >= 0.3 {
				received = append(received, esi)
			}
		}
		run := func() (out [][]byte) {
			enc, err := NewEncoder(source)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range enc.intermediates() {
				out = append(out, bytes.Clone(c))
			}
			for esi := uint32(k); esi < k+64; esi++ {
				out = append(out, bytes.Clone(enc.Symbol(esi)))
			}
			dec, err := NewDecoder(k, symSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, esi := range received {
				if _, err := dec.AddSymbol(esi, enc.Symbol(esi)); err != nil {
					t.Fatal(err)
				}
			}
			block, err := dec.Decode()
			if err != nil {
				t.Fatalf("T=%d: %v", symSize, err)
			}
			for i, s := range block {
				if !bytes.Equal(s, source[i]) {
					t.Fatalf("T=%d: decoded symbol %d corrupt", symSize, i)
				}
			}
			return out
		}
		host := run()
		gf256.SetGFNI(false)
		off := run()
		gf256.SetGFNI(true)
		if len(host) != len(off) {
			t.Fatalf("T=%d: %d vs %d symbols", symSize, len(host), len(off))
		}
		for i := range host {
			if !bytes.Equal(host[i], off[i]) {
				t.Fatalf("T=%d: symbol %d differs between the GFNI and AVX2 tiers", symSize, i)
			}
		}
	}
}
