package raptorq

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode drives the decoder two ways from one input:
//
//  1. Round trip: encode a deterministic source block, deliver the
//     symbols the mask selects (source and repair ESIs interleaved),
//     and require Decode to either report a sentinel error or
//     reproduce the source bytes exactly.
//  2. Adversarial: feed the raw fuzz bytes themselves as symbol data.
//     Garbage in may mean garbage out, but never a panic.
//
// k and t are folded into small ranges so the fuzzer spends its budget
// on delivery patterns (duplicates, repair-heavy sets, starvation)
// rather than on giant matrices.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(4), uint8(8), int64(1), []byte{0xff})
	f.Add(uint8(1), uint8(1), int64(7), []byte{0x01})
	f.Add(uint8(10), uint8(3), int64(42), []byte{0xaa, 0x55, 0xff})
	f.Add(uint8(13), uint8(5), int64(-9), []byte{0x00, 0xff, 0x0f, 0xf0})
	f.Add(uint8(32), uint8(2), int64(3), bytes.Repeat([]byte{0xfe}, 12))
	// Few-missing mask (k=32): all sources but ESI 0, plus two repairs —
	// lands in the partial-systematic path.
	f.Add(uint8(31), uint8(4), int64(5), []byte{0xfe, 0xff, 0xff, 0xff, 0x03})
	// Repair-heavy mask (k=32): no sources at all, 40 repairs — the
	// full-solver path with a pure-repair equation set.
	f.Add(uint8(31), uint8(4), int64(6), []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Half-and-half (k=24): alternating sources plus a repair tail.
	f.Add(uint8(23), uint8(3), int64(8), []byte{0x55, 0x55, 0x55, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, kb, tb uint8, seed int64, mask []byte) {
		k := 1 + int(kb)%32
		symSize := 1 + int(tb)%16

		// Deterministic source block from the seed (xorshift — no
		// global RNG, so the target itself is polyvet-clean).
		state := uint64(seed)*0x9e3779b97f4a7c15 + 1
		next := func() byte {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return byte(state)
		}
		source := make([][]byte, k)
		for i := range source {
			source[i] = make([]byte, symSize)
			for j := range source[i] {
				source[i][j] = next()
			}
		}

		enc, err := NewEncoder(source)
		if err != nil {
			t.Fatalf("NewEncoder(k=%d t=%d): %v", k, symSize, err)
		}
		dec, err := NewDecoder(k, symSize)
		if err != nil {
			t.Fatalf("NewDecoder(k=%d t=%d): %v", k, symSize, err)
		}

		// Wrong-size symbols must be rejected without mutating state.
		if _, err := dec.AddSymbol(0, make([]byte, symSize+1)); err == nil {
			t.Fatal("AddSymbol accepted a wrong-size symbol")
		}

		// Deliver mask-selected ESIs: bit b of mask byte i covers ESI
		// 8*i+b, walking from the systematic range into repair space.
		for i, m := range mask {
			for b := 0; b < 8; b++ {
				if m&(1<<b) == 0 {
					continue
				}
				esi := uint32(8*i + b)
				if _, err := dec.AddSymbol(esi, enc.Symbol(esi)); err != nil {
					t.Fatalf("AddSymbol(%d): %v", esi, err)
				}
			}
		}

		out, err := dec.Decode()
		switch {
		case err == nil:
			if len(out) != k {
				t.Fatalf("Decode returned %d symbols, want %d", len(out), k)
			}
			for i := range out {
				if !bytes.Equal(out[i], source[i]) {
					t.Fatalf("symbol %d corrupt: got %x want %x", i, out[i], source[i])
				}
			}
		case errors.Is(err, ErrNeedMoreSymbols):
			if dec.Ready() {
				t.Fatalf("ErrNeedMoreSymbols with %d >= %d symbols held", dec.Received(), k)
			}
		case errors.Is(err, ErrSingular):
			// Legal at low overhead; adding more symbols must still work.
		default:
			t.Fatalf("Decode: unexpected error %v", err)
		}

		// Adversarial pass: raw fuzz bytes as symbol payloads under
		// mask-derived ESIs. No invariant beyond "does not panic" and
		// symbol sizing still being enforced.
		adv, err := NewDecoder(k, symSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+symSize <= len(mask) && i < 64*symSize; i += symSize {
			esi := uint32(mask[i]) | uint32(i)<<8
			if _, err := adv.AddSymbol(esi, mask[i:i+symSize]); err != nil {
				t.Fatalf("adversarial AddSymbol(%d): %v", esi, err)
			}
		}
		if out, err := adv.Decode(); err == nil && len(out) != k {
			t.Fatalf("adversarial Decode returned %d symbols, want %d", len(out), k)
		}
	})
}

// FuzzPlan drives the planner through a byte program on one reused
// decoder: the first byte picks K, then every three bytes are a round —
// which sources to drop (a bit pattern applied cyclically), how far
// past K the repair window starts, and the overhead (0-2). Each round
// must agree with the dense rank oracle on the verdict and decode to
// the exact source, so scratch left behind by any earlier round (a
// wider dense system, a longer op list, a singular abort half way
// through) can never leak into a later plan.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{9, 0x01, 0, 1, 0xff, 7, 0, 0x00, 3, 2})
	f.Add([]byte{0, 0x01, 0, 0, 0x01, 1, 0, 0x01, 2, 0})
	f.Add([]byte{31, 0x55, 200, 2, 0xaa, 0, 0, 0xf0, 13, 1, 0x0f, 99, 2})
	f.Add([]byte{63, 0xff, 0, 0, 0xfe, 0, 1, 0x80, 255, 2, 0xff, 17, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 4 {
			return
		}
		k := 1 + int(prog[0])%64
		const symSize = 4
		source := make([][]byte, k)
		for i := range source {
			source[i] = []byte{byte(i), byte(i >> 3), prog[0], byte(7 * i)}
		}
		enc, err := NewEncoder(source)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(k, symSize)
		if err != nil {
			t.Fatal(err)
		}
		dec.forceFull = true
		rounds := prog[1:]
		if len(rounds) > 3*16 {
			rounds = rounds[:3*16]
		}
		for ; len(rounds) >= 3; rounds = rounds[3:] {
			drop, window, overhead := rounds[0], uint32(rounds[1]), int(rounds[2])%3
			var esis []uint32
			for i := 0; i < k; i++ {
				if drop&(1<<(i%8)) == 0 {
					esis = append(esis, uint32(i))
				}
			}
			for esi := uint32(k) + window; len(esis) < k+overhead; esi++ {
				esis = append(esis, esi)
			}
			dec.Reset()
			checkPlanAgainstOracle(t, dec, enc, source, esis)
		}
	})
}
