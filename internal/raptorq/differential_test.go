package raptorq

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential tests for the layered decode pipeline: the partial-
// systematic path (partial.go) must produce byte-identical output to
// the full inactivation solver on every loss pattern, and the block-
// parallel object front-end must be indistinguishable from its serial
// schedule. Both families run under -race in CI's sweep job.

// lossPattern names a deterministic choice of missing source rows.
type lossPattern struct {
	name string
	rows func(k, m int) []int
}

var lossPatterns = []lossPattern{
	{"prefix", func(k, m int) []int {
		rows := make([]int, m)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}},
	{"suffix", func(k, m int) []int {
		rows := make([]int, m)
		for i := range rows {
			rows[i] = k - m + i
		}
		return rows
	}},
	{"stride", func(k, m int) []int {
		// Evenly spread: adversarial for peeling because every loss
		// lands in a different neighbourhood of the LT graph.
		rows := make([]int, m)
		step := k / m
		for i := range rows {
			rows[i] = i * step
		}
		return rows
	}},
	{"middle-run", func(k, m int) []int {
		// One contiguous burst centred in the block — the classic
		// tail-drop shape.
		rows := make([]int, m)
		start := (k - m) / 2
		for i := range rows {
			rows[i] = start + i
		}
		return rows
	}},
}

// decodeWith runs one decode of the given received set with the decoder
// pinned to a single path.
func decodeWith(t *testing.T, k, symSize int, enc *Encoder, missing []int, repairs int, partial bool) ([][]byte, error) {
	t.Helper()
	dec, err := NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	dec.forceFull = !partial
	dec.forcePartial = partial
	gone := make(map[int]bool, len(missing))
	for _, r := range missing {
		gone[r] = true
	}
	for i := 0; i < k; i++ {
		if gone[i] {
			continue
		}
		if _, err := dec.AddSymbol(uint32(i), enc.Symbol(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < repairs; r++ {
		esi := uint32(k + r)
		if _, err := dec.AddSymbol(esi, enc.Symbol(esi)); err != nil {
			t.Fatal(err)
		}
	}
	return dec.Decode()
}

// TestPartialMatchesFullDifferential asserts that the partial-systematic
// decode is byte-identical to the full solver, which in turn must
// reproduce the source exactly, in two sweeps:
//   - K x every m the partial path takes on x symbol sizes — 1,024 and 64
//     replay through the 32-byte vector kernels, 1,436 (not a multiple of
//     32) through the checked ones — with a random mask and, in turn, one
//     of the fixed patterns per m;
//   - every fixed pattern plus three random masks at m in {1, 2, K/16,
//     K/8, K/4}, so the partialMaxMissing edge sees every pattern and
//     K/4 runs the partial path past it (the range BenchmarkPartialVsFull
//     times to place the crossover).
//
// One reused decoder per path and (K, size) also checks that nothing
// leaks between blocks. Both sweeps run on every gf256 kernel tier
// (eachGFTier).
func TestPartialMatchesFullDifferential(t *testing.T) {
	eachGFTier(t, func(t *testing.T) {
		for _, k := range []int{10, 101, 256, 1000} {
			for _, symSize := range []int{1024, 1436, 64} {
				rng, enc, source, full, part := partialPair(t, k, symSize)
				for m := 1; m <= partialMaxMissing(k); m++ {
					pat := lossPatterns[m%len(lossPatterns)]
					for _, c := range []struct {
						name    string
						missing []int
					}{{pat.name, pat.rows(k, m)}, {"random", rng.Perm(k)[:m]}} {
						if err := partialMatchesFull(full, part, enc, source, c.missing); err != nil {
							t.Fatalf("k=%d T=%d %s m=%d: %v", k, symSize, c.name, m, err)
						}
					}
				}
			}
		}
		for _, k := range []int{16, 64, 256} {
			for _, symSize := range []int{64, 1024} {
				rng, enc, source, full, part := partialPair(t, k, symSize)
				for _, m := range []int{1, 2, k / 16, k / 8, k / 4} {
					for _, pat := range lossPatterns {
						if err := partialMatchesFull(full, part, enc, source, pat.rows(k, m)); err != nil {
							t.Fatalf("k=%d T=%d %s m=%d: %v", k, symSize, pat.name, m, err)
						}
					}
					for s := 0; s < 3; s++ {
						if err := partialMatchesFull(full, part, enc, source, rng.Perm(k)[:m]); err != nil {
							t.Fatalf("k=%d T=%d random#%d m=%d: %v", k, symSize, s, m, err)
						}
					}
				}
			}
		}
	})
}

// partialPair makes a random K-symbol block of size symSize, its encoder,
// and two decoders pinned to the full and the partial path.
func partialPair(t *testing.T, k, symSize int) (rng *rand.Rand, enc *Encoder, source [][]byte, full, part *Decoder) {
	t.Helper()
	rng = rand.New(rand.NewSource(int64(1000*k + symSize)))
	source = make([][]byte, k)
	for i := range source {
		source[i] = make([]byte, symSize)
		rng.Read(source[i])
	}
	var err error
	if enc, err = NewEncoder(source); err != nil {
		t.Fatal(err)
	}
	if full, err = NewDecoder(k, symSize); err != nil {
		t.Fatal(err)
	}
	if part, err = NewDecoder(k, symSize); err != nil {
		t.Fatal(err)
	}
	full.forceFull, part.forcePartial = true, true
	return rng, enc, source, full, part
}

// partialMatchesFull decodes one received set — every source but missing,
// m + partialExtraRows repair symbols — on both decoders and compares.
func partialMatchesFull(full, part *Decoder, enc *Encoder, source [][]byte, missing []int) error {
	k := len(source)
	gone := make([]bool, k)
	for _, r := range missing {
		gone[r] = true
	}
	var got [2][][]byte
	for i, dec := range []*Decoder{full, part} {
		dec.Reset()
		for esi := 0; esi < k; esi++ {
			if !gone[esi] {
				dec.AddSymbol(uint32(esi), enc.Symbol(uint32(esi)))
			}
		}
		for esi := k; esi < k+len(missing)+partialExtraRows; esi++ {
			dec.AddSymbol(uint32(esi), enc.Symbol(uint32(esi)))
		}
		var err error
		if got[i], err = dec.Decode(); err != nil {
			// The partial path caps its repair subset; a rank-deficient
			// subset is legal (Decode would fall back) but with
			// partialExtraRows spare equations it should not happen on
			// these fixed seeds.
			return fmt.Errorf("%s path: %w", [2]string{"full", "partial"}[i], err)
		}
	}
	for i := 0; i < k; i++ {
		if !bytes.Equal(got[0][i], source[i]) {
			return fmt.Errorf("full decode corrupt at %d", i)
		}
		if !bytes.Equal(got[1][i], got[0][i]) {
			return fmt.Errorf("partial != full at symbol %d:\n  partial %x\n  full    %x", i, got[1][i], got[0][i])
		}
	}
	return nil
}

// TestLivePassKeepsEveryOutput: the cached precode schedule is already
// pruned, so the partial path's liveness pass seeded with every column
// must keep every op — exactly the ops prune kept — and seeded with the
// columns of a few repair rows it must drop some.
func TestLivePassKeepsEveryOutput(t *testing.T) {
	for _, k := range []int{10, 101, 256, 1000} {
		p, err := NewParams(k)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := precodeSchedule(p)
		if err != nil {
			t.Fatal(err)
		}
		live := make([]bool, sched.nSlots)
		keep := make([]bool, len(sched.ops))
		for _, s := range sched.outSlot {
			live[s] = true
		}
		sched.liveOps(live, keep)
		for i, kept := range keep {
			if !kept {
				t.Fatalf("K=%d: op %d of %d dropped with every column live", k, i, len(keep))
			}
		}
		for _, rows := range []int{3, 21} {
			clear(live)
			for esi := k; esi < k+rows; esi++ {
				for _, col := range p.AppendLTIndices(nil, uint32(esi)) {
					live[sched.outSlot[col]] = true
				}
			}
			sched.liveOps(live, keep)
			n := 0
			for _, kept := range keep {
				if kept {
					n++
				}
			}
			t.Logf("K=%d: %d repair rows read %d of %d ops", k, rows, n, len(keep))
			if k >= 256 && n == len(keep) {
				t.Errorf("K=%d: %d repair rows replay the whole schedule", k, rows)
			}
		}
	}
}

// TestConcurrentDecodersLeaveSchedulesUntouched runs block-parallel
// object decodes — partial and full paths, all blocks of one K — and
// checks that the precode schedule every worker shares is the one that
// was cached. Runs under -race in CI.
func TestConcurrentDecodersLeaveSchedulesUntouched(t *testing.T) {
	const symSize, maxK = 256, 64
	p, err := NewParams(maxK)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := precodeSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	ops, outSlot := slices.Clone(sched.ops), slices.Clone(sched.outSlot)

	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 16*maxK*symSize)
	rng.Read(data)
	enc, err := NewObjectEncoder(data, symSize, maxK)
	if err != nil {
		t.Fatal(err)
	}
	layout := enc.Layout()
	for _, loss := range []float64{0.05, 0.3} {
		dec, err := NewObjectDecoder(layout)
		if err != nil {
			t.Fatal(err)
		}
		dec.SetWorkers(4)
		for sbn, k := range layout.K {
			for esi, got := uint32(0), 0; got < k+4; esi++ {
				if esi < uint32(k) && rng.Float64() < loss {
					continue
				}
				dec.AddSymbol(sbn, esi, enc.Symbol(sbn, esi))
				got++
			}
		}
		if !dec.TryDecode() {
			t.Fatalf("loss %.2f: object did not decode", loss)
		}
		if obj, err := dec.Object(); err != nil || !bytes.Equal(obj, data) {
			t.Fatalf("loss %.2f: object corrupt (%v)", loss, err)
		}
	}
	if !slices.Equal(sched.ops, ops) || !slices.Equal(sched.outSlot, outSlot) {
		t.Fatal("concurrent decoders changed the cached precode schedule")
	}
}

// TestPartialReusedDecoderDifferential drives one reused decoder
// through many Reset cycles with varying loss patterns, comparing
// against fresh full-solver decodes each time — the steady-state arena
// reuse must never leak bytes between blocks. Runs on every gf256
// kernel tier (eachGFTier).
func TestPartialReusedDecoderDifferential(t *testing.T) {
	eachGFTier(t, func(t *testing.T) {
		const k, symSize = 64, 48
		dec, err := NewDecoder(k, symSize)
		if err != nil {
			t.Fatal(err)
		}
		dec.forcePartial = true
		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 20; round++ {
			source := make([][]byte, k)
			for i := range source {
				source[i] = make([]byte, symSize)
				rng.Read(source[i])
			}
			enc, err := NewEncoder(source)
			if err != nil {
				t.Fatal(err)
			}
			m := 1 + rng.Intn(k/8)
			missing := rng.Perm(k)[:m]
			gone := make(map[int]bool, m)
			for _, r := range missing {
				gone[r] = true
			}
			dec.Reset()
			for i := 0; i < k; i++ {
				if !gone[i] {
					dec.AddSymbol(uint32(i), enc.Symbol(uint32(i)))
				}
			}
			for r := 0; r < m+partialExtraRows; r++ {
				dec.AddSymbol(uint32(k+r), enc.Symbol(uint32(k+r)))
			}
			part, err := dec.Decode()
			if err != nil {
				t.Fatalf("round %d m=%d: %v", round, m, err)
			}
			full, err := decodeWith(t, k, symSize, enc, missing, m+partialExtraRows, false)
			if err != nil {
				t.Fatalf("round %d m=%d: full solver: %v", round, m, err)
			}
			for i := 0; i < k; i++ {
				if !bytes.Equal(part[i], full[i]) || !bytes.Equal(full[i], source[i]) {
					t.Fatalf("round %d m=%d: mismatch at symbol %d", round, m, i)
				}
			}
		}
	})
}

// TestObjectParallelIdenticalToSerial checks that the block-parallel
// object encoder and decoder produce byte-identical results to their
// serial schedules (worker count must change wall-clock only). Runs
// under -race in CI.
func TestObjectParallelIdenticalToSerial(t *testing.T) {
	const symSize, maxK = 128, 32
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 100_000) // ~25 blocks
	rng.Read(data)

	serial, err := NewObjectEncoderWorkers(data, symSize, maxK, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewObjectEncoderWorkers(data, symSize, maxK, 8)
	if err != nil {
		t.Fatal(err)
	}
	layout := serial.Layout()
	if layout.Z() != parallel.Layout().Z() {
		t.Fatalf("layouts differ: %d vs %d blocks", layout.Z(), parallel.Layout().Z())
	}
	for sbn, k := range layout.K {
		for esi := uint32(0); esi < uint32(k)+4; esi++ {
			if !bytes.Equal(serial.Symbol(sbn, esi), parallel.Symbol(sbn, esi)) {
				t.Fatalf("block %d symbol %d differs between worker counts", sbn, esi)
			}
		}
	}

	// Decode with 30% source loss, serial vs parallel workers.
	decode := func(workers int) []byte {
		dec, err := NewObjectDecoder(layout)
		if err != nil {
			t.Fatal(err)
		}
		dec.SetWorkers(workers)
		lossRNG := rand.New(rand.NewSource(11))
		for sbn, k := range layout.K {
			got := 0
			for esi := uint32(0); got < k+2; esi++ {
				if esi < uint32(k) && lossRNG.Float64() < 0.3 {
					continue
				}
				dec.AddSymbol(sbn, esi, serial.Symbol(sbn, esi))
				got++
			}
		}
		if !dec.TryDecode() {
			t.Fatal("object did not decode")
		}
		obj, err := dec.Object()
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	one := decode(1)
	many := decode(8)
	if !bytes.Equal(one, data) {
		t.Fatal("serial object decode corrupt")
	}
	if !bytes.Equal(one, many) {
		t.Fatal("parallel object decode differs from serial")
	}
}
