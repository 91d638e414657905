package raptorq

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"polyraptor/internal/gf256"
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
func decodeWith(t *testing.T, k, symSize int, enc *Encoder, missing []int, repairs int, path decodePath) ([][]byte, error) {
	t.Helper()
	dec, err := NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	dec.force = path
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

// spareRepairs is how many repair symbols beyond m the differential
// tests deliver, so that a rank-deficient draw stays rare.
const spareRepairs = 8

// TestPartialMatchesFullDifferential asserts that the direct partial
// path decodes byte-identically to the full solver, which in turn must
// reproduce the source exactly, in two sweeps:
//   - K x every m the direct path takes on x symbol sizes — 1,024 and 64
//     through the 32-byte vector kernels, 1,436 (not a multiple of 32)
//     through the checked ones — with a random mask and, in turn, one
//     of the fixed patterns per m;
//   - every fixed pattern plus three random masks at m in {1, 2, K/16,
//     K/8, K/4}, so the partialMaxMissing edge sees every pattern and
//     K/4 runs the direct path past it (the range BenchmarkPartialVsFull
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
// and two decoders pinned to the full and the direct path.
func partialPair(t *testing.T, k, symSize int) (rng *rand.Rand, enc *Encoder, source [][]byte, full, part *Decoder) {
	t.Helper()
	rng = rand.New(rand.NewSource(int64(1000*k + symSize)))
	source = randSymbols(rng, k, symSize)
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
	full.force, part.force = pathFull, pathDirect
	return rng, enc, source, full, part
}

// partialMatchesFull decodes one received set — every source but missing,
// m + spareRepairs repair symbols — on both decoders and compares.
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
		for esi := k; esi < k+len(missing)+spareRepairs; esi++ {
			dec.AddSymbol(uint32(esi), enc.Symbol(uint32(esi)))
		}
		var err error
		if got[i], err = dec.Decode(); err != nil {
			// The direct path fails only where the full one does, and
			// with spareRepairs spare equations neither should on these
			// fixed seeds.
			return fmt.Errorf("%s path: %w", [2]string{"full", "direct"}[i], err)
		}
	}
	for i := 0; i < k; i++ {
		if !bytes.Equal(got[0][i], source[i]) {
			return fmt.Errorf("full decode corrupt at %d", i)
		}
		if !bytes.Equal(got[1][i], got[0][i]) {
			return fmt.Errorf("direct != full at symbol %d:\n  direct %x\n  full   %x", i, got[1][i], got[0][i])
		}
	}
	return nil
}

// replayOpByOp is the schedule's replay one row operation at a time,
// each opXor group as one AddRow per source slot: the reference the
// fused replay must match byte for byte.
func replayOpByOp(sc *schedule, syms [][]byte) {
	for _, op := range sc.ops {
		switch op.kind {
		case opXor:
			for _, s := range sc.terms[op.src:][:op.n] {
				gf256.AddRow(syms[op.dst], syms[s])
			}
		case opAdd:
			gf256.AddRow(syms[op.dst], syms[op.src])
		case opMulAdd:
			gf256.MulAddRow(syms[op.dst], syms[op.src], op.beta)
		default:
			gf256.ScaleRow(syms[op.dst], op.beta)
		}
	}
}

// replaysAgree replays sc over random slots of t bytes twice, fused over
// one arena and op by op over separate rows, and reports the first slot
// that differs, or -1.
func replaysAgree(rng *rand.Rand, sc *schedule, t int) int {
	arena := make([]byte, sc.nSlots*t)
	rng.Read(arena)
	rows := make([][]byte, sc.nSlots)
	for i := range rows {
		rows[i] = bytes.Clone(arena[i*t : (i+1)*t])
	}
	sc.replay(arena, t)
	replayOpByOp(sc, rows)
	for i, row := range rows {
		if !bytes.Equal(arena[i*t:(i+1)*t], row) {
			return i
		}
	}
	return -1
}

// TestGroupedReplayMatchesOpByOp: the fused replay of a grouped
// schedule leaves every slot, the intermediates among them, as the
// op-by-op replay does — for the precode at five K and for 100 decode
// plans each at 5, 30 and 60 % loss, on every gf256 tier. Slots of 300
// bytes run the kernel's 256-byte chunk and its masked tail. The precode
// entry's source-row columns are the tuple hash's. Runs under -race in
// CI.
func TestGroupedReplayMatchesOpByOp(t *testing.T) {
	eachGFTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		for _, k := range []int{10, 101, 256, 1000, 1024} {
			p, err := NewParams(k)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := precodeFor(p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if want := p.AppendLTIndices(nil, uint32(i)); !slices.Equal(pc.lt(i), want) {
					t.Fatalf("K=%d: source %d's columns %v, want %v", k, i, pc.lt(i), want)
				}
			}
			if slot := replaysAgree(rng, &pc.sched, 300); slot >= 0 {
				t.Fatalf("K=%d precode: slot %d differs from the op-by-op replay", k, slot)
			}
		}
		const k = 256
		p, err := NewParams(k)
		if err != nil {
			t.Fatal(err)
		}
		var pl planner
		for _, loss := range []float64{0.05, 0.3, 0.6} {
			for plans := 0; plans < 100; {
				pl.reset(p, k+2)
				n := 0
				for i := 0; i < k; i++ {
					if rng.Float64() >= loss {
						pl.addESI(uint32(i))
						n++
					}
				}
				for esi := k + rng.Intn(1000); n < k+2; esi++ {
					pl.addESI(uint32(esi))
					n++
				}
				sc, err := pl.plan()
				if err != nil {
					continue // singular: rare at K+2, and not a plan
				}
				if slot := replaysAgree(rng, &sc, 300); slot >= 0 {
					t.Fatalf("loss %.2f plan %d: slot %d differs from the op-by-op replay", loss, plans, slot)
				}
				plans++
			}
		}
	})
}

// TestConcurrentDecodersLeaveSchedulesUntouched runs block-parallel
// object decodes — partial and full paths, all blocks of one K — and
// checks that the precode schedule and the source matrix every worker
// shares are the ones that were cached. Runs under -race in CI.
func TestConcurrentDecodersLeaveSchedulesUntouched(t *testing.T) {
	const symSize, maxK = 256, 64
	p, err := NewParams(maxK)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := precodeFor(p)
	if err != nil {
		t.Fatal(err)
	}
	sched := &pc.sched
	ops, terms, outSlot := slices.Clone(sched.ops), slices.Clone(sched.terms), slices.Clone(sched.outSlot)
	matrix, err := sourceMatrixFor(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := slices.Clone(matrix.rows)

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
	if !slices.Equal(sched.ops, ops) || !slices.Equal(sched.terms, terms) || !slices.Equal(sched.outSlot, outSlot) {
		t.Fatal("concurrent decoders changed the cached precode schedule")
	}
	if !bytes.Equal(matrix.rows, rows) {
		t.Fatal("concurrent decoders changed the cached source matrix")
	}
}

// TestPartialReusedDecoderDifferential drives one reused decoder pinned
// to the direct path through Reset cycles with varying loss patterns — m
// up to K/4, past its crossover — comparing against fresh full-solver
// decodes each time: the steady-state scratch reuse must never leak
// bytes between blocks. Runs on every gf256 kernel tier (eachGFTier).
func TestPartialReusedDecoderDifferential(t *testing.T) {
	eachGFTier(t, func(t *testing.T) {
		for _, k := range []int{10, 101, 256, 1000} {
			for _, symSize := range []int{64, 1024, 1436} {
				rng := rand.New(rand.NewSource(int64(99 + k + symSize)))
				dec, err := NewDecoder(k, symSize)
				if err != nil {
					t.Fatal(err)
				}
				dec.force = pathDirect
				for round := 0; round < 6; round++ {
					source := randSymbols(rng, k, symSize)
					enc, err := NewEncoder(source)
					if err != nil {
						t.Fatal(err)
					}
					m := 1 + rng.Intn(max(1, k/4))
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
					for r := 0; r < m+spareRepairs; r++ {
						dec.AddSymbol(uint32(k+r), enc.Symbol(uint32(k+r)))
					}
					part, err := dec.Decode()
					if err != nil {
						t.Fatalf("K=%d T=%d round %d m=%d: %v", k, symSize, round, m, err)
					}
					full, err := decodeWith(t, k, symSize, enc, missing, m+spareRepairs, pathFull)
					if err != nil {
						t.Fatalf("K=%d T=%d round %d m=%d: full solver: %v", k, symSize, round, m, err)
					}
					for i := 0; i < k; i++ {
						if !bytes.Equal(part[i], full[i]) || !bytes.Equal(full[i], source[i]) {
							t.Fatalf("K=%d T=%d round %d m=%d: mismatch at symbol %d", k, symSize, round, m, i)
						}
					}
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
