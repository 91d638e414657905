package raptorq

import (
	"bytes"
	"math/rand"
	"testing"
)

// Tests for the in-place intake: a source symbol is received where it
// belongs in the result, every decode layer completes the block there,
// and what a caller has been handed never changes under it.

// garbage is a payload no encoder produced.
func garbage(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }

// feed gives dec the source symbols of enc that are not in missing, then
// its first repairs repair symbols.
func feed(t *testing.T, dec *Decoder, enc *Encoder, missing map[int]bool, repairs int) {
	t.Helper()
	k := dec.K()
	for i := 0; i < k+repairs; i++ {
		if missing[i] {
			continue
		}
		if fresh, err := dec.AddSymbol(uint32(i), enc.Symbol(uint32(i))); err != nil || !fresh {
			t.Fatalf("esi %d: fresh=%v err=%v", i, fresh, err)
		}
	}
}

func sameSymbols(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d symbols, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: source symbol %d differs", what, i)
		}
	}
}

// A second copy of a symbol already held is dropped before a byte of it
// is written, whatever it carries: a source symbol's slot and a repair
// symbol's payload both still hold the first.
func TestDuplicateCannotAlterHeldSymbol(t *testing.T) {
	const k, symSize, repairs = 32, 24, 6
	src := randSymbols(rand.New(rand.NewSource(61)), k, symSize)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	missing := map[int]bool{3: true, 17: true, 30: true}
	feed(t, dec, enc, missing, repairs)
	for esi := 0; esi < k+repairs; esi++ {
		if missing[esi] {
			continue
		}
		if fresh, err := dec.AddSymbol(uint32(esi), garbage(symSize)); err != nil || fresh {
			t.Fatalf("second copy of esi %d: fresh=%v err=%v", esi, fresh, err)
		}
		if esi < k && !bytes.Equal(dec.Source(uint32(esi)), src[esi]) {
			t.Fatalf("source slot %d was overwritten by a duplicate", esi)
		}
	}
	// The decode needs three of the repair symbols: had a lying copy
	// reached the store, the block would come out wrong.
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	sameSymbols(t, "decode after lying duplicates", got, src)
}

// What Decode and Object have returned does not change when symbols keep
// arriving for a block that has decoded: neither a source symbol that was
// missing, and has been regenerated in its slot, nor a repair symbol.
func TestLateSymbolsDoNotChangeReturnedResult(t *testing.T) {
	const k, symSize = 40, 16
	src := randSymbols(rand.New(rand.NewSource(62)), k, symSize)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, dec, enc, map[int]bool{0: true, 9: true}, 4)
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	sameSymbols(t, "decode", got, src)
	for _, esi := range []uint32{0, 9, k + 4, k + 5} {
		if fresh, err := dec.AddSymbol(esi, garbage(symSize)); err != nil || !fresh {
			t.Fatalf("late esi %d: fresh=%v err=%v", esi, fresh, err)
		}
	}
	sameSymbols(t, "held result after late symbols", got, src)
	again, _ := dec.Decode()
	sameSymbols(t, "second Decode after late symbols", again, src)

	data := make([]byte, 5*k*symSize/2)
	rand.New(rand.NewSource(63)).Read(data)
	oenc, err := NewObjectEncoder(data, symSize, k)
	if err != nil {
		t.Fatal(err)
	}
	od, err := NewObjectDecoder(oenc.Layout())
	if err != nil {
		t.Fatal(err)
	}
	for sbn, bk := range oenc.Layout().K {
		for esi := uint32(1); esi < uint32(bk)+3; esi++ { // source symbol 0 never arrives
			od.AddSymbol(sbn, esi, oenc.Symbol(sbn, esi))
		}
	}
	if !od.TryDecode() {
		t.Fatal("object did not decode")
	}
	obj, err := od.Object()
	if err != nil {
		t.Fatal(err)
	}
	for sbn, bk := range oenc.Layout().K {
		for _, esi := range []uint32{0, uint32(bk) + 3} {
			if fresh, err := od.AddSymbol(sbn, esi, garbage(symSize)); err != nil || !fresh {
				t.Fatalf("late (%d, %d): fresh=%v err=%v", sbn, esi, fresh, err)
			}
		}
	}
	od.TryDecode()
	if !bytes.Equal(obj, data) {
		t.Fatal("the object a caller holds changed when late symbols arrived")
	}
}

// One decoder reused across blocks that each take a different layer —
// all sources, a few missing, many missing, none but repair — and each
// with its own bytes: whatever an earlier block left in a slot is gone
// before the slot is regenerated.
func TestResetAcrossLayersIsByteExact(t *testing.T) {
	const k, symSize = 64, 40
	dec, err := NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	masks := []struct {
		name    string
		missing int
	}{
		{"systematic", 0}, {"partial", 3}, {"full", 30}, {"partial", k / 8}, {"repair only", k},
		{"systematic", 0}, {"full", 20}, {"partial", 1},
	}
	plans := func() int {
		if dec.sc == nil {
			return 0
		}
		return dec.sc.plan.plans
	}
	for round, mask := range masks {
		src := randSymbols(rng, k, symSize)
		enc, err := NewEncoder(src)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[int]bool{}
		for _, i := range rng.Perm(k)[:mask.missing] {
			missing[i] = true
		}
		dec.Reset()
		feed(t, dec, enc, missing, mask.missing+4)
		before := plans()
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("round %d (%s): %v", round, mask.name, err)
		}
		sameSymbols(t, mask.name, got, src)
		if full := mask.missing > partialMaxMissing(k); full != (plans() > before) {
			t.Fatalf("round %d (%s): planned a full decode: %v", round, mask.name, !full)
		}
	}
}

// A block that arrives as repair symbols only: intake never writes a
// slot of it, the decode fills them all. In an object such a block sits
// between two that arrive whole.
func TestBlockFromRepairSymbolsOnly(t *testing.T) {
	const symSize, maxK = 32, 24
	data := make([]byte, 3*maxK*symSize-5)
	rand.New(rand.NewSource(65)).Read(data)
	enc, err := NewObjectEncoder(data, symSize, maxK)
	if err != nil {
		t.Fatal(err)
	}
	od, err := NewObjectDecoder(enc.Layout())
	if err != nil {
		t.Fatal(err)
	}
	// The repair-only block's symbols come first, so that they are what
	// makes the object's buffer.
	for _, sbn := range []int{1, 0, 2} {
		first := uint32(0)
		if sbn == 1 {
			first = uint32(enc.Layout().K[1])
		}
		for esi := first; esi < first+uint32(enc.Layout().K[sbn])+3; esi++ {
			od.AddSymbol(sbn, esi, enc.Symbol(sbn, esi))
		}
	}
	if od.blocks[1].SourceKnown() != 0 {
		t.Fatal("block 1 was given a source symbol")
	}
	if !od.TryDecode() {
		t.Fatal("object did not decode")
	}
	obj, err := od.Object()
	if err != nil || !bytes.Equal(obj, data) {
		t.Fatalf("object differs (err %v)", err)
	}
}

// An object whose size is no multiple of the symbol size, in blocks of
// unequal K: the result is exactly the object — its padding is neither
// visible nor reachable by appending — and a decoder that has seen no
// symbol holds no buffer.
func TestObjectResultIsExactlyTheObject(t *testing.T) {
	const symSize, maxK = 64, 20
	data := make([]byte, 103*symSize+37) // 104 symbols in 6 blocks of 18 and 17
	rand.New(rand.NewSource(66)).Read(data)
	enc, err := NewObjectEncoder(data, symSize, maxK)
	if err != nil {
		t.Fatal(err)
	}
	layout := enc.Layout()
	if layout.Z() < 2 || layout.K[0] == layout.K[layout.Z()-1] {
		t.Fatalf("want blocks of unequal K, have %v", layout.K)
	}
	od, err := NewObjectDecoder(layout)
	if err != nil {
		t.Fatal(err)
	}
	if od.buf != nil {
		t.Fatal("a decoder that has seen no symbol holds a buffer")
	}
	if _, err := od.AddSymbol(0, 0, make([]byte, symSize+1)); err == nil || od.buf != nil {
		t.Fatalf("a symbol of the wrong length: err=%v, buffer made: %v", err, od.buf != nil)
	}
	rng := rand.New(rand.NewSource(67))
	for sbn, k := range layout.K {
		for esi, n := uint32(0), 0; n < k+3; esi++ {
			if int(esi) < k && rng.Float64() < 0.2 {
				continue
			}
			od.AddSymbol(sbn, esi, enc.Symbol(sbn, esi))
			n++
		}
	}
	if !od.TryDecode() {
		t.Fatal("object did not decode")
	}
	obj, err := od.Object()
	if err != nil {
		t.Fatal(err)
	}
	if len(obj) != len(data) || cap(obj) != len(data) {
		t.Fatalf("len %d cap %d, want both %d", len(obj), cap(obj), len(data))
	}
	if !bytes.Equal(obj, data) {
		t.Fatal("object differs")
	}
	if &obj[0] != &od.buf[0] {
		t.Fatal("Object copied the decoder's buffer")
	}
}

// Four workers over blocks of every kind at once — whole, a few sources
// missing, many missing, repair only — in two rounds with arrivals in
// between: each writes its own window of the one buffer and nothing
// else, so the object is the serial decode's (and -race stays quiet).
func TestObjectParallelIdenticalMixedBlocks(t *testing.T) {
	const symSize, maxK = 48, 32
	data := make([]byte, 24*maxK*symSize-11)
	rand.New(rand.NewSource(68)).Read(data)
	enc, err := NewObjectEncoder(data, symSize, maxK)
	if err != nil {
		t.Fatal(err)
	}
	layout := enc.Layout()
	decode := func(workers int) []byte {
		od, err := NewObjectDecoder(layout)
		if err != nil {
			t.Fatal(err)
		}
		od.SetWorkers(workers)
		rng := rand.New(rand.NewSource(69))
		losses := []float64{0, 0.05, 0.4, 1}
		for round := 0; round < 2; round++ {
			for sbn, k := range layout.K {
				if sbn%2 != round {
					continue
				}
				loss := losses[sbn/2%len(losses)]
				for esi, n := uint32(0), 0; n < k+3; esi++ {
					if int(esi) < k && rng.Float64() < loss {
						continue
					}
					od.AddSymbol(sbn, esi, enc.Symbol(sbn, esi))
					n++
				}
			}
			if done := od.TryDecode(); done != (round == 1) {
				t.Fatalf("round %d: complete = %v", round, done)
			}
		}
		obj, err := od.Object()
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	one, four := decode(1), decode(4)
	if !bytes.Equal(one, data) {
		t.Fatal("serial decode corrupt")
	}
	if !bytes.Equal(four, one) {
		t.Fatal("four workers decoded a different object")
	}
}

// A no-loss object costs its buffer and nothing else: once the first
// symbol has made that, AddSymbol for every other source symbol,
// TryDecode and Object allocate nothing — no intake copy, no decode
// scratch, no result.
func TestNoLossObjectAllocatesOnlyItsBuffer(t *testing.T) {
	const symSize, maxK, runs = 64, 32, 4
	data := make([]byte, 5*maxK*symSize+9)
	rand.New(rand.NewSource(70)).Read(data)
	enc, err := NewObjectEncoder(data, symSize, maxK)
	if err != nil {
		t.Fatal(err)
	}
	layout := enc.Layout()
	syms := make([][][]byte, layout.Z())
	for sbn, k := range layout.K {
		for esi := 0; esi < k; esi++ {
			syms[sbn] = append(syms[sbn], enc.Symbol(sbn, uint32(esi)))
		}
	}
	decs := make([]*ObjectDecoder, runs+1) // AllocsPerRun makes one warm-up call
	for i := range decs {
		if decs[i], err = NewObjectDecoder(layout); err != nil {
			t.Fatal(err)
		}
		decs[i].SetWorkers(1)
		decs[i].AddSymbol(0, 0, syms[0][0])
	}
	next := 0
	var obj []byte
	allocs := testing.AllocsPerRun(runs, func() {
		od := decs[next]
		next++
		for sbn := range syms {
			for esi, sym := range syms[sbn] {
				od.AddSymbol(sbn, uint32(esi), sym)
			}
		}
		od.TryDecode()
		obj, _ = od.Object()
	})
	if allocs != 0 {
		t.Fatalf("a no-loss object made %v allocations after its buffer, want 0", allocs)
	}
	if !bytes.Equal(obj, data) {
		t.Fatal("object differs")
	}
}
