package raptorq

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

func TestBlockLayout(t *testing.T) {
	bl, err := NewBlockLayout(10_000, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	if bl.TotalSymbols() != 100 {
		t.Fatalf("TotalSymbols = %d, want 100", bl.TotalSymbols())
	}
	if bl.Z() != 3 { // ceil(100/40) = 3 blocks
		t.Fatalf("Z = %d, want 3", bl.Z())
	}
	for _, k := range bl.K {
		if k > 40 || k < 1 {
			t.Fatalf("block K=%d out of bounds", k)
		}
	}
}

func TestBlockLayoutErrors(t *testing.T) {
	if _, err := NewBlockLayout(0, 10, 10); err == nil {
		t.Fatal("zero-size object accepted")
	}
	if _, err := NewBlockLayout(10, 0, 10); err == nil {
		t.Fatal("zero symbol size accepted")
	}
	if _, err := NewBlockLayout(10, 10, 0); err == nil {
		t.Fatal("zero maxK accepted")
	}
	if _, err := NewBlockLayout(10, 10, MaxK+1); err == nil {
		t.Fatal("huge maxK accepted")
	}
}

func TestObjectRoundTripExactFit(t *testing.T) {
	data := make([]byte, 64*100)
	rand.New(rand.NewSource(1)).Read(data)
	objectRoundTrip(t, data, 100, 20, 0)
}

func TestObjectRoundTripWithPadding(t *testing.T) {
	data := make([]byte, 64*100+37) // tail symbol is padded
	rand.New(rand.NewSource(2)).Read(data)
	objectRoundTrip(t, data, 100, 20, 0)
}

func TestObjectRoundTripTiny(t *testing.T) {
	objectRoundTrip(t, []byte{0x42}, 16, 10, 0)
}

func TestObjectRoundTripWithLoss(t *testing.T) {
	data := make([]byte, 3000)
	rand.New(rand.NewSource(3)).Read(data)
	objectRoundTrip(t, data, 100, 10, 0.25)
}

// objectRoundTrip encodes data, delivers source symbols with the given
// loss rate plus repair symbols as needed, and verifies reassembly.
func objectRoundTrip(t *testing.T, data []byte, symSize, maxK int, loss float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	enc, err := NewObjectEncoder(data, symSize, maxK)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewObjectDecoder(enc.Layout())
	if err != nil {
		t.Fatal(err)
	}
	for sbn, k := range enc.Layout().K {
		for i := 0; i < k; i++ {
			if rng.Float64() < loss {
				continue
			}
			if _, err := dec.AddSymbol(sbn, uint32(i), enc.Symbol(sbn, uint32(i))); err != nil {
				t.Fatal(err)
			}
		}
		esi := uint32(k)
		for !dec.BlockComplete(sbn) {
			dec.TryDecode()
			if dec.BlockComplete(sbn) {
				break
			}
			dec.AddSymbol(sbn, esi, enc.Symbol(sbn, esi))
			esi++
			if esi > uint32(k+100) {
				t.Fatalf("block %d did not decode", sbn)
			}
		}
	}
	if !dec.Complete() {
		t.Fatal("object incomplete after all blocks decoded")
	}
	got, err := dec.Object()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("object round trip corrupted data")
	}
}

func TestObjectDecoderRejectsBadSBN(t *testing.T) {
	enc, _ := NewObjectEncoder(make([]byte, 100), 10, 5)
	dec, _ := NewObjectDecoder(enc.Layout())
	if _, err := dec.AddSymbol(99, 0, make([]byte, 10)); err == nil {
		t.Fatal("out-of-range SBN accepted")
	}
	if _, err := dec.AddSymbol(-1, 0, make([]byte, 10)); err == nil {
		t.Fatal("negative SBN accepted")
	}
}

func TestObjectIncompleteErrors(t *testing.T) {
	enc, _ := NewObjectEncoder(make([]byte, 100), 10, 5)
	dec, _ := NewObjectDecoder(enc.Layout())
	if _, err := dec.Object(); err == nil {
		t.Fatal("Object() on incomplete decoder succeeded")
	}
}

// Symbols that arrive for a block already decoded — in a multi-source
// fetch, the faster sender's round-robin repair symbols mostly do — are
// still told apart as new or duplicate, but take no intake memory: they
// used to overflow the block's first chunk and allocate one of twice the
// size for nothing.
func TestSymbolsAfterDecodeTakeNoMemory(t *testing.T) {
	const k, symSize, late = 256, 64, 64
	src := randSymbols(rand.New(rand.NewSource(3)), k, symSize)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	// K+2 symbols, two of them repair: a real (partial) decode.
	dec, err := NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	for esi := uint32(2); esi < k+4; esi++ {
		if fresh, err := dec.AddSymbol(esi, enc.Symbol(esi)); err != nil || !fresh {
			t.Fatalf("esi %d: fresh=%v err=%v", esi, fresh, err)
		}
	}
	want, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(want[i], src[i]) {
			t.Fatalf("source symbol %d wrong before the late arrivals", i)
		}
	}
	lateSyms := make([][]byte, late)
	for i := range lateSyms {
		lateSyms[i] = enc.Symbol(uint32(k + 4 + i))
	}
	// One P over the counting window, as the other exact-zero counts
	// in this package: Mallocs is process-wide.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var st0, st1 runtime.MemStats
	runtime.ReadMemStats(&st0)
	for i, sym := range lateSyms {
		if fresh, err := dec.AddSymbol(uint32(k+4+i), sym); err != nil || !fresh {
			t.Fatalf("late esi %d: fresh=%v err=%v", k+4+i, fresh, err)
		}
	}
	runtime.ReadMemStats(&st1)
	if n := st1.Mallocs - st0.Mallocs; n != 0 {
		t.Fatalf("%d late symbols made %d allocations (%d bytes)", late, n, st1.TotalAlloc-st0.TotalAlloc)
	}
	for i, sym := range lateSyms {
		if fresh, _ := dec.AddSymbol(uint32(k+4+i), sym); fresh {
			t.Fatalf("replayed late esi %d read as new", k+4+i)
		}
	}
	if fresh, _ := dec.AddSymbol(0, src[0]); !fresh {
		t.Fatal("a source symbol never received read as a duplicate")
	}
	if _, err := dec.AddSymbol(1, src[1][:symSize-1]); err == nil {
		t.Fatal("a short symbol was accepted after decode")
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], src[i]) {
			t.Fatalf("source symbol %d changed after the late arrivals", i)
		}
	}
}
