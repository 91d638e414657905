package raptorq

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// A block of NewObjectEncoder is precoded by its first repair symbol and
// by nothing before it: every source symbol of every block comes out,
// through Symbol and AppendSymbol, with no block precoded; then each
// repair symbol precodes its own block and no other, and all of them
// equal what an encoder precoded up front emits.
func TestSourceSymbolsNeverPrecode(t *testing.T) {
	const symSize, maxK = 48, 40
	data := make([]byte, 3*maxK*symSize-17) // three blocks, the tail symbol padded
	rand.New(rand.NewSource(21)).Read(data)
	lazy, err := NewObjectEncoder(data, symSize, maxK)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := NewObjectEncoderWorkers(data, symSize, maxK, 1)
	if err != nil {
		t.Fatal(err)
	}
	z := lazy.Layout().Z()
	if n := eager.Precoded(); n != z {
		t.Fatalf("NewObjectEncoderWorkers precoded %d of %d blocks", n, z)
	}
	buf := make([]byte, 0, symSize)
	for sbn, k := range lazy.Layout().K {
		for esi := uint32(0); esi < uint32(k); esi++ {
			want := eager.Symbol(sbn, esi)
			if got := lazy.Symbol(sbn, esi); !bytes.Equal(got, want) {
				t.Fatalf("source symbol (%d, %d) differs", sbn, esi)
			}
			if buf = lazy.Block(sbn).AppendSymbol(buf[:0], esi); !bytes.Equal(buf, want) {
				t.Fatalf("appended source symbol (%d, %d) differs", sbn, esi)
			}
		}
	}
	if n := lazy.Precoded(); n != 0 {
		t.Fatalf("%d blocks precoded by source symbols alone", n)
	}
	for i, sbn := range []int{1, 1, 0, 2} {
		esi := uint32(lazy.Layout().K[sbn] + i)
		if got, want := lazy.Symbol(sbn, esi), eager.Symbol(sbn, esi); !bytes.Equal(got, want) {
			t.Fatalf("repair symbol (%d, %d) differs from the eager encoder's", sbn, esi)
		}
		if n, want := lazy.Precoded(), []int{1, 1, 2, 3}[i]; n != want {
			t.Fatalf("after a repair symbol of block %d: %d blocks precoded, want %d", sbn, n, want)
		}
	}
}

// The documented contract — an Encoder is safe for concurrent use after
// construction — holds for a block nobody has precoded yet: eight
// goroutines released at once each ask it for a first repair symbol, all
// get the bytes an eagerly built encoder emits, and the block is precoded
// once. Run with -race.
func TestLazyPrecodeConcurrentFirstRepair(t *testing.T) {
	const k, symSize, goroutines, rounds = 256, 64, 8, 16
	src := randSymbols(rand.New(rand.NewSource(22)), k, symSize)
	eager, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Join(src, nil)
	for round := 0; round < rounds; round++ {
		lazy, err := NewObjectEncoder(data, symSize, k)
		if err != nil {
			t.Fatal(err)
		}
		enc := lazy.Block(0)
		start := make(chan struct{})
		got := make([][]byte, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = enc.AppendSymbol(make([]byte, 0, symSize), uint32(k+g))
			}()
		}
		close(start)
		wg.Wait()
		for g, sym := range got {
			if !bytes.Equal(sym, eager.Symbol(uint32(k+g))) {
				t.Fatalf("round %d: goroutine %d's repair symbol differs from the eager encoder's", round, g)
			}
		}
		if n := lazy.Precoded(); n != 1 {
			t.Fatalf("round %d: the block was precoded %d times", round, n)
		}
	}
}

// An ObjectDecoder that completes passes its solve scratch and repair
// store on to the next one made: the second of two lossy objects of one
// layout, decoded one after the other, allocates its object and little
// else — no replay arena, no planner, no store.
func TestObjectDecoderPassesSolveMemoryOn(t *testing.T) {
	const k, symSize = 64, 1024
	data := make([]byte, 2*k*symSize)
	rand.New(rand.NewSource(23)).Read(data)
	enc, err := NewObjectEncoderWorkers(data, symSize, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout := enc.Layout()
	syms := make([][][]byte, layout.Z())
	for sbn := range syms {
		for esi := uint32(0); esi < uint32(3*k); esi++ {
			syms[sbn] = append(syms[sbn], enc.Symbol(sbn, esi))
		}
	}
	decode := func(seed int64) {
		dec, err := NewObjectDecoder(layout)
		if err != nil {
			t.Fatal(err)
		}
		dec.SetWorkers(1)
		rng := rand.New(rand.NewSource(seed))
		for sbn := range syms {
			for esi := 0; esi < k; esi++ {
				if rng.Float64() >= 0.3 {
					dec.AddSymbol(sbn, uint32(esi), syms[sbn][esi])
				}
			}
			for esi := k; !dec.BlockComplete(sbn); esi++ {
				dec.AddSymbol(sbn, uint32(esi), syms[sbn][esi])
				dec.TryDecode()
			}
		}
		got, err := dec.Object()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("seed %d: object did not decode to its bytes (%v)", seed, err)
		}
	}
	// Start from an empty free list: other tests' decoders may have filled it.
	for len(decodeMems) > 0 {
		<-decodeMems
	}
	decode(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode(2)
	runtime.ReadMemStats(&after)
	m := <-decodeMems
	decodeMems <- m
	if len(m.scratch) != 1 {
		t.Fatalf("the free list holds %d solve scratches, want the one of a serial decoder", len(m.scratch))
	}
	arena := cap(m.scratch[0].slots.buf)
	if extra := after.TotalAlloc - before.TotalAlloc - uint64(len(data)); arena == 0 || extra >= uint64(arena) {
		t.Fatalf("the second object allocated %d bytes beyond its own %d, want less than one replay arena (%d)", extra, len(data), arena)
	}
}
