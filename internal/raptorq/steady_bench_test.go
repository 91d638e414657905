package raptorq

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Steady-state benchmarks for the layered codec pipeline. These mirror
// the perfbench codec cells (which drive ALLOC_BUDGET.json); keeping
// them here too makes `go test -bench` useful during codec work. Each
// checks what it produced, so a broken replay fails the benchmark.

func benchSource(k, t int) [][]byte {
	rng := rand.New(rand.NewSource(7))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, t)
		rng.Read(src[i])
	}
	return src
}

// BenchmarkEncodeReset precodes one block per op; the last op's
// intermediates must equal the op-by-op replay of the same schedule.
func BenchmarkEncodeReset(b *testing.B) {
	const k, t = 256, 1024
	src := benchSource(k, t)
	enc, err := NewEncoder(src)
	if err != nil {
		b.Fatal(err)
	}
	want := make([][]byte, enc.sched.nSlots)
	for i := range want {
		want[i] = make([]byte, t)
	}
	for i, s := range src {
		copy(want[enc.p.S+i], s)
	}
	replayOpByOp(enc.sched, want)
	b.SetBytes(int64(k * t))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Reset(src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for c, slot := range enc.sched.outSlot {
		if !bytes.Equal(enc.c[c], want[slot]) {
			b.Fatalf("intermediate %d differs from the op-by-op replay", c)
		}
	}
}

type benchArrival struct {
	esi uint32
	sym []byte
}

func benchArrivals(b *testing.B, k, t int, keep float64) []benchArrival {
	src := benchSource(k, t)
	enc, err := NewEncoder(src)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var arrivals []benchArrival
	for i := 0; i < k; i++ {
		if rng.Float64() < keep {
			arrivals = append(arrivals, benchArrival{uint32(i), enc.Symbol(uint32(i))})
		}
	}
	for esi := uint32(k); len(arrivals) < k+2; esi++ {
		arrivals = append(arrivals, benchArrival{esi, enc.Symbol(esi)})
	}
	return arrivals
}

// benchDecode decodes one fixed arrival set per op, and every op checks
// the symbols it recovered against the source.
func benchDecode(b *testing.B, keep float64) {
	const k, t = 256, 1024
	arrivals := benchArrivals(b, k, t, keep)
	src := benchSource(k, t)
	gone := make([]bool, k)
	for i := range gone {
		gone[i] = true
	}
	for _, a := range arrivals {
		if a.esi < k {
			gone[a.esi] = false
		}
	}
	dec, err := NewDecoder(k, t)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		dec.Reset()
		for _, a := range arrivals {
			if _, err := dec.AddSymbol(a.esi, a.sym); err != nil {
				b.Fatal(err)
			}
		}
		out, err := dec.Decode()
		if err != nil {
			b.Fatal(err)
		}
		for i, g := range gone {
			if g && !bytes.Equal(out[i], src[i]) {
				b.Fatalf("source symbol %d decoded wrong", i)
			}
		}
	}
	run() // warm caches and arenas
	b.SetBytes(int64(k * t))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkDecodeSystematic(b *testing.B) { benchDecode(b, 1.01) }
func BenchmarkDecode5pctLoss(b *testing.B)   { benchDecode(b, 0.95) }
func BenchmarkDecode30pctLoss(b *testing.B)  { benchDecode(b, 0.70) }

// BenchmarkDecodeCold30pct is the case the network actually produces:
// one reused decoder, but a loss mask nobody has seen before on every
// block, so each op pays plan + replay. Symbols come from a
// pregenerated pool; only the choice of survivors is drawn per op, and
// every op checks the symbols it recovered against the source.
func BenchmarkDecodeCold30pct(b *testing.B) {
	const k, t = 256, 1024
	enc, err := NewEncoder(benchSource(k, t))
	if err != nil {
		b.Fatal(err)
	}
	pool := make([][]byte, 2*k)
	for i := range pool {
		pool[i] = enc.Symbol(uint32(i))
	}
	dec, err := NewDecoder(k, t)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	gone := make([]bool, k)
	run := func() {
		dec.Reset()
		n := 0
		for i := 0; i < k; i++ {
			if gone[i] = rng.Float64() >= 0.70; !gone[i] {
				dec.AddSymbol(uint32(i), pool[i])
				n++
			}
		}
		for esi := k; n < k+2; esi++ {
			dec.AddSymbol(uint32(esi), pool[esi])
			n++
		}
		out, err := dec.Decode()
		for esi := 2 * k; err != nil; esi++ {
			dec.AddSymbol(uint32(esi), enc.Symbol(uint32(esi))) // singular at K+2: rare
			out, err = dec.Decode()
		}
		for i, g := range gone {
			if g && !bytes.Equal(out[i], pool[i]) {
				b.Fatalf("source symbol %d decoded wrong", i)
			}
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	b.SetBytes(int64(k * t))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkPartialVsFull times the two matrix paths on the same blocks —
// m missing sources out of K, K+2 symbols held, a fresh choice of the m
// per op — to place the directMaxMissing and partialMaxMissing
// crossovers (docs/perf/pr38-partial-matrix.md), at T=1,024 and at
// T=1,436, whose rows are no multiple of 32 wide and run through the
// checked kernels. The direct path's source matrix is built before the
// timer starts, as it is once per K in a process. Every op checks its
// verdict and the recovered symbols, so a path that breaks fails the
// benchmark.
func BenchmarkPartialVsFull(b *testing.B) {
	for _, k := range []int{256, 1024} {
		for _, t := range []int{1024, 1436} {
			enc, err := NewEncoder(benchSource(k, t))
			if err != nil {
				b.Fatal(err)
			}
			pool := make([][]byte, 2*k)
			for i := range pool {
				pool[i] = enc.Symbol(uint32(i))
			}
			for _, m := range []int{1, 4, 8, 13, 16, 24, 32, 48, 64, 77, 96, 128} {
				if m > k/2 {
					continue
				}
				for _, p := range []struct {
					name string
					path decodePath
				}{{"direct", pathDirect}, {"full", pathFull}} {
					b.Run(fmt.Sprintf("K=%d/T=%d/m=%d/%s", k, t, m, p.name), func(b *testing.B) {
						dec, err := NewDecoder(k, t)
						if err != nil {
							b.Fatal(err)
						}
						dec.force = p.path
						rng := rand.New(rand.NewSource(int64(m)))
						gone := make([]bool, k)
						singular := 0
						run := func() {
							clear(gone)
							for _, i := range rng.Perm(k)[:m] {
								gone[i] = true
							}
							dec.Reset()
							for i := 0; i < k; i++ {
								if !gone[i] {
									dec.AddSymbol(uint32(i), pool[i])
								}
							}
							for esi := k; esi < k+m+2; esi++ {
								dec.AddSymbol(uint32(esi), pool[esi])
							}
							out, err := dec.Decode()
							switch {
							case errors.Is(err, ErrSingular):
								// A singular draw costs the same solve; at
								// K+2 it is rare (~1e-4).
								singular++
							case err != nil:
								b.Fatal(err)
							default:
								for i, g := range gone {
									if g && !bytes.Equal(out[i], pool[i]) {
										b.Fatalf("source symbol %d decoded wrong", i)
									}
								}
							}
						}
						run()
						b.SetBytes(int64(k * t))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							run()
						}
						if singular > (b.N+1)/2 {
							b.Fatalf("%d of %d decodes singular", singular, b.N+1)
						}
					})
				}
			}
		}
	}
}
