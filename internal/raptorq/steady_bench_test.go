package raptorq

import (
	"fmt"
	"math/rand"
	"testing"
)

// Steady-state benchmarks for the layered codec pipeline. These mirror
// the perfbench codec cells (which drive ALLOC_BUDGET.json); keeping
// them here too makes `go test -bench` useful during codec work.

func benchSource(k, t int) [][]byte {
	rng := rand.New(rand.NewSource(7))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, t)
		rng.Read(src[i])
	}
	return src
}

func BenchmarkEncodeReset(b *testing.B) {
	const k, t = 256, 1024
	src := benchSource(k, t)
	enc, err := NewEncoder(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(k * t))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Reset(src); err != nil {
			b.Fatal(err)
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

func benchDecode(b *testing.B, keep float64) {
	const k, t = 256, 1024
	arrivals := benchArrivals(b, k, t, keep)
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
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
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
// block, so each op pays plan + prune + replay. Symbols come from a
// pregenerated pool; only the choice of survivors is drawn per op.
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
	run := func() {
		dec.Reset()
		n := 0
		for i := 0; i < k; i++ {
			if rng.Float64() < 0.70 {
				dec.AddSymbol(uint32(i), pool[i])
				n++
			}
		}
		for esi := k; n < k+2; esi++ {
			dec.AddSymbol(uint32(esi), pool[esi])
			n++
		}
		for esi := 2 * k; ; esi++ {
			if _, err := dec.Decode(); err == nil {
				return
			}
			dec.AddSymbol(uint32(esi), enc.Symbol(uint32(esi))) // singular at K+2: rare
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

// BenchmarkPartialVsFull times the two matrix paths on the same
// blocks — m missing sources out of K=256, K+2 symbols held, a fresh
// choice of the m per op — to place the partialMaxMissing crossover
// (docs/perf/pr28-partial-decode.md), at T=1,024 and
// at T=1,436, whose partial slots are no multiple of 32 wide and replay
// through the checked kernels.
func BenchmarkPartialVsFull(b *testing.B) {
	const k = 256
	for _, t := range []int{1024, 1436} {
		enc, err := NewEncoder(benchSource(k, t))
		if err != nil {
			b.Fatal(err)
		}
		pool := make([][]byte, 2*k)
		for i := range pool {
			pool[i] = enc.Symbol(uint32(i))
		}
		for _, m := range []int{1, 4, 8, 16, 32, 48, 64} {
			for _, path := range []string{"partial", "full"} {
				b.Run(fmt.Sprintf("T=%d/m=%d/%s", t, m, path), func(b *testing.B) {
					dec, err := NewDecoder(k, t)
					if err != nil {
						b.Fatal(err)
					}
					dec.forcePartial, dec.forceFull = path == "partial", path == "full"
					rng := rand.New(rand.NewSource(int64(m)))
					gone := make([]bool, k)
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
						dec.Decode() // a singular draw costs the same solve
					}
					run()
					b.SetBytes(int64(k * t))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run()
					}
				})
			}
		}
	}
}
