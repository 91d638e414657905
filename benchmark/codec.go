package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"polyraptor"
	"polyraptor/internal/gf256"
)

const (
	symbolSize = 1024 // T, the transport default
	maxBlockK  = 256
	// Each block is offered K+overhead symbols, and extra more when that
	// does not decode; a block still undecoded then fails its object.
	overhead = 2
	extra    = 2
)

// lossMix is the share of source symbols withheld, one class per third of
// the objects: systematic copy, partial solve, full solve.
var lossMix = [3]float64{0, 0.05, 0.30}

// codecWorkload is codec_object: encode, generate symbols, decode under a
// fresh random loss mask per block, byte-compare.
type codecWorkload struct {
	sc   scale
	seed int64
	// mangle, when set, corrupts offered symbols; the tests use it to show
	// that a wrong byte fails the run.
	mangle func(sbn int, esi uint32, sym []byte)
}

// fillRandom fills b from rng eight bytes at a time.
func fillRandom(rng *rand.Rand, b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, rng.Uint64())
		b = b[8:]
	}
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
}

// offer lists, for one block of k source symbols, the ESIs the decoder is
// given: the source symbols that survive the loss mask, then repair symbols
// up to k+overhead, then the extra repair symbols held in reserve.
func offer(rng *rand.Rand, k int, loss float64) []uint32 {
	esis := make([]uint32, 0, k+overhead+extra)
	for esi := 0; esi < k; esi++ {
		if loss == 0 || rng.Float64() >= loss {
			esis = append(esis, uint32(esi))
		}
	}
	for next := uint32(k); len(esis) < k+overhead+extra; next++ {
		esis = append(esis, next)
	}
	return esis
}

// makeObject is the set-up of one object: its bytes, its block layout and
// the symbols each block is offered under the loss class's fresh masks.
func (w *codecWorkload) makeObject(rng *rand.Rand, data []byte, o int) (layout polyraptor.BlockLayout, offers [][]uint32, class int, err error) {
	class = o * len(lossMix) / w.sc.objects
	fillRandom(rng, data)
	layout, err = polyraptor.NewBlockLayout(int64(len(data)), symbolSize, maxBlockK)
	if err != nil {
		return layout, nil, class, err
	}
	offers = make([][]uint32, layout.Z())
	for b, k := range layout.K {
		offers[b] = offer(rng, k, lossMix[class])
	}
	return layout, offers, class, nil
}

func (w *codecWorkload) setUp(variant int) (float64, error) {
	rng := rand.New(rand.NewSource(subSeed(w.seed, variant)))
	t0 := time.Now()
	data := make([]byte, w.sc.objectBytes)
	for o := 0; o < w.sc.objects; o++ {
		if _, _, _, err := w.makeObject(rng, data, o); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

func (w *codecWorkload) iterate(variant int, tr *tracer) (iteration, error) {
	var it iteration
	rng := rand.New(rand.NewSource(subSeed(w.seed, variant)))
	begin := time.Now()
	setupSpan := tr.add("setup", 0, 0, begin, 0, 0)
	runSpan := tr.add("run", 0, 0, begin, 0, 0)

	var encodeS, genS, addS, tryS, assembleS float64
	var classS, classBytes [len(lossMix)]float64
	var blocks, blockFails, symbolsAdded, symbolsMade int
	var mallocs uint64
	// The object and symbol buffers are the benchmark's own: one of each
	// per iteration, so that peak RSS follows the codec and not the inputs.
	data := make([]byte, w.sc.objectBytes)
	var symBuf []byte
	var ms runtime.MemStats

	for o := 0; o < w.sc.objects; o++ {
		req := o + 1

		t0 := time.Now()
		layout, offers, class, err := w.makeObject(rng, data, o)
		if err != nil {
			return it, err
		}
		if need := (layout.TotalSymbols() + layout.Z()*(overhead+extra)) * symbolSize; cap(symBuf) < need {
			symBuf = make([]byte, need)
		}
		d := time.Since(t0)
		it.setupS += d.Seconds()
		tr.add("bench.object_gen", setupSpan, req, t0, d, 0)

		runtime.ReadMemStats(&ms)
		mallocs -= ms.Mallocs
		runStart := time.Now()

		t0 = time.Now()
		enc, err := polyraptor.EncodeObjectWorkers(data, symbolSize, maxBlockK, 1)
		if err != nil {
			return it, err
		}
		d = time.Since(t0)
		encodeS += d.Seconds()
		tr.add("raptorq.encode", runSpan, req, t0, d, 0)

		// Symbol generation; the reserve symbols are made only if needed.
		t0 = time.Now()
		made := 0
		buf := symBuf[:0]
		for b, esis := range offers {
			blk := enc.Block(b)
			for _, esi := range esis[:len(esis)-extra] {
				buf = blk.AppendSymbol(buf, esi)
				made++
			}
		}
		d = time.Since(t0)
		genS += d.Seconds()
		symbolsMade += made
		tr.add("raptorq.symbol_gen", runSpan, req, t0, d, int64(made))

		if w.mangle != nil {
			i := 0
			for b, esis := range offers {
				for _, esi := range esis[:len(esis)-extra] {
					w.mangle(b, esi, buf[i*symbolSize:(i+1)*symbolSize])
					i++
				}
			}
		}

		dec, err := polyraptor.NewObjectDecoder(layout)
		if err != nil {
			return it, err
		}
		dec.SetWorkers(1)
		decStart := time.Now()
		var objAdd, objTry time.Duration
		added := 0
		i := 0
		ok := true
		var reserve []byte
		for b, esis := range offers {
			t0 = time.Now()
			for _, esi := range esis[:len(esis)-extra] {
				if _, err := dec.AddSymbol(b, esi, buf[i*symbolSize:(i+1)*symbolSize]); err != nil {
					return it, err
				}
				i++
			}
			t1 := time.Now()
			dec.TryDecode()
			t2 := time.Now()
			add, try := t1.Sub(t0), t2.Sub(t1)
			added += len(esis) - extra
			blocks++
			if !dec.BlockComplete(b) {
				blockFails++
				t0 = time.Now()
				for _, esi := range esis[len(esis)-extra:] {
					reserve = enc.Block(b).AppendSymbol(reserve[:0], esi)
					if _, err := dec.AddSymbol(b, esi, reserve); err != nil {
						return it, err
					}
					added++
				}
				dec.TryDecode()
				try += time.Since(t0)
				ok = ok && dec.BlockComplete(b)
			}
			objAdd += add
			objTry += try
			it.xferMs = append(it.xferMs, float64((add+try).Nanoseconds())/1e6)
		}
		symbolsAdded += added
		addS += objAdd.Seconds()
		tryS += objTry.Seconds()
		tr.add("raptorq.add_symbol", runSpan, req, decStart, objAdd, int64(added))
		tr.add("raptorq.decode", runSpan, req, decStart, objTry, int64(layout.Z()))

		var obj []byte
		t0 = time.Now()
		if ok {
			obj, err = dec.Object()
			ok = err == nil
		}
		d = time.Since(t0)
		assembleS += d.Seconds()
		tr.add("raptorq.assemble", runSpan, req, t0, d, 0)
		classS[class] += (objAdd + objTry + d).Seconds()
		classBytes[class] += float64(len(data))

		t0 = time.Now()
		ok = ok && bytes.Equal(obj, data)
		tr.add("bench.verify", runSpan, req, t0, time.Since(t0), 0)

		it.runS += time.Since(runStart).Seconds()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs
		it.attempted++
		if !ok {
			it.failed++
		}
	}
	tr.setDur(setupSpan, time.Duration(it.setupS*1e9))
	tr.setDur(runSpan, time.Duration(it.runS*1e9))

	objBytes := float64(w.sc.objects) * float64(w.sc.objectBytes)
	decodeS := addS + tryS + assembleS
	it.goodputMbps = objBytes * 8 / decodeS / 1e6
	it.layer = map[string]float64{
		"raptorq.encode_mb_s":         objBytes / (encodeS + genS) / 1e6,
		"raptorq.decode_mb_s":         objBytes / decodeS / 1e6,
		"raptorq.encode_precode_mb_s": objBytes / encodeS / 1e6,
		"raptorq.symbol_gen_mb_s":     float64(symbolsMade*symbolSize) / genS / 1e6,
		"raptorq.add_symbol_ns":       addS * 1e9 / float64(symbolsAdded),
		"raptorq.decode_mb_s.loss0":   classBytes[0] / classS[0] / 1e6,
		"raptorq.decode_mb_s.loss5":   classBytes[1] / classS[1] / 1e6,
		"raptorq.decode_mb_s.loss30":  classBytes[2] / classS[2] / 1e6,
		"raptorq.decode_fail_frac":    float64(blockFails) / float64(blocks),
		"raptorq.allocs_per_block":    float64(mallocs) / float64(blocks),
	}
	return it, nil
}

// probes times the two GF(256) row kernels the decoder leans on, at the
// workload's symbol size.
func (w *codecWorkload) probes(layer map[string]float64, _ float64, log io.Writer) (*estimate, error) {
	fmt.Fprintf(log, "\nraptorq.decode_fail_frac is measured at K+%d; the simulator's model gives DecodeFailureProb(%d) = %g\n",
		overhead, overhead, polyraptor.DecodeFailureProb(overhead))
	rng := rand.New(rand.NewSource(w.seed))
	dst, src := make([]byte, symbolSize), make([]byte, symbolSize)
	fillRandom(rng, dst)
	fillRandom(rng, src)
	const n = 2_000_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		gf256.AddRow(dst, src)
	}
	layer["gf256.addrow_gb_s"] = float64(n*symbolSize) / float64(time.Since(t0).Nanoseconds())
	t0 = time.Now()
	for i := 0; i < n; i++ {
		gf256.MulAddRow(dst, src, byte(i)|2)
	}
	layer["gf256.muladdrow_gb_s"] = float64(n*symbolSize) / float64(time.Since(t0).Nanoseconds())
	return nil, nil
}
