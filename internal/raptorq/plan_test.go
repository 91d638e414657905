package raptorq

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"polyraptor/internal/gf256"
)

// fullRankOracle is the planner's reference: it writes the decode
// system of the ESI set out as dense GF(256) rows over all L columns —
// the HDPC coefficients by their defining recurrence, not the Horner
// walk the planner uses — and reports whether plain Gaussian
// elimination finds L pivots. Rank is a property of the matrix, so the
// planner's verdict must agree whatever its pivot order.
func fullRankOracle(p Params, esis []uint32) bool {
	var pl planner
	pl.reset(p, 0) // the LDPC rows and the HDPC picks
	var m [][]byte
	binary := func(cols []int32) {
		row := make([]byte, p.L)
		for _, c := range cols {
			row[c] = 1
		}
		m = append(m, row)
	}
	for r := 0; r < p.S; r++ {
		binary(pl.rowCols[pl.rowStart[r]:pl.rowStart[r+1]])
	}
	for r := int32(0); r < int32(p.H); r++ {
		row := make([]byte, p.L)
		var acc byte
		for c := p.L - p.H - 1; c >= 0; c-- {
			acc = gf256.Mul(acc, 2)
			if pl.picks[c][0] == r || pl.picks[c][1] == r {
				acc ^= 1
			}
			row[c] = acc
		}
		row[p.L-p.H+int(r)] = 1
		m = append(m, row)
	}
	for _, esi := range esis {
		binary(p.LTIndices(esi))
	}
	rank := 0
	for col := 0; col < p.L; col++ {
		sel := rank
		for sel < len(m) && m[sel][col] == 0 {
			sel++
		}
		if sel == len(m) {
			return false
		}
		m[rank], m[sel] = m[sel], m[rank]
		gf256.ScaleRow(m[rank], gf256.Inv(m[rank][col]))
		for r := rank + 1; r < len(m); r++ {
			gf256.MulAddRow(m[r], m[rank], m[r][col])
		}
		rank++
	}
	return true
}

// checkPlanAgainstOracle feeds dec (already Reset, full path forced)
// the given ESIs of enc and requires the planner's verdict to equal
// the oracle's and a successful decode to reproduce source. It reports
// whether the set was singular.
func checkPlanAgainstOracle(t *testing.T, dec *Decoder, enc *Encoder, source [][]byte, esis []uint32) (singular bool) {
	t.Helper()
	for _, esi := range esis {
		if _, err := dec.AddSymbol(esi, enc.Symbol(esi)); err != nil {
			t.Fatal(err)
		}
	}
	want := fullRankOracle(dec.p, esis)
	got, err := dec.Decode()
	if err != nil && !errors.Is(err, ErrSingular) {
		t.Fatalf("K=%d esis=%v: Decode: %v", dec.p.K, esis, err)
	}
	if (err == nil) != want {
		t.Fatalf("K=%d esis=%v: planner says full rank = %v, oracle says %v", dec.p.K, esis, err == nil, want)
	}
	for i := range got {
		if !bytes.Equal(got[i], source[i]) {
			t.Fatalf("K=%d esis=%v: decoded symbol %d differs from the source", dec.p.K, esis, i)
		}
	}
	return err != nil
}

// TestPlanMatchesRankOracle is the table half of what replaced the
// schedule-cache fuzz: across block sizes, loss rates and overheads,
// under a fresh mask every time and on one reused decoder per K, the
// planner's verdict equals the dense oracle's (singular sets included)
// and every decodable set decodes to the source.
func TestPlanMatchesRankOracle(t *testing.T) {
	const symSize = 16
	singular, total := 0, 0
	for _, k := range []int{1, 4, 10, 101, 256, 1000} {
		rng := rand.New(rand.NewSource(int64(4000 + k)))
		source := randSymbols(rng, k, symSize)
		enc, err := NewEncoder(source)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(k, symSize)
		if err != nil {
			t.Fatal(err)
		}
		dec.forceFull = true
		masks := 3
		if k <= 10 {
			masks = 40 // singular sets are a per-cent event: draw enough to meet some
		}
		for _, loss := range []float64{0.05, 0.3, 1.0} {
			for overhead := 0; overhead <= 2; overhead++ {
				for range masks {
					var esis []uint32
					for i := 0; i < k; i++ {
						if rng.Float64() >= loss {
							esis = append(esis, uint32(i))
						}
					}
					// A repair window that starts anywhere, not always at K.
					for esi := uint32(k + rng.Intn(1000)); len(esis) < k+overhead; esi++ {
						esis = append(esis, esi)
					}
					dec.Reset()
					if checkPlanAgainstOracle(t, dec, enc, source, esis) {
						singular++
					}
					total++
				}
			}
		}
	}
	if singular == 0 {
		t.Fatalf("none of %d sets was singular: the table no longer tests that verdict", total)
	}
	t.Logf("%d of %d sets singular", singular, total)
}

// TestSingularVerdictIsRemembered is the retry-storm regression: a
// transport that calls Decode on every packet for any block must not
// re-solve a block whose received set has not changed.
func TestSingularVerdictIsRemembered(t *testing.T) {
	const k, symSize = 10, 8
	source := randSymbols(rand.New(rand.NewSource(31)), k, symSize)
	enc, err := NewEncoder(source)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	// Slide a window of K repair symbols until one is rank-deficient.
	start := uint32(k)
	for ; ; start++ {
		if start > 5000 {
			t.Fatal("no singular repair window found")
		}
		dec.Reset()
		for esi := start; esi < start+k; esi++ {
			dec.AddSymbol(esi, enc.Symbol(esi))
		}
		if _, err := dec.Decode(); errors.Is(err, ErrSingular) {
			break
		}
	}
	plans := dec.sc.plan.plans
	for range 3 {
		if _, err := dec.Decode(); !errors.Is(err, ErrSingular) {
			t.Fatalf("repeat Decode: %v, want ErrSingular", err)
		}
	}
	if got := dec.sc.plan.plans; got != plans {
		t.Fatalf("Decode planned %d more times with no new symbol", got-plans)
	}
	// A duplicate is not a new symbol; a fresh one re-arms the solve.
	dec.AddSymbol(start, enc.Symbol(start))
	dec.Decode()
	if got := dec.sc.plan.plans; got != plans {
		t.Fatalf("a duplicate symbol re-armed the solve (%d more plans)", got-plans)
	}
	for esi := start + k; ; esi++ {
		dec.AddSymbol(esi, enc.Symbol(esi))
		before := dec.sc.plan.plans
		got, err := dec.Decode()
		if dec.sc.plan.plans != before+1 {
			t.Fatalf("a fresh symbol did not re-arm the solve")
		}
		if err == nil {
			for i := range source {
				if !bytes.Equal(got[i], source[i]) {
					t.Fatalf("symbol %d corrupt after the retry", i)
				}
			}
			break
		}
	}
	dec.Reset()
	if dec.singularAt != 0 {
		t.Fatal("Reset kept the singular verdict")
	}
}

// TestIntakeOneChunkPerBlock pins what intake allocates on a fresh
// decoder, whose one chunk is the block with room for repair symbols
// behind it: nothing for the K source symbols — the block is their place
// and there is no intake copy to make room for — and for the repair
// symbols of the usual K+2 their index.
func TestIntakeOneChunkPerBlock(t *testing.T) {
	const k, symSize, runs = 256, 32, 4
	sym := make([]byte, symSize)
	for _, tc := range []struct {
		symbols uint32
		want    float64
		what    string
	}{
		{k, 0, "source symbols go to their place in the block"},
		{k + 2, 1, "the repair index"},
	} {
		decs := make([]*Decoder, runs+1) // AllocsPerRun makes one warm-up call
		for i := range decs {
			var err error
			if decs[i], err = NewDecoder(k, symSize); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			d := decs[next]
			next++
			for esi := uint32(0); esi < tc.symbols; esi++ {
				d.AddSymbol(esi, sym)
			}
		})
		if allocs != tc.want {
			t.Fatalf("%d AddSymbol calls on a fresh decoder made %v allocations, want %v (%s)", tc.symbols, allocs, tc.want, tc.what)
		}
	}
}

// TestColdDecodeAllocatesNothing is the steady-state contract of the
// full path: on a warmed decoder a block with a loss mask never seen
// before — Reset, K+2 AddSymbol, Decode — allocates nothing.
func TestColdDecodeAllocatesNothing(t *testing.T) {
	const k, symSize = 256, 32
	enc, err := NewEncoder(randSymbols(rand.New(rand.NewSource(41)), k, symSize))
	if err != nil {
		t.Fatal(err)
	}
	pool := make([][]byte, 2*k)
	for i := range pool {
		pool[i] = enc.Symbol(uint32(i))
	}
	dec, err := NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	block := func() {
		dec.Reset()
		n := 0
		for i := 0; i < k; i++ {
			if rng.Float64() >= 0.3 {
				dec.AddSymbol(uint32(i), pool[i])
				n++
			}
		}
		for esi := k; n < k+2; esi++ {
			dec.AddSymbol(uint32(esi), pool[esi])
			n++
		}
		if _, err := dec.Decode(); err != nil && !errors.Is(err, ErrSingular) {
			t.Fatal(err)
		}
	}
	block() // warm, once, as polyperf does: scratch sized by need grows with 2x headroom
	// Counted exactly, not averaged: AllocsPerRun rounds down, and the
	// polyperf cell for this path is locked at exactly zero.
	const blocks = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range blocks {
		block()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations over %d cold decodes on a warmed decoder, want 0", n, blocks)
	}
	if dec.sc.plan.plans < blocks {
		t.Fatalf("only %d plans: the blocks did not take the full path", dec.sc.plan.plans)
	}
}
