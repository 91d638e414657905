package raptorq

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"polyraptor/internal/gf256"
)

// applyRow returns h*s: the T-byte combination of the source symbols
// with the coefficients of h.
func applyRow(h []byte, source [][]byte) []byte {
	out := make([]byte, len(source[0]))
	for i, s := range source {
		gf256.MulAddRow(out, s, h[i])
	}
	return out
}

// TestSourceMatrixInvariant ties the cached source matrix B to the
// encoder, independently of any decode path: B*s is the encoder's
// intermediate block, h_e is the unit vector e_e for every source ESI e,
// and h_e*s is Encoder.AppendSymbol for 64 random repair ESIs.
func TestSourceMatrixInvariant(t *testing.T) {
	for _, k := range []int{10, 256, 1000} {
		p, err := NewParams(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sourceMatrixFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if b.k != k || len(b.rows) != p.L*k {
			t.Fatalf("K=%d: matrix is %d bytes for k=%d, want %d x %d", k, len(b.rows), b.k, p.L, k)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		source := randSymbols(rng, k, 64)
		enc, err := NewEncoder(source)
		if err != nil {
			t.Fatal(err)
		}
		for col, c := range enc.intermediates() {
			if !bytes.Equal(applyRow(b.rows[col*k:(col+1)*k], source), c) {
				t.Fatalf("K=%d: row %d of B times s is not intermediate %d", k, col, col)
			}
		}
		h := make([]byte, k)
		var cols []int32
		for e := 0; e < k; e++ {
			cols = b.combine(h, p, uint32(e), cols)
			for i, c := range h {
				if want := byte(0); i == e && c != 1 || i != e && c != want {
					t.Fatalf("K=%d: h_%d[%d] = %d, want the unit vector e_%d", k, e, i, c, e)
				}
			}
		}
		for n := 0; n < 64; n++ {
			esi := uint32(k + rng.Intn(1<<20))
			cols = b.combine(h, p, esi, cols)
			if got, want := applyRow(h, source), enc.AppendSymbol(nil, esi); !bytes.Equal(got, want) {
				t.Fatalf("K=%d ESI %d: h_e*s = %x, encoder %x", k, esi, got, want)
			}
		}
	}
}

// coefficient returns h_e[col], the coefficient of source symbol col in
// encoding symbol esi.
func coefficient(t *testing.T, p Params, esi uint32, col int) byte {
	t.Helper()
	b, err := sourceMatrixFor(p)
	if err != nil {
		t.Fatal(err)
	}
	h := make([]byte, p.K)
	b.combine(h, p, esi, nil)
	return h[col]
}

// TestRankDeficientRepairsEndLikeFull builds received sets whose repair
// rows are rank-deficient over the missing sources: m+spareRepairs repair
// rows that all miss the last missing source, so their system has rank
// below m. Alone they are singular on every path; with one more repair
// row that sees that source, ranked above them, the set has full rank,
// and the direct path, which considers every repair row held, must find
// it. Every path must end in the full solver's verdict and bytes.
// K=1,100 is above sourceMatrixMaxK, so there Decode takes the full
// solver itself and only the forced direct path reads the matrix.
func TestRankDeficientRepairsEndLikeFull(t *testing.T) {
	const symSize = 32
	for _, k := range []int{10, 101, 256, 1100} {
		for _, m := range []int{1, 2, 3} {
			p, err := NewParams(k)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(k + m)))
			source := randSymbols(rng, k, symSize)
			enc, err := NewEncoder(source)
			if err != nil {
				t.Fatal(err)
			}
			missing := rng.Perm(k)[:m]
			// Repair rows blind to the last missing source, and the first
			// above them that sees it.
			var blind []uint32
			esi := uint32(k)
			for ; len(blind) < m+spareRepairs; esi++ {
				if coefficient(t, p, esi, missing[m-1]) == 0 {
					blind = append(blind, esi)
				}
			}
			for coefficient(t, p, esi, missing[m-1]) == 0 {
				esi++
			}
			seeing := esi
			decode := func(path decodePath, esis []uint32) ([][]byte, error) {
				dec, err := NewDecoder(k, symSize)
				if err != nil {
					t.Fatal(err)
				}
				dec.force = path
				gone := make([]bool, k)
				for _, i := range missing {
					gone[i] = true
				}
				for i := 0; i < k; i++ {
					if !gone[i] {
						dec.AddSymbol(uint32(i), source[i])
					}
				}
				for _, esi := range esis {
					dec.AddSymbol(esi, enc.Symbol(esi))
				}
				return dec.Decode()
			}
			for _, c := range []struct {
				name string
				esis []uint32
			}{{"blind", blind}, {"blind+seeing", append(blind, seeing)}} {
				want, wantErr := decode(pathFull, c.esis)
				if singular := c.name == "blind"; singular != errors.Is(wantErr, ErrSingular) || !singular && wantErr != nil {
					t.Fatalf("K=%d m=%d %s: full solver: %v", k, m, c.name, wantErr)
				}
				for _, path := range []decodePath{pathAuto, pathDirect} {
					got, err := decode(path, c.esis)
					switch {
					case wantErr != nil:
						if !errors.Is(err, ErrSingular) {
							t.Fatalf("K=%d m=%d %s: path %d: %v, want ErrSingular", k, m, c.name, path, err)
						}
					case err != nil:
						t.Fatalf("K=%d m=%d %s: path %d: %v, full solver decodes", k, m, c.name, path, err)
					default:
						for i := range want {
							if !bytes.Equal(got[i], want[i]) || !bytes.Equal(want[i], source[i]) {
								t.Fatalf("K=%d m=%d %s: path %d: symbol %d differs", k, m, c.name, path, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestPartialDecodeAllocatesNothing is the steady-state contract of the
// direct path, on every gf256 kernel tier: once a decoder has decoded
// one block at the most missing rows it will see (its scratch is sized by
// need, with 2x headroom) and its K's source matrix is built, a block
// with a fresh loss mask of 1 to 32 missing rows — Reset, K+2 AddSymbol,
// Decode — allocates nothing.
func TestPartialDecodeAllocatesNothing(t *testing.T) {
	const k, symSize, maxM, blocks = 256, 64, 32, 300
	enc, err := NewEncoder(randSymbols(rand.New(rand.NewSource(43)), k, symSize))
	if err != nil {
		t.Fatal(err)
	}
	pool := make([][]byte, k+maxM+2)
	for i := range pool {
		pool[i] = enc.Symbol(uint32(i))
	}
	eachGFTier(t, func(t *testing.T) {
		dec, err := NewDecoder(k, symSize)
		if err != nil {
			t.Fatal(err)
		}
		dec.force = pathDirect
		// The masks are drawn up front: the first has the most rows.
		rng := rand.New(rand.NewSource(44))
		masks := make([][]bool, blocks+1)
		for i := range masks {
			m := 1 + rng.Intn(maxM)
			if i == 0 {
				m = maxM
			}
			masks[i] = make([]bool, k)
			for _, j := range rng.Perm(k)[:m] {
				masks[i][j] = true
			}
		}
		block := func(gone []bool) {
			dec.Reset()
			m := 0
			for i := 0; i < k; i++ {
				if gone[i] {
					m++
				} else {
					dec.AddSymbol(uint32(i), pool[i])
				}
			}
			for esi := k; esi < k+m+2; esi++ {
				dec.AddSymbol(uint32(esi), pool[esi])
			}
			if _, err := dec.Decode(); err != nil && !errors.Is(err, ErrSingular) {
				t.Fatal(err)
			}
		}
		block(masks[0])
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			// The count is process-wide. Straight after the large blocks of
			// the test before this one, a stray 32-byte allocation from
			// elsewhere in the process landed in the count in about one run
			// in ten; a millisecond's pause lets that settle first.
			time.Sleep(time.Millisecond)
			runtime.ReadMemStats(&before)
			for _, gone := range masks[1:] {
				block(gone)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%d allocations over %d partial decodes on a warmed decoder, want 0", n, blocks)
			}
		}()
	})
}
