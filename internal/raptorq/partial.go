package raptorq

import (
	"polyraptor/internal/gf256"
)

// Partial-systematic decoding: when most source symbols arrive intact,
// paying a full L x L inactivation solve to recover a handful of
// missing rows wastes almost all of its work — the observation SCDP
// builds its datacenter transport on. The direct path reduces the
// decode to an m x m dense system over only the m missing source
// symbols.
//
// The precode is linear: the intermediate symbols are C = B*s, where s
// is the source block and B the L x K source matrix over GF(256). One
// replay of the cached precode schedule with the unit vector e_i, K
// bytes wide, in source row i computes all of B, once per K
// (sourceMatrixFor; 75,776 bytes at K=256). A repair symbol with ESI e
// is the XOR of the intermediates at its LT and PI columns, so
//
//	recv[e] = h_e * s,  h_e = sum_{col in LT(e)} B[col]
//
// and, with x_j the j-th missing source symbol, each received repair
// symbol yields one equation over the x_j:
//
//	sum_j a_e[j] * x_j = recv[e] - sum_{i received} h_e[i] * s_i
//	a_e[j] = h_e[miss_j]
//
// h_e is about eight K-byte AddRows. The pivot rows are chosen on the
// m-byte coefficient rows a_e first, taking the repair symbols in ESI
// order until m are independent; only those m rows get right-hand
// sides, m*(K-m) MulAddRows on T-byte rows, and the Gauss-Jordan solve
// adds m*m more. Every received repair row is considered, so the
// reduced system is singular exactly when the full one is.
//
// Byte-identity with the full solver: both paths compute the unique
// exact solution of a full-rank linear system whose solution is the
// original source block, so agreement is exact, not approximate — the
// differential tests assert it byte-for-byte.

// directMaxMissing caps the missing rows the direct path takes on at
// any K. Its cost grows as m*K row operations, the full solver's barely
// with m: BenchmarkPartialVsFull, K+2 held, median µs of five rounds on
// a 2-vCPU GFNI/AVX-512 host (the full table is in
// docs/perf/pr38-partial-matrix.md):
//
//	K     T     path     m=13   m=24   m=32   m=48   m=64
//	256   1024  direct    123    215    290    511    679
//	            full      366    413    436    439    470
//	256   1436  direct    157    283    451    696   1010
//	            full      578    615    690    613    642
//	1024  1024  direct    459    804   1047   1779   2388
//	            full     2127   1795   2137   2020   2052
//	1024  1436  direct    659   1139   1678   2957   4005
//	            full     2946   3079   3640   3397   3100
//
// Direct wins every cell to m = 32 by a third or more and loses at
// K=256 from m = 48.
const directMaxMissing = 32

// partialMaxMissing bounds how many missing source rows the direct path
// takes on; above it Decode runs the full solver. K/8 keeps a block of
// 30 % loss on the full solver and small blocks, where the full solve
// is cheap, below the crossover; directMaxMissing caps it for large K.
func partialMaxMissing(k int) int {
	return max(1, min(k/8, directMaxMissing))
}

// sourceMatrixMaxK is the largest K whose source matrix is built and
// kept: L*K bytes, 75,776 at K=256 and 1.1 MB at K=1,024 (but 17 MB at
// 4,096). Larger blocks always take the full solver. The cache keeps
// every K it has built (see sourceMatrixCache for its worst case).
const sourceMatrixMaxK = 1024

// decodePath names a decode path: the one partialPath picks, or a test
// hook's forced choice.
type decodePath uint8

const (
	pathAuto   decodePath = iota // by partialPath
	pathDirect                   // decodeDirect
	pathFull                     // decodeFull
)

// partialPath is the decode path for a block of k source symbols that
// misses m of them.
//
//polyvet:noalloc per-block path choice
func partialPath(m, k int) decodePath {
	if k <= sourceMatrixMaxK && m <= partialMaxMissing(k) {
		return pathDirect
	}
	return pathFull
}

// decodeDirect recovers the m missing source symbols from the reduced
// system it reads off the source matrix, with no replay, and writes them
// to their slots of the block. It requires at least K symbols held
// (checked by decode). Everything it works in is reused scratch: in the
// steady state it allocates nothing.
//
//polyvet:noalloc steady-state direct partial decode over reused scratch
func (d *Decoder) decodeDirect(m int) error {
	k, t, sc := d.p.K, d.t, d.sc
	b, err := sourceMatrixFor(d.p)
	if err != nil {
		return err
	}
	miss := sized(sc.missBuf, m)[:0]
	for i := 0; i < k; i++ {
		if !d.has(i) {
			miss = append(miss, uint32(i))
		}
	}
	sc.missBuf = miss

	// Pivot rows: the repair symbols in ESI order, each kept if its
	// coefficient row is independent of the rows kept before it, until m
	// are. red holds the kept rows reduced to echelon form, pivot their
	// pivot columns, h their h_e.
	h := sized(sc.hBuf, m*k)
	red := sized(sc.redBuf, m*m)
	pivot := sized(sc.pivotCol, m)
	kept := sized(sc.keptRep, m)[:0]
	cols := sc.ltScratch
	for _, rep := range d.rep {
		n := len(kept)
		he := h[n*k : (n+1)*k : (n+1)*k]
		cols = b.combine(he, d.p, rep.esi, cols)
		v := red[n*m : (n+1)*m : (n+1)*m]
		for j, i := range miss {
			v[j] = he[i]
		}
		for q := 0; q < n; q++ {
			gf256.MulAddRow(v, red[q*m:(q+1)*m], v[pivot[q]])
		}
		j := 0
		for j < m && v[j] == 0 {
			j++
		}
		if j == m {
			continue
		}
		gf256.ScaleRow(v, gf256.Inv(v[j]))
		pivot[n] = j
		kept = append(kept, rep)
		if len(kept) == m {
			break
		}
	}
	sc.hBuf, sc.redBuf, sc.pivotCol, sc.keptRep, sc.ltScratch = h, red, pivot, kept, cols
	if len(kept) < m {
		return ErrSingular
	}

	// The kept equations, one row each: recv[e] in the head, a_e in the
	// tail, rows a multiple of 64 bytes apart so that the heads stay
	// aligned for the 64-byte kernels; then every received source into
	// every head, the m heads (m*T <= 24 KiB at T=1,024) staying in L1.
	w := (t + m + 63) &^ 63
	sc.rhsBuf = sized(sc.rhsBuf, m*w)
	eq := sc.eqRows[:0]
	eqSym := sc.eqSymRows[:0]
	for n, rep := range kept {
		row := sc.rhsBuf[n*w : (n+1)*w : (n+1)*w]
		copy(row, d.store.sym(rep.slot, t))
		he := h[n*k : (n+1)*k : (n+1)*k]
		for j, i := range miss {
			row[t+j] = he[i]
		}
		eq = append(eq, row[t:t+m:t+m])
		eqSym = append(eqSym, row[:t:t])
	}
	sc.eqRows, sc.eqSymRows = eq, eqSym
	for i := 0; i < k; i++ {
		if !d.has(i) {
			continue
		}
		s := d.src(i)
		for n, rhs := range eqSym {
			gf256.MulAddRow(rhs, s, h[n*k+i])
		}
	}

	rowOfCol := sized(sc.rowOfCol, m)
	sc.rowOfCol = rowOfCol
	if err := gaussJordanScratch(eq, eqSym, m, rowOfCol); err != nil {
		return err
	}
	for j, esi := range miss {
		copy(d.src(int(esi)), eqSym[rowOfCol[j]])
	}
	return nil
}
