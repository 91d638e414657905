package raptorq

import (
	"polyraptor/internal/gf256"
)

// Partial-systematic decoding: when most source symbols arrive intact,
// paying a full L x L inactivation solve to recover a handful of
// missing rows wastes almost all of its work — the observation SCDP
// builds its datacenter transport on. The direct path computes the m
// missing source symbols straight from the symbols received, through
// one m x (K+m) matrix of bytes.
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
// and h_e is about eight K-byte AddRows. With x_j the missing source
// symbols, each received repair symbol is one equation over them,
//
//	sum_{j missing} h_e[j] * x_j = recv[e] + sum_{i received} h_e[i] * s_i
//
// and m independent ones, stacked as A x = [H | I] (s ; recv), give
//
//	x = D (s ; recv),  D = A^-1 [H | I]:
//
// each missing symbol is a combination of the K inputs, the K-m
// received sources and the m repair symbols, with coefficients that no
// symbol byte enters. decodeDirect works on rows [h_e | unit n] of K+m
// bytes in three steps:
//
//  1. Pivots. The repair symbols are taken in ESI order, each row
//     reduced against the rows kept before it and kept if a missing
//     column is left non-zero, until m are: about m*m/2 row operations
//     on K+m bytes. Every received repair symbol is considered, so the
//     direct path is singular exactly when the full system is.
//  2. Inverse. Back-substitution, last row first, leaves each kept row
//     with one missing column and D's row around it: m*m/2 more row
//     operations, and no symbol touched.
//  3. Product. One gf256.MulAddRows writes every missing symbol into its
//     slot: m*(K+m) multiply-adds of T-byte rows, the missing sources'
//     own columns zero. On the GFNI tier each input is read once per
//     eight missing symbols rather than once per coefficient.
//
// Byte-identity with the full solver: both paths compute the unique
// exact solution of a full-rank linear system whose solution is the
// original source block, so agreement is exact, not approximate — the
// differential tests assert it byte-for-byte.

// directMaxMissing caps the missing rows the direct path takes on at
// any K. Its cost grows as m*(K+m) row operations, the full solver's
// barely with m: BenchmarkPartialVsFull, K+2 held, median µs of five
// rounds on a 2-vCPU GFNI/AVX-512 host (the full table, and the one
// before the multi-row kernel, are in docs/perf/pr42-multirow-kernel.md):
//
//	K     T     path     m=13   m=24   m=32   m=48   m=64   m=77   m=96
//	256   1024  direct     59     83    122    175    252    340    477
//	            full      333    338    327    323    319    354    358
//	256   1436  direct     84    141    177    263    398    519    695
//	            full      468    495    455    465    499    532    515
//	1024  1024  direct    299    383    551    703    904   1301   1587
//	            full     1504   1560   1594   1613   1596   1620   1516
//	1024  1436  direct    521    750    897   1506   1789   2342   2556
//	            full     2373   2478   2529   2484   2383   2471   2454
//
// Direct wins every cell to m = 48 by a third or more, not at m = 64,
// and is level with the full solver at K=256 from m = 77.
const directMaxMissing = 48

// partialMaxMissing bounds how many missing source rows the direct path
// takes on; above it Decode runs the full solver. K/8 keeps a block of
// 30 % loss on the full solver and small blocks, where the full solve
// is cheap and unmeasured, below the crossover; directMaxMissing caps
// it for large K.
func partialMaxMissing(k int) int {
	return max(1, min(k/8, directMaxMissing))
}

// sourceMatrixMaxK is the largest K whose source matrix is built and
// kept: L*K bytes, 75,776 at K=256 and 1.1 MB at K=1,024 (but 17 MB at
// 4,096). Larger blocks always take the full solver. The cache keeps
// every K it has built (see precodes for its worst case).
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

// decodeDirect recovers the m missing source symbols in the three steps
// above and writes each straight into its slot of the block, with no
// replay. It requires at least K symbols held (checked by decode).
// Everything it works in is reused scratch: in the steady state it
// allocates nothing.
//
//polyvet:noalloc steady-state direct partial decode over reused scratch
func (d *Decoder) decodeDirect(m int) error {
	k, t, sc := d.p.K, d.t, d.sc
	b, err := sourceMatrixFor(d.p)
	if err != nil {
		return err
	}
	// rows collects the product's w = K+m inputs, source symbol i for
	// column i and the n-th kept repair symbol for column K+n, and then
	// its m outputs.
	w := k + m
	rows := sized(sc.rowBuf, w+m)[:0]
	miss := sized(sc.missBuf, m)[:0]
	for i := 0; i < k; i++ {
		rows = append(rows, d.src(i))
		if !d.has(i) {
			miss = append(miss, uint32(i))
		}
	}
	sc.missBuf = miss

	// Step 1. Row n is [h_e | unit n], w bytes; red holds the kept rows in
	// echelon form on their missing columns, pivot their pivot columns.
	red := sized(sc.redBuf, m*w)
	pivot := sized(sc.pivotCol, m)
	kept := sized(sc.keptRep, m)[:0]
	cols := sc.ltScratch
	for _, rep := range d.rep {
		n := len(kept)
		v := red[n*w : (n+1)*w : (n+1)*w]
		cols = b.combine(v[:k], d.p, rep.esi, cols)
		clear(v[k:])
		v[k+n] = 1
		for q := 0; q < n; q++ {
			gf256.MulAddRow(v, red[q*w:(q+1)*w], v[pivot[q]])
		}
		j := 0
		for j < m && v[miss[j]] == 0 {
			j++
		}
		if j == m {
			continue
		}
		pivot[n] = int(miss[j])
		gf256.ScaleRow(v, gf256.Inv(v[pivot[n]]))
		kept = append(kept, rep)
		rows = append(rows, d.store.sym(rep.slot, t))
		if len(kept) == m {
			break
		}
	}
	sc.redBuf, sc.pivotCol, sc.keptRep, sc.ltScratch = red, pivot, kept, cols
	if len(kept) < m {
		sc.rowBuf = rows
		return ErrSingular
	}

	// Step 2. Last row first, clear each row's pivot column from the rows
	// above it.
	for n := m - 1; n > 0; n-- {
		vn := red[n*w : (n+1)*w]
		for q := 0; q < n; q++ {
			vq := red[q*w : (q+1)*w]
			gf256.MulAddRow(vq, vn, vq[pivot[n]])
		}
	}

	// Step 3. Row n is now D's row for missing source pivot[n], but for
	// the 1 in that source's own column. With it cleared, every missing
	// source's column is zero, and a repair symbol stands in for its row,
	// which is an output.
	for _, i := range miss {
		rows[i] = rows[k]
	}
	coef := sc.coefRows[:0]
	for n := range kept {
		v := red[n*w : (n+1)*w]
		v[pivot[n]] = 0
		dst := d.src(pivot[n])
		clear(dst)
		rows = append(rows, dst)
		coef = append(coef, v)
	}
	sc.rowBuf, sc.coefRows = rows, coef
	sc.mats = gf256.MulAddRows(rows[w:], rows[:w], coef, sc.mats)
	return nil
}
