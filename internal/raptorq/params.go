// Package raptorq implements a systematic, rateless erasure code with
// the architecture of RaptorQ (RFC 6330): K source symbols are mapped
// to L = K + S + H intermediate symbols constrained by S sparse binary
// LDPC rows and H dense GF(256) HDPC rows; encoding symbols (source and
// repair) are LT combinations of the intermediates, so the code is
// systematic (encoding symbol ESI < K is exactly source symbol ESI) and
// rateless (any number of repair symbols can be generated). Decoding
// uses sparse Gaussian elimination with column inactivation.
//
// Conformance: a RaptorQ-architecture code whose symbols do not
// interoperate with RFC 6330's, by necessity of an offline build: the RFC's
// large numeric lookup tables (systematic indices Table 2, Rand tables
// V0..V3) are replaced by algorithmically derived equivalents — the
// S/H parameter derivation follows the published Raptor derivation
// (RFC 5053 §5.4.2.3) and the systematic index is discovered by a
// deterministic rank search shared by encoder and decoder. The
// decisive properties (systematic output, statistically unique repair
// symbols, decode failure probability decaying ~two decades per symbol
// of overhead) are enforced by the test suite. See README.md
// "PolyCodec" and EXPERIMENTS.md "Decode-overhead model".
package raptorq

import (
	"fmt"
	"sync"
)

// MaxK is the largest supported number of source symbols per block,
// mirroring RFC 6330's limit of 56403.
const MaxK = 56403

// Params holds the derived code parameters for a source block of K
// source symbols.
//
// The L = K + S + H intermediate symbols are split into W "LT" columns
// [0, W) and P = L - W "permanently inactive" (PI) columns [W, L), with
// the H HDPC symbols occupying the last H PI columns (RFC 6330
// §5.3.3.3). Every encoding symbol combines an LT walk over the W
// columns with a short PI walk over the P columns; the PI part is what
// collapses the probability of low-weight dependencies (duplicate
// tuples, degree-2 cycles) and gives the code its steep failure curve.
type Params struct {
	// K is the number of source symbols.
	K int
	// S is the number of LDPC (sparse binary) constraint symbols.
	// S is prime.
	S int
	// H is the number of HDPC (dense GF(256)) constraint symbols.
	H int
	// L = K + S + H is the number of intermediate symbols.
	L int
	// W is the number of LT intermediate columns; B = W - S of them are
	// free and S carry the LDPC identities.
	W int
	// Wp is the smallest prime >= W (LT walk modulus).
	Wp int
	// P = L - W is the number of permanently inactive columns.
	P int
	// Pp is the smallest prime >= P (PI walk modulus).
	Pp int
	// SIdx is the systematic index: the smallest seed for which the
	// precode constraint matrix is invertible. It is derived from K
	// alone, so encoder and decoder always agree.
	SIdx int
}

// B returns the number of free LT intermediate columns (W - S).
func (p Params) B() int { return p.W - p.S }

// NewParams derives code parameters for K source symbols. The
// systematic index search runs at most a handful of structure-only
// eliminations and is cached per K.
func NewParams(k int) (Params, error) {
	if k < 1 || k > MaxK {
		return Params{}, fmt.Errorf("raptorq: K=%d out of range [1,%d]", k, MaxK)
	}
	p := baseParams(k)
	sidx, err := systematicIndex(p)
	if err != nil {
		return Params{}, err
	}
	p.SIdx = sidx
	return p, nil
}

// baseParams computes everything except the systematic index.
func baseParams(k int) Params {
	// X is the smallest positive integer with X*(X-1) >= 2K
	// (RFC 5053 §5.4.2.3).
	x := 1
	for x*(x-1) < 2*k {
		x++
	}
	// S is the smallest prime >= ceil(K/100) + X.
	s := nextPrime(ceilDiv(k, 100) + x)
	// H is the smallest integer with choose(H, ceil(H/2)) >= K + S.
	h := 1
	for choose(h, (h+1)/2) < int64(k+s) {
		h++
	}
	l := k + s + h
	// PI region: the H HDPC symbols plus a few extra columns. Extra PI
	// columns sharpen the failure curve; they are capped so that at
	// least one free LT column remains (B = W - S >= 1, i.e.
	// P <= K + H - 1).
	extra := 2 + ceilDiv(k, 100)
	if extra > 16 {
		extra = 16
	}
	p := h + extra
	if p > k+h-1 {
		p = k + h - 1
	}
	if p < h {
		p = h
	}
	w := l - p
	return Params{
		K: k, S: s, H: h, L: l,
		W: w, Wp: nextPrime(w),
		P: p, Pp: nextPrime(p),
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

func nextPrime(n int) int {
	for !isPrime(n) {
		n++
	}
	return n
}

// choose returns C(n, k), saturating at a value comfortably above any
// K + S this package can produce.
func choose(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
		if c > 1<<40 {
			return 1 << 40
		}
	}
	return c
}

var (
	sidxMu    sync.Mutex
	sidxCache = map[int]int{}
)

// systematicIndex finds the smallest seed j such that the precode
// matrix for (p, j) has full rank, by planning its elimination (which
// touches no symbol). The search is deterministic, so encoder and
// decoder derive identical parameters from K alone.
func systematicIndex(p Params) (int, error) {
	sidxMu.Lock()
	if j, ok := sidxCache[p.K]; ok {
		sidxMu.Unlock()
		return j, nil
	}
	sidxMu.Unlock()
	for j := 0; j < 64; j++ {
		cand := p
		cand.SIdx = j
		if precodeRankOK(cand) {
			sidxMu.Lock()
			sidxCache[p.K] = j
			sidxMu.Unlock()
			return j, nil
		}
	}
	return 0, fmt.Errorf("raptorq: no systematic index found for K=%d", p.K)
}

// precodeRankOK reports whether the L x L precode constraint matrix
// (S LDPC rows, H HDPC rows, K LT rows for ESIs 0..K-1) is invertible.
// The planner works on structure alone, so the verdict costs no symbol
// work; the schedule that comes with it is dropped.
func precodeRankOK(p Params) bool {
	_, err := planPrecode(p)
	return err == nil
}
