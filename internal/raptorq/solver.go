package raptorq

import (
	"errors"
	"math/bits"

	"polyraptor/internal/gf256"
)

// ErrSingular is returned when the received equations do not determine
// the intermediate symbols — the decoder needs more symbols.
var ErrSingular = errors.New("raptorq: equation system is singular")

// The planner performs sparse Gaussian elimination with column
// inactivation (the workhorse of RaptorQ decoding, RFC 6330 §5.4.2) on
// the *structure* of the system alone. Which row operations solve a
// system depends only on which rows are present, never on the symbol
// bytes, so the planner never sees a symbol: it emits the sequence of
// GF(256) row operations as a schedule (schedule.go), each row's XOR
// terms as one group, and the caller replays that over the right-hand
// sides. One planner serves every
// solve of the codec — a decode over a received ESI set, the per-K
// precode schedule, and the rank verdict of the systematic-index
// search.
//
//  1. Peel: repeatedly pick a binary row whose active-column degree is
//     one; that (row, column) pair becomes a pivot. Because the pivot
//     row has a single active column, eliminating it from other rows
//     adds no active fill-in — only the pivot's inactive references and
//     its right-hand-side symbol propagate.
//  2. When no degree-one row exists, the highest-degree active column
//     is *inactivated*: removed from the active structure and deferred
//     to a small dense system.
//  3. The dense system over the u inactivated columns is assembled from
//     the leftover binary rows and the HDPC rows (with pivoted columns
//     substituted out) and solved by Gauss-Jordan over GF(256).
//  4. Back-substitution through the pivot list yields every
//     intermediate symbol.
//
// Storage is flat and reused from plan to plan, so a warmed planner
// allocates nothing. A binary row is a degree counter plus the XOR of
// its active columns (at degree one that XOR *is* the remaining
// column); its inactive part is a ceil(u/64)-word bitset carved from one
// word arena, so eliminating a pivot is a few word XORs. The bitsets
// are filled in a second walk over the finished pivot order, once u is
// known: every column leaves all its rows at once, XOR commutes, and a
// pivot row's inactive set is final when it pivots, so the second walk
// reproduces exactly what tracking the sets during peeling would.
//
// The same two walks group the peel's symbol operations. A pivot row
// receives no elimination once it pivots, so the rows eliminated into
// row r are exactly the other pivot rows whose column r holds, each
// final when it is read as long as the pivot rows are summed in pivot
// order and the rest after them. Peel counts each row's terms, a prefix
// sum over that order places them, and the second walk, in pivot order,
// fills them in: one group per row, flat, with no per-row lists.
//
// Schedule slots: binary row r is slot r (the S LDPC rows first, then
// the caller's rows in the order added), HDPC row j is slot nBin+j, and
// one more slot holds the Horner chain's running sum.
type planner struct {
	p Params

	// Binary rows, flat: row r's columns are rowCols[rowStart[r]:
	// rowStart[r+1]]. The first p.S rows are the LDPC constraints, laid
	// down when the planner is keyed to p; reset truncates back to them.
	rowStart []int32
	rowCols  []int32
	// picks[c] are the two HDPC rows MT selects for Gamma-region column
	// c (see addConstraintRows).
	picks [][2]int32

	// colRows[colStart[c]:colStart[c+1]] lists the binary rows holding
	// column c, ascending. Rows never regain a column and a column
	// leaves every row at once (pivot elimination or inactivation), so
	// the lists are exact for every alive column without maintenance,
	// and a column's degree never changes while it is alive: byDegree,
	// sorted once per plan, is the inactivation order.
	colStart []int32
	colRows  []int32
	byDegree []int32
	// count: counting-sort and list-fill cursors, then from peel on each
	// binary row's peel terms (see fillInact).
	count []int32

	deg     []int32 // per row: active-column count
	colXor  []int32 // per row: XOR of the active columns
	isPivot []bool
	queue   []int32 // candidate degree-one rows (validated lazily)

	colState []uint8
	colRef   []int32 // pivoted column: its pivot row; inactive: its ordinal
	pivots   []pivot
	inactive []int32

	words   int      // bitset width: ceil(u/64)
	inact   []uint64 // nBin bitsets over the inactive ordinals
	coef    []byte   // dense coefficient rows, u bytes each
	eq      [][]byte
	eqSlot  []int32
	ops     []schedOp
	terms   []int32
	outSlot []int32

	plans int // plan calls, for tests
}

// Column lifecycle inside a plan.
const (
	colAlive = iota
	colPivoted
	colInactive
)

type pivot struct {
	row, col int32
}

// maxRowCols bounds an LT row: the largest degree plus at most three PI
// columns (tuple.go).
const maxRowCols = len(degCum) - 1 + 3

// reserved returns s with room for extra more elements. It is the cold
// half of every scratch buffer — noinline keeps its allocation out of
// the annotated callers under the compiler-verified gate — and grows
// to twice the need: the sizes that depend on the loss mask vary by
// tens of per cent from block to block, so a warmed planner never
// comes back here.
//
//go:noinline
func reserved[T any](s []T, extra int) []T {
	if cap(s)-len(s) >= extra {
		return s
	}
	grown := make([]T, len(s), 2*(len(s)+extra))
	copy(grown, s)
	return grown
}

// sized returns s with length n and unspecified contents.
func sized[T any](s []T, n int) []T {
	return reserved(s[:0], n)[:n]
}

// reset empties the planner down to the constraint rows of p, with
// room for rows more, re-keying it (the only step that allocates once
// warm) when p differs from the last block's.
func (pl *planner) reset(p Params, rows int) {
	if pl.p != p {
		pl.p = p
		pl.rowStart = append(pl.rowStart[:0], 0)
		pl.rowCols = pl.rowCols[:0]
		addConstraintRows(pl, p)
	}
	pl.rowStart = reserved(pl.rowStart[:p.S+1], rows)
	pl.rowCols = reserved(pl.rowCols[:pl.rowStart[p.S]], rows*maxRowCols)
}

// addRow adds the binary equation XOR(cols) = (that row's slot). cols
// must be distinct.
func (pl *planner) addRow(cols []int32) {
	pl.rowCols = append(pl.rowCols, cols...)
	pl.rowStart = append(pl.rowStart, int32(len(pl.rowCols)))
}

// addESI adds the LT row of encoding symbol esi.
//
//polyvet:noalloc one row per received symbol, expanded straight into the flat row store
func (pl *planner) addESI(esi uint32) {
	pl.rowCols = pl.p.AppendLTIndices(pl.rowCols, esi)
	pl.rowStart = append(pl.rowStart, int32(len(pl.rowCols)))
}

// rowsOf returns the binary rows holding column c.
func (pl *planner) rowsOf(c int32) []int32 {
	return pl.colRows[pl.colStart[c]:pl.colStart[c+1]]
}

// inactOf returns row r's inactive bitset.
func (pl *planner) inactOf(r int32) []uint64 {
	return pl.inact[int(r)*pl.words:][:pl.words]
}

// xorBits adds the 0/1 byte expansion of bitset b into dst.
//
//polyvet:noalloc dense-phase coefficient assembly
func xorBits(dst []byte, b []uint64) {
	for w, x := range b {
		for ; x != 0; x &= x - 1 {
			dst[w<<6+bits.TrailingZeros64(x)] ^= 1
		}
	}
}

// plan eliminates the rows added since reset and returns the
// schedule, or ErrSingular. The schedule's slices are the planner's
// own and stay valid until its next plan.
func (pl *planner) plan() (schedule, error) {
	pl.plans++
	pl.index()
	pl.peel()
	pl.fillInact()
	pl.assembleDense()
	if !pl.gaussJordan() {
		return schedule{}, ErrSingular
	}
	pl.backSubstitute()
	return schedule{nSlots: len(pl.rowStart) + pl.p.H, ops: pl.ops, terms: pl.terms, outSlot: pl.outSlot}, nil
}

// index builds the per-column row lists, the per-row degree state and
// the inactivation order.
//
//polyvet:noalloc plan phase over reused scratch
func (pl *planner) index() {
	l, nBin := pl.p.L, len(pl.rowStart)-1
	colStart := sized(pl.colStart, l+1)
	clear(colStart)
	for _, c := range pl.rowCols {
		colStart[c+1]++
	}
	// Inactivation order: degree descending, column ascending — a
	// counting sort. count[d] first holds how many columns have degree
	// d, then where the next such column goes.
	count := sized(pl.count, max(l, nBin+1))
	clear(count)
	for c := 0; c < l; c++ {
		count[colStart[c+1]]++
	}
	at := int32(0)
	for d := nBin; d >= 0; d-- {
		at, count[d] = at+count[d], at
	}
	byDegree := sized(pl.byDegree, l)
	for c := 0; c < l; c++ {
		d := colStart[c+1]
		byDegree[count[d]] = int32(c)
		count[d]++
	}
	for c := 0; c < l; c++ {
		colStart[c+1] += colStart[c]
	}
	copy(count, colStart[:l]) // now each list's fill cursor
	colRows := sized(pl.colRows, len(pl.rowCols))
	deg, colXor := sized(pl.deg, nBin), sized(pl.colXor, nBin)
	for r := 0; r < nBin; r++ {
		cols := pl.rowCols[pl.rowStart[r]:pl.rowStart[r+1]]
		x := int32(0)
		for _, c := range cols {
			colRows[count[c]] = int32(r)
			count[c]++
			x ^= c
		}
		deg[r], colXor[r] = int32(len(cols)), x
	}
	pl.colStart, pl.count, pl.byDegree, pl.colRows, pl.deg, pl.colXor = colStart, count, byDegree, colRows, deg, colXor
}

// peel runs steps 1 and 2 until every column is pivoted or inactive,
// counting in count the pivot rows eliminated into each row.
//
//polyvet:noalloc plan phase over reused scratch
func (pl *planner) peel() {
	l, nBin := pl.p.L, len(pl.rowStart)-1
	deg, colXor := pl.deg, pl.colXor
	isPivot := sized(pl.isPivot, nBin)
	clear(isPivot)
	colState, colRef := sized(pl.colState, l), sized(pl.colRef, l)
	clear(colState)
	// Every row queues at most once, every column ends up in exactly one
	// of pivots and inactive, and every (row, column) entry is eliminated
	// at most once.
	queue, pivots, inactive := reserved(pl.queue[:0], nBin), reserved(pl.pivots[:0], l), reserved(pl.inactive[:0], l)
	terms := pl.count[:nBin]
	clear(terms)
	for r, d := range deg {
		if d == 1 {
			queue = append(queue, int32(r))
		}
	}
	next := 0 // cursor into byDegree
	for alive := l; alive > 0; alive-- {
		rid := int32(-1)
		for len(queue) > 0 && rid < 0 {
			if cand := queue[len(queue)-1]; deg[cand] == 1 {
				rid = cand
			}
			queue = queue[:len(queue)-1]
		}
		if rid >= 0 {
			// Eliminate the row's one active column from every other row
			// holding it. The pivot row has no other active column, so no
			// fill-in occurs.
			c := colXor[rid]
			for _, o := range pl.rowsOf(c) {
				if o == rid {
					continue
				}
				deg[o]--
				colXor[o] ^= c
				terms[o]++
				if deg[o] == 1 {
					queue = append(queue, o)
				}
			}
			deg[rid] = 0
			isPivot[rid] = true
			colState[c], colRef[c] = colPivoted, rid
			pivots = append(pivots, pivot{rid, c})
			continue
		}
		// No degree-one row: inactivate the alive column with the most
		// row references, which maximises degree reduction elsewhere.
		// Alive columns with no references at all (only reachable via
		// HDPC rows) are inactivated too, so the dense phase determines
		// them.
		for colState[pl.byDegree[next]] != colAlive {
			next++
		}
		best := pl.byDegree[next]
		for _, o := range pl.rowsOf(best) {
			deg[o]--
			colXor[o] ^= best
			if deg[o] == 1 {
				queue = append(queue, o)
			}
		}
		colState[best], colRef[best] = colInactive, int32(len(inactive))
		inactive = append(inactive, best)
	}
	pl.isPivot, pl.colState, pl.colRef = isPivot, colState, colRef
	pl.queue, pl.pivots, pl.inactive = queue, pivots, inactive
}

// fillInact computes every binary row's inactive bitset: the inactive
// columns the row holds, plus the set of each pivot row eliminated from
// it, in pivot order. The same walk lays out the peel groups and emits
// one opXor per row that has terms and is read afterwards: every pivot
// row, in pivot order, then every other row left with an inactive
// column, since a row without one drops out of the dense system.
//
//polyvet:noalloc plan phase over reused scratch
func (pl *planner) fillInact() {
	nBin := len(pl.rowStart) - 1
	pl.words = (len(pl.inactive) + 63) / 64
	pl.inact = sized(pl.inact, nBin*pl.words)
	clear(pl.inact)
	for i, c := range pl.inactive {
		for _, o := range pl.rowsOf(c) {
			pl.inactOf(o)[i>>6] |= 1 << (i & 63)
		}
	}
	// at[r]: row r's term count from peel, then where its next term goes,
	// and after the walk the end of its group.
	at, n := pl.count[:nBin], int32(0)
	for _, pv := range pl.pivots {
		n, at[pv.row] = n+at[pv.row], n
	}
	for r := range at {
		if !pl.isPivot[r] {
			n, at[r] = n+at[r], n
		}
	}
	terms := sized(pl.terms, int(n))
	for _, pv := range pl.pivots {
		src := pl.inactOf(pv.row)
		for _, o := range pl.rowsOf(pv.col) {
			if o == pv.row {
				continue
			}
			terms[at[o]] = pv.row
			at[o]++
			for w, x := range src {
				pl.inact[int(o)*pl.words+w] ^= x
			}
		}
	}
	ops, start := reserved(pl.ops[:0], nBin), int32(0)
	for _, pv := range pl.pivots {
		if end := at[pv.row]; end > start {
			ops = append(ops, schedOp{dst: pv.row, src: start, n: end - start, kind: opXor})
			start = end
		}
	}
	for r, end := range at {
		if !pl.isPivot[r] && end > start {
			if !wordsZero(pl.inactOf(int32(r))) {
				ops = append(ops, schedOp{dst: int32(r), src: start, n: end - start, kind: opXor})
			}
			start = end
		}
	}
	pl.terms, pl.ops = terms, ops
}

// assembleDense builds the dense system over the u inactive columns —
// the leftover binary rows, then the H HDPC rows with every pivoted
// column substituted out — as u-byte coefficient rows in eq, each
// tagged with its schedule slot in eqSlot.
//
// The HDPC rows are never materialised over L columns. With y_c the
// value of Gamma-region column c — the unknown itself when c is
// inactive, the pivot row's symbol plus its inactive set when c is
// pivoted — HDPC row r owes
//
//	sum_c coeff_r[c] * y_c  =  sum_{j : MT[r][j]=1} Q_j,
//	Q_j = sum_{c <= j} alpha^(j-c) * y_c,
//
// because coeff_r[c] = sum_{j >= c, MT[r][j]=1} alpha^(j-c). Q_j obeys
// Q_j = alpha*Q_{j-1} + y_j, so one column-ascending walk with a single
// running sum Q — scale by alpha, add y_c, XOR Q into the two picked
// rows — performs the whole substitution in O(L) cheap row operations
// instead of O(H * pivots) dense multiply-accumulates. The walk runs
// twice in lockstep: directly over the u-byte coefficient lanes, and as
// logged operations for the symbols, where Q lives in the last schedule
// slot (replays zero it along with the other non-source slots) and the
// operations before the first pivoted column, while Q is still zero,
// are dropped.
//
//polyvet:noalloc plan phase over reused scratch
func (pl *planner) assembleDense() {
	l, h, nBin := pl.p.L, pl.p.H, int32(len(pl.rowStart)-1)
	// Rows are u coefficients zero-padded to whole 32-byte vectors, so
	// the row kernels never fall into their byte-tail paths.
	u := (len(pl.inactive) + 31) &^ 31
	nEq := int(nBin) - len(pl.pivots) + h // at most: rows that cancelled drop out
	ops := reserved(pl.ops, 4*(l-h)+h)
	pl.coef = sized(pl.coef, (nEq+1)*u)
	clear(pl.coef)
	coef := pl.coef
	eq, eqSlot := reserved(pl.eq[:0], nEq), reserved(pl.eqSlot[:0], nEq)
	for r := int32(0); r < nBin; r++ {
		b := pl.inactOf(r)
		if pl.isPivot[r] || wordsZero(b) {
			continue
		}
		xorBits(coef[:u], b)
		eq, eqSlot = append(eq, coef[:u:u]), append(eqSlot, r)
		coef = coef[u:]
	}
	nLeft := len(eq)
	for r := int32(0); r < int32(h); r++ {
		eq, eqSlot = append(eq, coef[:u:u]), append(eqSlot, nBin+r)
		coef = coef[u:]
	}
	hdpc, q, qSlot := eq[nLeft:], coef[:u], nBin+int32(h)
	started := false // the symbol chain's Q is non-zero
	for c := 0; c < l-h; c++ {
		gf256.ScaleRow(q, 2)
		if started {
			ops = append(ops, schedOp{dst: qSlot, src: qSlot, kind: opScale, beta: 2})
		}
		if pl.colState[c] == colInactive {
			q[pl.colRef[c]] ^= 1
		} else {
			xorBits(q, pl.inactOf(pl.colRef[c]))
			ops = append(ops, schedOp{dst: qSlot, src: pl.colRef[c], kind: opAdd})
			started = true
		}
		for _, r := range pl.picks[c] {
			gf256.AddRow(hdpc[r], q)
			if started {
				ops = append(ops, schedOp{dst: nBin + r, src: qSlot, kind: opAdd})
			}
		}
	}
	// Identity region: HDPC row r holds column L-H+r with coefficient 1.
	for r := int32(0); r < int32(h); r++ {
		c := l - h + int(r)
		if pl.colState[c] == colInactive {
			hdpc[r][pl.colRef[c]] ^= 1
		} else {
			xorBits(hdpc[r], pl.inactOf(pl.colRef[c]))
			ops = append(ops, schedOp{dst: nBin + r, src: pl.colRef[c], kind: opAdd})
		}
	}
	pl.eq, pl.eqSlot, pl.ops = eq, eqSlot, ops
}

// wordsZero reports whether bitset b is empty.
func wordsZero(b []uint64) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// gaussJordan reduces the dense system to the identity, logging the
// symbol operations, and reports whether it has full rank. Row i ends
// up holding unknown i (the i-th inactivated column); eqSlot is
// permuted alongside so logged operations stay addressed to stable
// slots.
//
//polyvet:noalloc plan phase over reused scratch
func (pl *planner) gaussJordan() bool {
	eq, eqSlot, u := pl.eq, pl.eqSlot, len(pl.inactive)
	if len(eq) < u {
		return false
	}
	pl.ops = reserved(pl.ops, u*len(eq))
	for col := 0; col < u; col++ {
		sel := col
		for sel < len(eq) && eq[sel][col] == 0 {
			sel++
		}
		if sel == len(eq) {
			return false
		}
		eq[col], eq[sel] = eq[sel], eq[col]
		eqSlot[col], eqSlot[sel] = eqSlot[sel], eqSlot[col]
		if pc := eq[col][col]; pc != 1 {
			inv := gf256.Inv(pc)
			gf256.ScaleRow(eq[col], inv)
			pl.ops = append(pl.ops, schedOp{dst: eqSlot[col], src: eqSlot[col], kind: opScale, beta: inv})
		}
		for r := range eq {
			if beta := eq[r][col]; r != col && beta != 0 {
				gf256.MulAddRow(eq[r], eq[col], beta)
				pl.ops = append(pl.ops, schedOp{dst: eqSlot[r], src: eqSlot[col], kind: opMulAdd, beta: beta})
			}
		}
	}
	return true
}

// backSubstitute completes each pivot row with the solved inactive
// columns it references, one opXor per row, and records which slot
// holds every column. Pivot equations reference only inactive columns,
// so their order is irrelevant.
//
//polyvet:noalloc plan phase over reused scratch
func (pl *planner) backSubstitute() {
	n := 0
	for _, pv := range pl.pivots {
		for _, x := range pl.inactOf(pv.row) {
			n += bits.OnesCount64(x)
		}
	}
	ops, terms, eqSlot := reserved(pl.ops, len(pl.pivots)), reserved(pl.terms, n), pl.eqSlot
	outSlot := sized(pl.outSlot, pl.p.L)
	for i, c := range pl.inactive {
		outSlot[c] = eqSlot[i]
	}
	for _, pv := range pl.pivots {
		start := int32(len(terms))
		for w, x := range pl.inactOf(pv.row) {
			for ; x != 0; x &= x - 1 {
				terms = append(terms, eqSlot[w<<6+bits.TrailingZeros64(x)])
			}
		}
		if end := int32(len(terms)); end > start {
			ops = append(ops, schedOp{dst: pv.row, src: start, n: end - start, kind: opXor})
		}
		outSlot[pv.col] = pv.row
	}
	pl.ops, pl.terms, pl.outSlot = ops, terms, outSlot
}
