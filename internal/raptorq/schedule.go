package raptorq

import (
	"bytes"
	"slices"
	"sync"

	"polyraptor/internal/gf256"
)

// Elimination schedules: the structural part of a solve (pivot
// selection, inactivation, the dense Gauss-Jordan) depends only on
// which rows are present, never on the symbol bytes. The planner
// (solver.go) therefore works on structure alone and emits the exact
// sequence of GF(256) row operations that solves the system; replaying
// that sequence over a set of right-hand-side symbols performs the
// solve at pure-kernel speed, with zero allocation and zero structural
// work. Most of a solve is XOR: every peel elimination into a row and
// every back-substitution term of a pivot row. The planner emits each
// row's XOR terms as one group, its source slots laid out flat, and the
// replay sums a group into its row with one gf256.AddSlots call. Every
// matrix solve in the codec is plan, then replay:
//
//   - the encoder's precode system depends only on K, so one schedule
//     per K serves every encode (the per-K precode entry);
//   - a decoder's system depends on (K, received-ESI set), and on a
//     lossy fabric that set is new on every block, so a full decode
//     plans afresh each time — on planner scratch its Decoder (or its
//     ObjectDecoder worker) owns, at a fraction of the replay's cost —
//     and nothing is cached; the received source rows' LT columns come
//     from the precode entry, not from the tuple hash;
//   - the direct partial decode reduces the decode to an m x m system
//     over the m missing rows, its coefficients read off the source
//     matrix, which one replay of the precode schedule over unit
//     vectors computes once per K (sourceMatrixFor).
//
// A schedule is replayed whole. The few operations that reach no output
// (the rows of a decode's dense system beyond its rank) cost less to
// replay than a liveness pass costs to find.

// schedOp is one recorded row operation over the replay slots.
type schedOp struct {
	dst, src int32
	n        int32 // opXor: the number of source slots
	kind     uint8
	beta     byte
}

// schedOp kinds.
const (
	opXor    uint8 = iota // syms[dst] ^= the n slots terms[src:src+n]
	opAdd                 // syms[dst] ^= syms[src]
	opMulAdd              // syms[dst] += beta * syms[src]
	opScale               // syms[dst] *= beta (src == dst)
)

// schedule is a replayable elimination: ops over nSlots row slots,
// terms holding the source slots of its opXor groups, and outSlot
// mapping each intermediate column to the slot that holds its value
// after replay. Slot layout follows the planner: binary row r is slot
// r, HDPC row j is slot (number of binary rows)+j, then the Horner
// scratch slot. A schedule is immutable once planned and safe for
// concurrent replay over distinct slot sets.
type schedule struct {
	nSlots  int
	ops     []schedOp
	terms   []int32
	outSlot []int32
}

// replay applies the recorded operations to the slots of buf, slot i
// being the t bytes at i*t (any t: the schedule is structure-only).
//
//polyvet:noalloc schedule replay is the steady-state codec solve: pure gf256 kernel calls over caller-provided slots
func (sc *schedule) replay(buf []byte, t int) {
	for _, op := range sc.ops {
		dst := buf[int(op.dst)*t:][:t]
		switch op.kind {
		case opXor:
			gf256.AddSlots(dst, buf, t, sc.terms[op.src:][:op.n])
		case opAdd:
			gf256.AddRow(dst, buf[int(op.src)*t:][:t])
		case opMulAdd:
			gf256.MulAddRow(dst, buf[int(op.src)*t:][:t], op.beta)
		default:
			gf256.ScaleRow(dst, op.beta)
		}
	}
}

// slotArena owns the backing store for one set of replay slots. The
// buffer and the view headers are reused across calls, so steady-state
// codec work allocates nothing.
type slotArena struct {
	buf   []byte
	views [][]byte
}

// slots returns n reusable symbol views of width t. Contents are
// whatever the previous call left behind: callers must clear or
// overwrite every slot they rely on.
//
//polyvet:noalloc steady-state replay scratch; the grow path is split out cold
func (a *slotArena) slots(n, t int) [][]byte {
	if cap(a.buf) < n*t || cap(a.views) < n {
		a.grow(n, t)
	}
	a.buf = a.buf[:n*t]
	a.views = a.views[:n]
	for i := range a.views {
		a.views[i] = a.buf[i*t : (i+1)*t : (i+1)*t]
	}
	return a.views
}

// grow is the cold path of slots. noinline keeps its allocations out
// of the annotated caller under the compiler-verified gate.
//
//go:noinline
func (a *slotArena) grow(n, t int) {
	a.buf = make([]byte, n*t)
	a.views = make([][]byte, n)
}

// load returns n slots of width t set up as a system's right-hand
// sides: rows (nil is a zero row) in slots first, first+1, ..., zero in
// every other slot. Every replay starts here — the precode rows after
// the S zero LDPC slots, a decode's received rows likewise, zeros in
// the HDPC and scratch slots behind them.
//
//polyvet:noalloc steady-state replay set-up; the grow path is split out cold
func (a *slotArena) load(n, t, first int, rows [][]byte) [][]byte {
	if cap(a.buf) < n*t || cap(a.views) < n {
		a.growLoaded(n, t, first, rows)
		return a.views
	}
	syms := a.slots(n, t)
	for _, sym := range syms[:first] {
		clear(sym)
	}
	for i, row := range rows {
		if row == nil {
			clear(syms[first+i])
		} else {
			copy(syms[first+i], row)
		}
	}
	for _, sym := range syms[first+len(rows):] {
		clear(sym)
	}
	return syms
}

// growLoaded is the cold path of load: it allocates the arena already
// holding the system. bytes.Join fills new memory in one pass, where
// make followed by the copies above would write it twice — which shows
// wherever encoders are built in a loop and every arena is fresh pages.
//
//go:noinline
func (a *slotArena) growLoaded(n, t, first int, rows [][]byte) {
	zero := make([]byte, t)
	a.views = make([][]byte, n)
	for i := range a.views {
		a.views[i] = zero
	}
	for i, row := range rows {
		if row != nil {
			a.views[first+i] = row
		}
	}
	a.buf = bytes.Join(a.views, nil)
	for i := range a.views {
		a.views[i] = a.buf[i*t : (i+1)*t : (i+1)*t]
	}
}

// precode is everything the codec derives from K alone, planned on
// the first use of a K and shared by every encoder and decoder of it:
// the precode schedule, the LT columns of the K source ESIs (the
// schedule's source rows, kept so that no decode hashes them again) and,
// from the first direct decode of the K on, its source matrix. At K=256
// the schedule is 2,448 ops over 4,145 terms and the entry 73 kB before
// the matrix's 75,776 bytes; at K=1,024, 0.30 MB and 1.1 MB (the matrix
// is L*K bytes).
type precode struct {
	sched schedule
	// Source symbol i's LT columns are ltCols[ltStart[i]:ltStart[i+1]].
	ltStart, ltCols []int32
	matrix          *sourceMatrix // nil until sourceMatrixFor builds it
}

// lt returns the LT columns of source symbol i.
func (pc *precode) lt(i int) []int32 {
	return pc.ltCols[pc.ltStart[i]:pc.ltStart[i+1]]
}

var (
	precodeMu sync.Mutex
	// precodes holds one entry per K, never trimmed, so the bound is the
	// sum over the distinct K a process touches: every K up to 256
	// (rqudp's default MaxBlockK) costs 10 MB, and 6.7 MB more if each
	// also built its source matrix; every K up to sourceMatrixMaxK
	// 150 MB and 390 MB.
	precodes = map[int]*precode{}
)

// precodeFor returns the per-K entry of p, planning the precode and
// caching it on first use. Two goroutines racing on a cold K may both
// plan; the entries are equivalent and either may win the cache slot.
//
//polyvet:noalloc per-block lookup; the plan is split out cold
func precodeFor(p Params) (*precode, error) {
	precodeMu.Lock()
	pc := precodes[p.K]
	precodeMu.Unlock()
	if pc != nil {
		return pc, nil
	}
	return planPrecodeEntry(p)
}

// planPrecodeEntry is the cold path of precodeFor. noinline keeps its
// allocations out of the annotated caller.
//
//go:noinline
func planPrecodeEntry(p Params) (*precode, error) {
	var pl planner
	sched, err := planPrecode(&pl, p)
	if err != nil {
		// The systematic index search guarantees an invertible precode,
		// so this is unreachable unless the cache was poisoned.
		return nil, err
	}
	// The planner is this call's own: the entry keeps copies of its
	// slices trimmed to length, which is a third of their capacity.
	sched.ops, sched.terms, sched.outSlot = slices.Clone(sched.ops), slices.Clone(sched.terms), slices.Clone(sched.outSlot)
	pc := &precode{sched: sched, ltStart: slices.Clone(pl.rowStart[p.S:]), ltCols: slices.Clone(pl.rowCols)}
	precodeMu.Lock()
	precodes[p.K] = pc
	precodeMu.Unlock()
	return pc, nil
}

// planPrecode plans the L x L precode system of p on pl: the constraint
// rows plus the LT rows of ESIs 0..K-1.
func planPrecode(pl *planner, p Params) (schedule, error) {
	pl.reset(p, p.K)
	for i := 0; i < p.K; i++ {
		pl.addESI(uint32(i))
	}
	return pl.plan()
}

// sourceMatrix is the precode written as a matrix: intermediate symbol
// col is sum_i rows[col*K+i] * source_i, so the L rows of K bytes are
// the L x K matrix B with C = B*s (partial.go). It is immutable once
// built, and every decoder of its K reads it.
type sourceMatrix struct {
	k    int
	rows []byte
}

// sourceMatrixFor returns the source matrix of p, building it into the
// per-K entry on first use. Two goroutines racing on a cold K may both
// build it; the matrices are equal and either may win.
//
//polyvet:noalloc per-block lookup on the direct decode path; the build is split out cold
func sourceMatrixFor(p Params) (*sourceMatrix, error) {
	pc, err := precodeFor(p)
	if err != nil {
		return nil, err
	}
	precodeMu.Lock()
	b := pc.matrix
	precodeMu.Unlock()
	if b != nil {
		return b, nil
	}
	b = buildSourceMatrix(p, &pc.sched)
	precodeMu.Lock()
	pc.matrix = b
	precodeMu.Unlock()
	return b, nil
}

// buildSourceMatrix replays the precode schedule once with the unit
// vector e_i, K bytes wide, in the slot of source row i: by linearity
// the slot of intermediate column col then holds row col of B. It is
// the cold path of sourceMatrixFor, so noinline keeps its allocations
// out of the annotated caller.
//
//go:noinline
func buildSourceMatrix(p Params, sched *schedule) *sourceMatrix {
	k := p.K
	var a slotArena
	syms := a.load(sched.nSlots, k, p.S, nil)
	for i := 0; i < k; i++ {
		syms[p.S+i][i] = 1
	}
	sched.replay(a.buf, k)
	b := &sourceMatrix{k: k, rows: make([]byte, len(sched.outSlot)*k)}
	for col, slot := range sched.outSlot {
		copy(b.rows[col*k:], syms[slot])
	}
	return b
}

// combine sets dst (K bytes) to h_e, the source coefficients of encoding
// symbol esi: the sum of the rows of B at its LT and PI columns. cols is
// scratch for those columns, returned for reuse.
//
//polyvet:noalloc direct partial decode: one coefficient row per repair symbol over reused scratch
func (b *sourceMatrix) combine(dst []byte, p Params, esi uint32, cols []int32) []int32 {
	clear(dst)
	cols = p.AppendLTIndices(cols[:0], esi)
	for _, col := range cols {
		gf256.AddRow(dst, b.rows[int(col)*b.k:int(col+1)*b.k])
	}
	return cols
}
