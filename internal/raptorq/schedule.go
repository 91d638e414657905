package raptorq

import (
	"bytes"
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
// work. Every matrix solve in the codec is plan, prune, replay:
//
//   - the encoder's precode system depends only on K, so one schedule
//     per K serves every encode (precodeCache);
//   - a decoder's system depends on (K, received-ESI set), and on a
//     lossy fabric that set is new on every block, so a full decode
//     plans afresh each time — on planner scratch its Decoder (or its
//     ObjectDecoder worker) owns, at a fraction of the replay's cost —
//     and nothing is cached;
//   - the direct partial decode reduces the decode to an m x m system
//     over the m missing rows, its coefficients read off the source
//     matrix, which one replay of the precode schedule over unit
//     vectors computes once per K (sourceMatrixFor).

// schedOp is one recorded row operation over the replay slots.
type schedOp struct {
	dst, src int32
	kind     uint8
	beta     byte
}

// schedOp kinds.
const (
	opAdd    uint8 = iota // syms[dst] ^= syms[src]
	opMulAdd              // syms[dst] += beta * syms[src]
	opScale               // syms[dst] *= beta (src == dst)
)

// schedule is a replayable elimination: ops over nSlots row slots,
// and outSlot mapping each intermediate column to the slot that holds
// its value after replay. Slot layout follows the planner: binary row
// r is slot r, HDPC row j is slot (number of binary rows)+j, then the
// Horner scratch slot. A schedule is immutable after prune and safe
// for concurrent replay over distinct slot sets.
type schedule struct {
	nSlots  int
	ops     []schedOp
	outSlot []int32
}

// replay applies the recorded operations to the caller's slot symbols,
// all of them when keep is nil, else op i only where keep[i]. syms must
// have nSlots rows of one width (any width: the schedule is
// structure-only).
//
//polyvet:noalloc schedule replay is the steady-state codec solve: pure gf256 kernel calls over caller-provided slots
func (sc *schedule) replay(syms [][]byte, keep []bool) {
	for i, op := range sc.ops {
		if keep != nil && !keep[i] {
			continue
		}
		switch op.kind {
		case opAdd:
			gf256.AddRow(syms[op.dst], syms[op.src])
		case opMulAdd:
			gf256.MulAddRow(syms[op.dst], syms[op.src], op.beta)
		default:
			gf256.ScaleRow(syms[op.dst], op.beta)
		}
	}
}

// liveOps sets keep[i] for exactly the ops that can reach a slot marked
// in live, which it extends backwards to every slot they read. It leaves
// the schedule — shared by every decoder of its K — as it is.
//
//polyvet:noalloc liveness over reused scratch
func (sc *schedule) liveOps(live, keep []bool) {
	for i := len(sc.ops) - 1; i >= 0; i-- {
		op := sc.ops[i]
		keep[i] = live[op.dst]
		if keep[i] {
			live[op.src] = true
		}
	}
}

// prune drops operations that cannot influence any output slot: liveOps
// seeded from outSlot, over the caller's nSlots- and len(ops)-wide
// scratch. Every elimination is logged while planning, whether or not
// its row ever becomes a pivot or a Gauss-Jordan row —
// the HDPC rows absorb the whole Horner chain but only a handful reach
// an output — so this is where that work vanishes from the replay.
//
//polyvet:noalloc plan phase over reused scratch
func (sc *schedule) prune(live, keep []bool) {
	clear(live)
	for _, s := range sc.outSlot {
		live[s] = true
	}
	sc.liveOps(live, keep)
	out := sc.ops[:0]
	for i, op := range sc.ops {
		if keep[i] {
			out = append(out, op)
		}
	}
	sc.ops = out
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

var (
	precodeMu sync.Mutex
	// precodeCache holds one recorded precode elimination per K. The
	// precode system (S LDPC + H HDPC + K LT rows over L columns) is a
	// function of K alone, so the entry count is bounded by the number
	// of distinct block sizes the process touches — in practice one or
	// two.
	precodeCache = map[int]*schedule{}
	// sourceMatrixCache holds the source matrix of every K the direct
	// partial path has decoded, under precodeMu as well. Like
	// precodeCache it is never trimmed, and an entry is L*K bytes, so
	// the bound is the sum over the distinct K a process decodes: 6.7 MB
	// if it sees every K up to 256 (rqudp's default MaxBlockK), 389 MB
	// for every K up to sourceMatrixMaxK.
	sourceMatrixCache = map[int]*sourceMatrix{}
)

// precodeSchedule returns the precode elimination for p, planning and
// caching it on first use. Two goroutines racing on a cold K may both
// plan; the schedules are equivalent and either may win the cache slot.
func precodeSchedule(p Params) (*schedule, error) {
	precodeMu.Lock()
	sc := precodeCache[p.K]
	precodeMu.Unlock()
	if sc != nil {
		return sc, nil
	}
	planned, err := planPrecode(p)
	if err != nil {
		// The systematic index search guarantees an invertible precode,
		// so this is unreachable unless the cache was poisoned.
		return nil, err
	}
	precodeMu.Lock()
	precodeCache[p.K] = &planned
	precodeMu.Unlock()
	return &planned, nil
}

// planPrecode plans the L x L precode system of p: the constraint rows
// plus the LT rows of ESIs 0..K-1. The planner is the call's own, so
// the returned schedule keeps its slices for good.
func planPrecode(p Params) (schedule, error) {
	var pl planner
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

// sourceMatrixFor returns the source matrix of p, building and caching
// it on first use. Like precodeSchedule, two goroutines racing on a cold
// K may both build it; the matrices are equal and either may win.
//
//polyvet:noalloc per-block lookup on the direct decode path; the build is split out cold
func sourceMatrixFor(p Params) (*sourceMatrix, error) {
	precodeMu.Lock()
	b := sourceMatrixCache[p.K]
	precodeMu.Unlock()
	if b != nil {
		return b, nil
	}
	sched, err := precodeSchedule(p)
	if err != nil {
		return nil, err
	}
	b = buildSourceMatrix(p, sched)
	precodeMu.Lock()
	sourceMatrixCache[p.K] = b
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
	sched.replay(syms, nil)
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
