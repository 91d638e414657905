package raptorq

import (
	"errors"
	"fmt"
	"slices"

	"polyraptor/internal/gf256"
)

// ErrNeedMoreSymbols is returned by Decode when fewer than K encoding
// symbols have been received.
var ErrNeedMoreSymbols = errors.New("raptorq: need more symbols")

// Decoder reconstructs the K source symbols of one source block from
// any sufficiently large set of encoding symbols (source or repair, in
// any order, duplicates ignored).
//
// Typical usage:
//
//	d, _ := NewDecoder(k, symbolSize)
//	for sym := range arrivals {
//		d.AddSymbol(sym.ESI, sym.Data)
//		if d.Ready() {
//			if src, err := d.Decode(); err == nil { ... }
//		}
//	}
//
// Decode may be retried after adding more symbols if it fails with
// ErrSingular (probability ~1e-2 at zero overhead, falling roughly two
// decades per additional symbol). Retrying without a new symbol is
// answered from memory: the verdict belongs to the received set.
//
// Decoding is layered by how much work the received set actually
// requires:
//
//   - all K source symbols present: no matrix work at all;
//   - few missing sources (m <= partialMaxMissing): the partial-
//     systematic path back-substitutes repair equations against the
//     received sources and solves only an m x m system (see
//     partial.go);
//   - otherwise: the full inactivation decode — plan the elimination
//     over the received ESI set (solver.go), prune it, replay it over
//     the received symbols (schedule.go). A loss pattern is new on
//     every block, so nothing is remembered between blocks; the plan is
//     cheap enough not to need it.
//
// A Decoder can be reused for many blocks via Reset; in the steady
// state (same K, same symbol size, any loss pattern) the whole
// AddSymbol/Decode cycle allocates nothing.
type Decoder struct {
	p    Params
	t    int
	recv map[uint32][]byte
	// srcHave counts received symbols with esi < K (systematic fast path).
	srcHave int
	decoded [][]byte
	// singularAt is the received count at which Decode last found the
	// set rank-deficient; 0 when it has not.
	singularAt int

	// Intake arena: received symbols are copied into symBuf chunks
	// instead of one allocation each. The first chunk holds the block
	// (K symbols plus intakeSlack); whatever arrives beyond it starts a
	// chunk of twice the size, so after one warm round Reset reuses a
	// chunk big enough for everything and intake allocates nothing.
	// Grown chunks abandon (never copy) the old buffer — symbols already
	// handed to recv keep their old backing.
	symBuf []byte
	symOff int

	// Result storage: what a returned source symbol may alias besides
	// the intake arena.
	out    [][]byte
	outBuf []byte
	rhsBuf []byte

	// sc is the matrix paths' working memory: the Decoder's own, made
	// on first use, unless an ObjectDecoder lends its worker's.
	sc *solveScratch

	// Test hooks: force one decode path regardless of eligibility.
	// forcePartial also disables the fall-back to the full solver so
	// differential tests observe the partial path's own verdict.
	forceFull    bool
	forcePartial bool
}

// solveScratch is everything a matrix decode works in that its result
// does not alias, so one instance serves any number of blocks in turn
// (see partial.go for the partial-path pieces).
type solveScratch struct {
	plan      planner
	slots     slotArena // symbol-width replay slots
	lanes     slotArena // lane-width replay slots (partial path)
	esiBuf    []uint32
	rowBuf    [][]byte // the rows of the system being loaded into slots
	ltScratch []int32
	coefBuf   []byte
	eqRows    [][]byte
	eqSymRows [][]byte
	rowOfCol  []int
	missBuf   []uint32
}

// intakeSlack is how many symbols beyond K the first intake chunk
// holds: the overhead a receiver normally needs before a block decodes.
const intakeSlack = 4

// NewDecoder creates a decoder for a block of k source symbols of the
// given size.
func NewDecoder(k, symbolSize int) (*Decoder, error) {
	if symbolSize <= 0 {
		return nil, fmt.Errorf("raptorq: invalid symbol size %d", symbolSize)
	}
	p, err := NewParams(k)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		p:    p,
		t:    symbolSize,
		recv: make(map[uint32][]byte, k+2),
	}, nil
}

// Reset returns the decoder to its empty state for a new block with
// the same (K, symbol size), retaining every internal buffer — the
// steady-state path allocates nothing. All symbol slices previously
// returned by Decode or Source are invalidated.
func (d *Decoder) Reset() {
	clear(d.recv)
	d.srcHave = 0
	d.decoded = nil
	d.singularAt = 0
	d.symOff = 0
}

// K returns the number of source symbols in the block.
func (d *Decoder) K() int { return d.p.K }

// SymbolSize returns the symbol size in bytes.
func (d *Decoder) SymbolSize() int { return d.t }

// AddSymbol stores encoding symbol esi. It returns true if the symbol
// was new (not a duplicate). The data is copied — unless the block is
// already decoded: then only the ESI is remembered, so that a replay
// still reads as a duplicate, and the payload, which nothing will use,
// takes no intake memory.
func (d *Decoder) AddSymbol(esi uint32, data []byte) (bool, error) {
	if len(data) != d.t {
		return false, fmt.Errorf("raptorq: symbol size %d, want %d", len(data), d.t)
	}
	if _, dup := d.recv[esi]; dup {
		return false, nil
	}
	if d.decoded != nil {
		d.recv[esi] = nil
		return true, nil
	}
	d.recv[esi] = d.storeSym(data)
	if int(esi) < d.p.K {
		d.srcHave++
	}
	return true, nil
}

// storeSym copies data into the intake arena and returns the stable
// copy.
//
//polyvet:noalloc per-symbol intake; the chunk-grow path is split out cold
func (d *Decoder) storeSym(data []byte) []byte {
	if d.symOff+d.t > len(d.symBuf) {
		d.growSymBuf()
	}
	out := d.symBuf[d.symOff : d.symOff+d.t : d.symOff+d.t]
	d.symOff += d.t
	copy(out, data)
	return out
}

// growSymBuf starts a fresh intake chunk: the block-sized first one, or
// double the one that just filled. The old chunk is abandoned, not
// copied: symbols already stored keep referencing it.
//
//go:noinline
func (d *Decoder) growSymBuf() {
	n := 2 * len(d.symBuf)
	if n == 0 {
		n = (d.p.K + intakeSlack) * d.t
	}
	d.symBuf = make([]byte, n)
	d.symOff = 0
}

// Received returns the number of distinct encoding symbols held.
func (d *Decoder) Received() int { return len(d.recv) }

// SourceKnown returns how many source symbols arrived directly
// (esi < K) — these are available to the application immediately,
// which is the paper's zero-latency systematic path for lossless
// transfers.
func (d *Decoder) SourceKnown() int { return d.srcHave }

// Ready reports whether at least K distinct symbols are available, the
// minimum for a decode attempt.
func (d *Decoder) Ready() bool { return len(d.recv) >= d.p.K }

// Source returns the source symbol for esi if it was received directly
// or already decoded, else nil.
func (d *Decoder) Source(esi uint32) []byte {
	if d.decoded != nil {
		return d.decoded[esi]
	}
	if int(esi) < d.p.K {
		return d.recv[esi]
	}
	return nil
}

// Decode attempts to reconstruct all K source symbols. On success the
// result is cached and returned on subsequent calls (and invalidated
// by Reset). It returns ErrNeedMoreSymbols when fewer than K symbols
// are held and ErrSingular when the held set does not have full rank
// (add more symbols and retry; until one arrives the verdict is
// repeated without solving again).
func (d *Decoder) Decode() ([][]byte, error) {
	if d.decoded != nil {
		return d.decoded, nil
	}
	if d.singularAt == len(d.recv) {
		return nil, ErrSingular
	}
	k := d.p.K
	out := d.outSlice()
	if d.srcHave == k {
		// Pure systematic delivery: no matrix work at all.
		for i := 0; i < k; i++ {
			out[i] = d.recv[uint32(i)]
		}
		d.decoded = out
		return out, nil
	}
	if len(d.recv) < k {
		return nil, ErrNeedMoreSymbols
	}
	if d.sc == nil {
		d.sc = new(solveScratch)
	}
	m := k - d.srcHave
	partial := !d.forceFull && (d.forcePartial || m <= partialMaxMissing(k))
	var err error
	if partial {
		err = d.decodePartial(out, m)
	}
	// The partial path caps how many repair rows it considers, so it can
	// miss rank the full system still has: fall back on any failure.
	if !d.forcePartial && (!partial || err != nil) {
		err = d.decodeFull(out)
	}
	if err != nil {
		if errors.Is(err, ErrSingular) {
			d.singularAt = len(d.recv)
		}
		return nil, err
	}
	d.decoded = out
	return out, nil
}

// outSlice returns the reused K-wide result slice, cleared.
func (d *Decoder) outSlice() [][]byte {
	if cap(d.out) < d.p.K {
		d.out = make([][]byte, d.p.K)
	}
	d.out = d.out[:d.p.K]
	clear(d.out)
	return d.out
}

// sortedESIs collects the received ESIs in ascending order into the
// reused scratch slice.
func (d *Decoder) sortedESIs() []uint32 {
	esis := d.sc.esiBuf[:0]
	//polyvet:orderfree collection order is erased by the sort below
	for esi := range d.recv {
		esis = append(esis, esi)
	}
	slices.Sort(esis)
	d.sc.esiBuf = esis
	return esis
}

// decodeFull runs the full inactivation decode: plan the elimination
// of the received set, then replay it over the received symbols. Slot
// layout for the decode system: S LDPC rows (zero RHS), the received
// symbols in ascending-ESI order, H HDPC rows and the Horner scratch
// (zero RHS).
func (d *Decoder) decodeFull(out [][]byte) error {
	esis := d.sortedESIs()
	pl := &d.sc.plan
	pl.reset(d.p, len(esis))
	for _, esi := range esis {
		pl.addESI(esi)
	}
	sched, err := pl.plan()
	if err != nil {
		return err
	}
	rows := d.sc.rowBuf[:0]
	for _, esi := range esis {
		rows = append(rows, d.recv[esi])
	}
	d.sc.rowBuf = rows
	syms := d.sc.slots.load(sched.nSlots, d.t, d.p.S, rows)
	sched.replay(syms)
	d.fillFromSlots(out, syms, sched.outSlot)
	return nil
}

// fillFromSlots assembles the source symbols after a schedule replay:
// received sources come straight from the intake store, missing ones
// are regenerated by LT expansion over the intermediate slots into the
// reused output arena.
//
//polyvet:noalloc steady-state decode assembly over reused buffers
func (d *Decoder) fillFromSlots(out, syms [][]byte, outSlot []int32) {
	k := d.p.K
	buf := d.regenBuf(k - d.srcHave)
	off := 0
	scratch := d.sc.ltScratch
	for i := 0; i < k; i++ {
		if sym, ok := d.recv[uint32(i)]; ok {
			out[i] = sym
			continue
		}
		dst := buf[off : off+d.t : off+d.t]
		off += d.t
		scratch = d.p.AppendLTIndices(scratch[:0], uint32(i))
		for _, col := range scratch {
			gf256.AddRow(dst, syms[outSlot[col]])
		}
		out[i] = dst
	}
	d.sc.ltScratch = scratch
}

// regenBuf returns the reused backing store for m regenerated source
// symbols, zeroed. It grows to twice the need (m <= K bounds it), so the
// next, heavier loss on a reused decoder does not allocate again.
// noinline keeps the grow allocation out of annotated callers under the
// compiler-verified gate.
//
//go:noinline
func (d *Decoder) regenBuf(m int) []byte {
	need := m * d.t
	if cap(d.outBuf) < need {
		d.outBuf = make([]byte, min(2*need, d.p.K*d.t))
	}
	d.outBuf = d.outBuf[:need]
	clear(d.outBuf)
	return d.outBuf
}
