package raptorq

import (
	"cmp"
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
// A source symbol's home is its place in the result: the block is one
// buffer of K symbols, AddSymbol copies source symbol i straight to slot
// i of it, and every decode layer writes what is missing into the slots
// still empty. What Decode and Source return are views of that buffer —
// no symbol is copied a second time — and they stay valid, and
// unchanged, until Reset: once the block has decoded, nothing that
// arrives is written anywhere. Repair symbols wait in a side store
// until the decode that uses them.
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
	p Params
	t int

	// home is the block: source symbol i at home[i*t:]. It is the
	// decoder's own, or an ObjectDecoder's window of its object. Bit i of
	// have is set once source symbol i has been seen: until the block
	// decodes that means slot i holds it; afterwards arrivals are
	// remembered, not stored.
	home    []byte
	have    []uint64
	srcHave int

	// rep lists the repair symbols seen, ascending by ESI; their payloads
	// are in store, the decoder's own or the one its ObjectDecoder's
	// blocks share.
	rep   []repairRef
	store *repairStore

	decoded bool
	// singularAt is the received count at which Decode last found the
	// set rank-deficient; 0 when it has not.
	singularAt int

	// out is Decode's result, K views of home; empty until asked for.
	out [][]byte

	// sc is the matrix paths' working memory: the Decoder's own, made
	// on first use, unless an ObjectDecoder lends its worker's.
	sc *solveScratch

	// Test hooks: force one decode path regardless of eligibility.
	// forcePartial also disables the fall-back to the full solver so
	// differential tests observe the partial path's own verdict.
	forceFull    bool
	forcePartial bool
}

// repairRef is one repair symbol a block has seen: its ESI and its slot
// in the repair store — unless it came after the block had decoded.
type repairRef struct {
	esi, slot uint32
}

// repairIndexRoom is the room a block's repair index starts with: the
// repair symbols of a 256-symbol block that lost a third of its sources,
// or of one without loss and the few dozen a round-robin sender still
// sends it once it has decoded. repairStoreRoom is the symbols an
// object's store first makes room for: a fetch without loss seldom holds
// more at a time.
const (
	repairIndexRoom = 128
	repairStoreRoom = 16
)

// repairStore holds repair symbols' payloads, all of one length, back to
// back in arrival order; emptying it rewinds it.
type repairStore []byte

// put copies data into the next slot and returns which that is.
func (s *repairStore) put(data []byte) uint32 {
	if cap(*s) == 0 {
		*s = make(repairStore, 0, repairStoreRoom*len(data))
	}
	slot := len(*s) / len(data)
	*s = append(*s, data...)
	return uint32(slot)
}

// sym returns the t-byte payload in slot.
func (s repairStore) sym(slot uint32, t int) []byte {
	off := int(slot) * t
	return s[off : off+t : off+t]
}

// solveScratch is everything a matrix decode works in that its result
// does not alias, so one instance serves any number of blocks in turn
// (see partial.go for the partial-path pieces).
type solveScratch struct {
	plan      planner
	slots     slotArena // replay slots
	rowBuf    [][]byte  // the rows of the system being loaded into slots
	ltScratch []int32
	liveSlot  []bool // partial path: slots its repair rows read
	keepOp    []bool // partial path: precode ops that reach those slots
	rhsBuf    []byte
	eqRows    [][]byte
	eqSymRows [][]byte
	rowOfCol  []int
	missBuf   []uint32
}

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
	// One buffer: the block, and behind it room for as many repair symbols
	// (a block can arrive as nothing else), so that a decoder reused
	// through Reset allocates for none of them, whatever the loss.
	n := k * symbolSize
	buf := make([]byte, 2*n)
	store := repairStore(buf[n:n])
	return &Decoder{p: p, t: symbolSize, home: buf[:n:n], have: make([]uint64, haveWords(k)), store: &store}, nil
}

// haveWords is the length of the presence set of a k-symbol block.
func haveWords(k int) int { return (k + 63) / 64 }

// Reset returns the decoder to its empty state for a new block with
// the same (K, symbol size), retaining every internal buffer — the
// steady-state path allocates nothing. All symbol slices previously
// returned by Decode or Source are invalidated.
func (d *Decoder) Reset() {
	clear(d.have)
	d.srcHave = 0
	d.rep = d.rep[:0]
	*d.store = (*d.store)[:0]
	d.decoded = false
	d.singularAt = 0
	d.out = d.out[:0]
}

// K returns the number of source symbols in the block.
func (d *Decoder) K() int { return d.p.K }

// SymbolSize returns the symbol size in bytes.
func (d *Decoder) SymbolSize() int { return d.t }

// AddSymbol stores encoding symbol esi. It returns true if the symbol
// was new (not a duplicate); a duplicate is dropped before a byte of it
// is written, whatever it carries. The data is copied — unless the block
// is already decoded: then only the ESI is remembered, so that a replay
// still reads as a duplicate, and the payload, which nothing will use,
// is written nowhere.
func (d *Decoder) AddSymbol(esi uint32, data []byte) (bool, error) {
	if len(data) != d.t {
		return false, fmt.Errorf("raptorq: symbol size %d, want %d", len(data), d.t)
	}
	if esi < uint32(d.p.K) {
		return d.addSource(esi, data), nil
	}
	return d.addRepair(esi, data), nil
}

// addSource receives source symbol esi in place.
//
//polyvet:noalloc per-symbol intake: one copy, to the symbol's place in the result
func (d *Decoder) addSource(esi uint32, data []byte) bool {
	w, bit := esi>>6, uint64(1)<<(esi&63)
	if d.have[w]&bit != 0 {
		return false
	}
	d.have[w] |= bit
	d.srcHave++
	if !d.decoded {
		copy(d.home[int(esi)*d.t:], data)
	}
	return true
}

// addRepair files repair symbol esi. A Polyraptor sender's repair ESIs
// ascend, so the place is nearly always the end; anything else is found
// by binary search.
func (d *Decoder) addRepair(esi uint32, data []byte) bool {
	i := len(d.rep)
	if i > 0 && d.rep[i-1].esi >= esi {
		var dup bool
		i, dup = slices.BinarySearchFunc(d.rep, esi, func(r repairRef, esi uint32) int {
			return cmp.Compare(r.esi, esi)
		})
		if dup {
			return false
		}
	}
	ref := repairRef{esi: esi}
	if !d.decoded {
		ref.slot = d.store.put(data)
	}
	if d.rep == nil {
		d.rep = make([]repairRef, 0, repairIndexRoom)
	}
	d.rep = slices.Insert(d.rep, i, ref)
	return true
}

// Received returns the number of distinct encoding symbols seen.
func (d *Decoder) Received() int { return d.srcHave + len(d.rep) }

// SourceKnown returns how many source symbols arrived directly
// (esi < K) — these are available to the application immediately,
// which is the paper's zero-latency systematic path for lossless
// transfers.
func (d *Decoder) SourceKnown() int { return d.srcHave }

// Ready reports whether at least K distinct symbols are available, the
// minimum for a decode attempt.
func (d *Decoder) Ready() bool { return d.Received() >= d.p.K }

// has reports whether source symbol i has been seen.
func (d *Decoder) has(i int) bool { return d.have[i>>6]>>(i&63)&1 != 0 }

// src returns source symbol i's slot of the block.
func (d *Decoder) src(i int) []byte {
	return d.home[i*d.t : (i+1)*d.t : (i+1)*d.t]
}

// Source returns the source symbol for esi if it was received directly
// or already decoded, else nil. The slice is a view of the block.
func (d *Decoder) Source(esi uint32) []byte {
	if esi < uint32(d.p.K) && (d.decoded || d.has(int(esi))) {
		return d.src(int(esi))
	}
	return nil
}

// Decode attempts to reconstruct all K source symbols and returns them
// as views of the decoder's block, in order and back to back. On
// success the result is cached and returned on subsequent calls (and
// invalidated by Reset). It returns ErrNeedMoreSymbols when fewer than K
// symbols are held and ErrSingular when the held set does not have full
// rank (add more symbols and retry; until one arrives the verdict is
// repeated without solving again).
func (d *Decoder) Decode() ([][]byte, error) {
	if err := d.decode(); err != nil {
		return nil, err
	}
	if len(d.out) == 0 {
		for i := 0; i < d.p.K; i++ {
			d.out = append(d.out, d.src(i))
		}
	}
	return d.out, nil
}

// decode is Decode without the views: it leaves the block complete.
func (d *Decoder) decode() error {
	if d.decoded {
		return nil
	}
	k, n := d.p.K, d.Received()
	switch {
	case d.srcHave == k:
		// Pure systematic delivery: every symbol is where it belongs.
		d.decoded = true
		return nil
	case n < k:
		return ErrNeedMoreSymbols
	case n == d.singularAt:
		return ErrSingular
	}
	if d.sc == nil {
		d.sc = new(solveScratch)
	}
	m := k - d.srcHave
	partial := !d.forceFull && (d.forcePartial || m <= partialMaxMissing(k))
	var err error
	if partial {
		err = d.decodePartial(m)
	}
	// The partial path caps how many repair rows it considers, so it can
	// miss rank the full system still has: fall back on any failure.
	if !d.forcePartial && (!partial || err != nil) {
		err = d.decodeFull()
	}
	if err != nil {
		if errors.Is(err, ErrSingular) {
			d.singularAt = n
		}
		return err
	}
	d.decoded = true
	return nil
}

// decodeFull runs the full inactivation decode: plan the elimination
// of the received set, then replay it over the received symbols. Slot
// layout for the decode system: S LDPC rows (zero RHS), the received
// symbols in ascending-ESI order, H HDPC rows and the Horner scratch
// (zero RHS).
func (d *Decoder) decodeFull() error {
	pl := &d.sc.plan
	pl.reset(d.p, d.Received())
	rows := d.sc.rowBuf[:0]
	for i := 0; i < d.p.K; i++ {
		if d.has(i) {
			pl.addESI(uint32(i))
			rows = append(rows, d.src(i))
		}
	}
	for _, r := range d.rep {
		pl.addESI(r.esi)
		rows = append(rows, d.store.sym(r.slot, d.t))
	}
	d.sc.rowBuf = rows
	sched, err := pl.plan()
	if err != nil {
		return err
	}
	syms := d.sc.slots.load(sched.nSlots, d.t, d.p.S, rows)
	sched.replay(syms, nil)
	d.fillFromSlots(syms, sched.outSlot)
	return nil
}

// fillFromSlots completes the block after a schedule replay: every
// missing source symbol is regenerated by LT expansion over the
// intermediate slots, straight into its own slot, cleared first of
// whatever an earlier block left there.
//
//polyvet:noalloc steady-state decode assembly, in place
func (d *Decoder) fillFromSlots(syms [][]byte, outSlot []int32) {
	scratch := d.sc.ltScratch
	for i := 0; i < d.p.K; i++ {
		if d.has(i) {
			continue
		}
		dst := d.src(i)
		clear(dst)
		scratch = d.p.AppendLTIndices(scratch[:0], uint32(i))
		for _, col := range scratch {
			gf256.AddRow(dst, syms[outSlot[col]])
		}
	}
	d.sc.ltScratch = scratch
}
