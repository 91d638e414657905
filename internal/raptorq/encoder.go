package raptorq

import (
	"fmt"
	"sync"
	"sync/atomic"

	"polyraptor/internal/gf256"
)

// addConstraintRows installs the precode constraints into the planner:
// the S LDPC binary rows, and the H HDPC rows as their generating
// picks. Both encoder (precode solve) and decoder (recovery solve) plan
// on top of these, so the constraint structure is shared by
// construction.
func addConstraintRows(pl *planner, p Params) {
	// LDPC rows (RFC 5053 §5.4.2.3 / RFC 6330 §5.3.3.3): each of the
	// B free LT columns contributes to exactly three of the S LDPC rows
	// through a circulant walk; row i additionally carries the identity
	// column B+i and two neighbours in the PI region, which protects
	// the LDPC equations themselves from low-weight dependencies. S is
	// prime and the step a is in [1, S-1], so the three circulant row
	// indices are distinct.
	bCols := p.B()
	ldpc := make([][]int32, p.S)
	for i := 0; i < bCols; i++ {
		a := 1 + (i/p.S)%(p.S-1)
		b := i % p.S
		ldpc[b] = append(ldpc[b], int32(i))
		b = (b + a) % p.S
		ldpc[b] = append(ldpc[b], int32(i))
		b = (b + a) % p.S
		ldpc[b] = append(ldpc[b], int32(i))
	}
	for i := 0; i < p.S; i++ {
		cols := append(ldpc[i], int32(bCols+i))
		pi1 := int32(p.W + i%p.P)
		pi2 := int32(p.W + (i+1)%p.P)
		if pi1 != pi2 {
			cols = append(cols, pi1, pi2)
		}
		pl.addRow(cols)
	}
	// HDPC rows: the RFC 6330 §5.3.3.3 MT x Gamma shape. Gamma is the
	// lower-triangular alpha-power Toeplitz matrix Gamma[j][c] =
	// alpha^(j-c) (alpha = 2, the field generator) over the L-H columns
	// before the HDPC identities, and MT is a sparse binary matrix with
	// two seeded row picks per column, so
	//
	//	coeff_r[c] = sum_{j >= c, MT[r][j]=1} alpha^(j-c)
	//	           = alpha * coeff_r[c+1] + MT[r][c],
	//
	// plus the identity coefficient 1 at column L-H+r. The rows are
	// GF(256)-dense (every decode benefits: they catch the handful of
	// columns the sparse phase cannot resolve, failure probability
	// ~2^-8 per missing rank, measured by the failure-curve test) but
	// they are never written out: the Horner structure lets the planner
	// substitute them as one shared alpha-weighted running sum plus two
	// XORs per column instead of H dense multiply-accumulates per pivot
	// (see assembleDense in solver.go), so the picks are all it keeps.
	state := hdpcSeed(p)
	pl.picks = hdpcPicks(p, &state)
}

// hdpcPicks derives MT's two distinct row picks for every Gamma-region
// column from the seeded generator. H >= 4 for every K (the
// choose(H, ceil(H/2)) >= K+S bound), so two distinct picks always
// exist.
func hdpcPicks(p Params, state *uint64) [][2]int32 {
	picks := make([][2]int32, p.L-p.H)
	for c := range picks {
		x := splitmix64(state)
		r1 := int32(x % uint64(p.H))
		r2 := (r1 + 1 + int32((x>>32)%uint64(p.H-1))) % int32(p.H)
		picks[c] = [2]int32{r1, r2}
	}
	return picks
}

func hdpcSeed(p Params) uint64 {
	return 0x9E3779B97F4A7C15 ^ uint64(p.K)<<20 ^ uint64(p.SIdx)
}

// Encoder produces encoding symbols for a single source block. It is
// systematic: Symbol(esi) for esi < K returns the source symbol
// unchanged, and repair symbols (esi >= K) are valid for any esi up to
// 2^32-1, making the code rateless.
//
// An Encoder is safe for concurrent use after construction: Symbol only
// reads the intermediate symbols, the precode of a lazily built block
// runs once under its own lock, and the repair-expansion cache is
// internally synchronised. Reset, however, must not run concurrently
// with any other method.
type Encoder struct {
	p   Params
	t   int
	src [][]byte // source symbols (referenced, not copied)

	// c holds the L intermediate symbols (views into the replay arena)
	// once ready is set. NewEncoder and Reset precode at once; a block of
	// NewObjectEncoder waits for its first repair symbol, precodes under
	// lazyMu, and ready publishes c to readers that never took the lock.
	// Every reader goes through intermediates.
	c      [][]byte
	ready  atomic.Bool
	lazyMu sync.Mutex
	// precodes counts this block's precodes into its ObjectEncoder's
	// total; nil for an Encoder of its own.
	precodes *atomic.Int64

	mu sync.Mutex // guards ltRepair
	// ltRepair memoises LT expansions of repair ESIs. Entries are
	// immutable once stored, so readers copy the reference out under mu
	// and XOR outside it. Bounded: serving the same object to many
	// receivers revisits the same repair ESIs (disjoint residue classes
	// per sender index), while a one-shot unicast stream pays one map
	// insert per symbol until the cap and nothing after.
	ltRepair map[uint32][]int32

	// sched is the recorded precode elimination for K (shared, from the
	// global per-K cache); slots is the arena it replays over.
	sched *schedule
	slots slotArena
}

// ltRepairCacheCap bounds the repair-expansion memo (~a few hundred KB
// at the default symbol sizes).
const ltRepairCacheCap = 4096

// NewEncoder builds an encoder for the given source symbols. All
// symbols must be non-empty and the same size. The source slice is
// retained (not copied); callers must not mutate the symbols while the
// encoder is in use.
//
// The L x L precode system is solved by replaying the recorded
// elimination schedule for K (built once per K and cached), so
// construction cost is a few thousand GF(256) row kernels rather than
// a structural Gaussian elimination.
func NewEncoder(source [][]byte) (*Encoder, error) {
	e := &Encoder{}
	if err := e.Reset(source); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-keys the encoder to a new source block, reusing every
// internal buffer. When the new block has the same K and symbol size,
// the steady state allocates nothing: the precode solve is a pure
// schedule replay over the reused arena. Symbols previously returned
// by Symbol are unaffected; the intermediate views read by AppendSymbol
// are rebuilt.
func (e *Encoder) Reset(source [][]byte) error {
	if err := e.rekey(source); err != nil {
		return err
	}
	e.precode()
	return nil
}

// rekey validates source and keys the encoder to it without precoding:
// the intermediates of the previous block are gone, and the schedule
// for K is at hand (derived here, so that no later precode can fail).
func (e *Encoder) rekey(source [][]byte) error {
	k := len(source)
	if k == 0 {
		return fmt.Errorf("raptorq: no source symbols")
	}
	t := len(source[0])
	if t == 0 {
		return fmt.Errorf("raptorq: empty symbols")
	}
	for i, s := range source {
		if len(s) != t {
			return fmt.Errorf("raptorq: symbol %d has size %d, want %d", i, len(s), t)
		}
	}
	if e.sched == nil || k != e.p.K {
		p, err := NewParams(k)
		if err != nil {
			return err
		}
		sched, err := precodeSchedule(p)
		if err != nil {
			// The systematic index search guarantees an invertible precode,
			// so this is unreachable unless the cache was poisoned.
			return fmt.Errorf("raptorq: precode solve failed: %w", err)
		}
		e.p = p
		e.sched = sched
		e.c = nil
		e.ltRepair = nil
	}
	e.t = t
	e.src = source
	e.ready.Store(false)
	return nil
}

// precode computes the intermediates of the keyed block and publishes
// them. Callers either own the encoder outright or hold lazyMu.
func (e *Encoder) precode() {
	if e.c == nil {
		e.c = make([][]byte, e.p.L)
	}
	e.replayPrecode(e.src)
	e.ready.Store(true)
	if e.precodes != nil {
		e.precodes.Add(1)
	}
}

// intermediates returns the L intermediate symbols, precoding the block
// first if it never was: one atomic load once it has been.
func (e *Encoder) intermediates() [][]byte {
	if !e.ready.Load() {
		e.precodeOnce()
	}
	return e.c
}

// precodeOnce is the cold half of intermediates: the first reader of a
// lazily built block precodes it, and any that arrive meanwhile wait for
// it. noinline keeps the arena's allocation out of AppendSymbol under
// the compiler-verified gate, as growZero does.
//
//go:noinline
func (e *Encoder) precodeOnce() {
	e.lazyMu.Lock()
	defer e.lazyMu.Unlock()
	if !e.ready.Load() {
		e.precode()
	}
}

// replayPrecode computes the L intermediate symbols by replaying the
// precode schedule over the arena: LDPC and HDPC right-hand sides are
// zero, the K LT rows carry the source symbols (copied — replay
// mutates its slots).
//
//polyvet:noalloc steady-state precode solve: arena slots plus recorded gf256 kernels
func (e *Encoder) replayPrecode(source [][]byte) {
	syms := e.slots.load(e.sched.nSlots, e.t, e.p.S, source)
	e.sched.replay(syms, nil)
	for c, slot := range e.sched.outSlot {
		e.c[c] = syms[slot]
	}
}

// ltIndices returns the memoised LT expansion for a repair ESI. Source
// ESIs never reach it: AppendSymbol's systematic fast path returns the
// source symbol directly.
func (e *Encoder) ltIndices(esi uint32) []int32 {
	e.mu.Lock()
	idx, ok := e.ltRepair[esi]
	if !ok {
		idx = e.p.LTIndices(esi)
		if e.ltRepair == nil {
			e.ltRepair = make(map[uint32][]int32) // first repair symbol of this K
		}
		if len(e.ltRepair) < ltRepairCacheCap {
			e.ltRepair[esi] = idx
		}
	}
	e.mu.Unlock()
	return idx
}

// K returns the number of source symbols.
func (e *Encoder) K() int { return e.p.K }

// SymbolSize returns the symbol size T in bytes.
func (e *Encoder) SymbolSize() int { return e.t }

// Params returns the derived code parameters.
func (e *Encoder) Params() Params { return e.p }

// Symbol returns encoding symbol esi in a freshly allocated buffer.
// For esi < K this is the source symbol (systematic fast path); for
// esi >= K it is a repair symbol.
func (e *Encoder) Symbol(esi uint32) []byte {
	out := make([]byte, e.t)
	e.AppendSymbol(out[:0], esi)
	return out
}

// AppendSymbol appends encoding symbol esi to dst and returns the
// extended slice. It performs no allocation when dst has capacity and
// the expansion for esi is already cached.
//
//polyvet:noalloc per-packet repair generation; alloc-free when dst has capacity
func (e *Encoder) AppendSymbol(dst []byte, esi uint32) []byte {
	start := len(dst)
	if int(esi) < e.p.K && esi < uint32(len(e.src)) {
		return append(dst, e.src[esi]...)
	}
	if cap(dst)-start >= e.t {
		dst = dst[:start+e.t]
		clear(dst[start:])
	} else {
		dst = growZero(dst, e.t)
	}
	buf := dst[start:]
	c := e.intermediates()
	for _, col := range e.ltIndices(esi) {
		gf256.AddRow(buf, c[col])
	}
	return dst
}

// growZero extends dst by n zero bytes, growing the backing array.
// This is AppendSymbol's cold path (an undersized caller buffer),
// split out so the annotated steady state stays allocation-free under
// both the syntactic and the compiler-verified gate. noinline keeps
// the compiler from folding the allocation site back into the
// annotated caller.
//
//go:noinline
func growZero(dst []byte, n int) []byte {
	return append(dst, make([]byte, n)...)
}
