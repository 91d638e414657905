package raptorq

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Object-level framing: a large object is split into Z source blocks
// (RFC 6330 §4.4.1 Partition), each independently encoded/decoded.
// Symbols are addressed by (SBN, ESI) — source block number and
// encoding symbol identifier — exactly the addressing Polyraptor
// sessions use on the wire.

// Partition computes RFC 6330's Partition[I, J] = (IL, IS, JL, JS):
// J blocks covering I items, JL blocks of IL items followed by JS
// blocks of IS items.
func Partition(i, j int) (il, is, jl, js int) {
	il = ceilDiv(i, j)
	is = i / j
	jl = i - is*j
	js = j - jl
	return il, is, jl, js
}

// BlockLayout describes how an object of F bytes is partitioned.
type BlockLayout struct {
	// F is the object size in bytes.
	F int64
	// T is the symbol size in bytes.
	T int
	// K holds the number of source symbols of each of the Z blocks.
	K []int
}

// Z returns the number of source blocks.
func (bl BlockLayout) Z() int { return len(bl.K) }

// TotalSymbols returns the total number of source symbols across
// blocks (Kt).
func (bl BlockLayout) TotalSymbols() int {
	n := 0
	for _, k := range bl.K {
		n += k
	}
	return n
}

// NewBlockLayout partitions an object of size f into blocks of at most
// maxK symbols of size t.
func NewBlockLayout(f int64, t, maxK int) (BlockLayout, error) {
	if f <= 0 {
		return BlockLayout{}, fmt.Errorf("raptorq: object size %d", f)
	}
	if t <= 0 {
		return BlockLayout{}, fmt.Errorf("raptorq: symbol size %d", t)
	}
	if maxK <= 0 || maxK > MaxK {
		return BlockLayout{}, fmt.Errorf("raptorq: maxK %d out of range", maxK)
	}
	kt := int((f + int64(t) - 1) / int64(t))
	z := ceilDiv(kt, maxK)
	kl, ks, zl, zs := Partition(kt, z)
	ks2 := make([]int, 0, z)
	for i := 0; i < zl; i++ {
		ks2 = append(ks2, kl)
	}
	for i := 0; i < zs; i++ {
		ks2 = append(ks2, ks)
	}
	// A zero-K block can only appear when kt < z, which ceilDiv rules out.
	return BlockLayout{F: f, T: t, K: ks2}, nil
}

// ObjectEncoder encodes a whole object: one Encoder per source block.
type ObjectEncoder struct {
	layout BlockLayout
	blocks []*Encoder
}

// NewObjectEncoder partitions data into blocks of at most maxK symbols
// of size t and builds per-block encoders. The final symbol of the
// final block is zero-padded; the layout records the true object size
// so decoding strips the padding. Block encoders are built on a worker
// pool sized to GOMAXPROCS; use NewObjectEncoderWorkers to control it.
func NewObjectEncoder(data []byte, t, maxK int) (*ObjectEncoder, error) {
	return NewObjectEncoderWorkers(data, t, maxK, 0)
}

// NewObjectEncoderWorkers is NewObjectEncoder with an explicit worker
// count for the per-block precode solves; workers <= 0 selects
// GOMAXPROCS. Source blocks are independent, and results are placed by
// block index, so the produced encoder is identical for every worker
// count — parallelism changes wall-clock only, never output.
func NewObjectEncoderWorkers(data []byte, t, maxK, workers int) (*ObjectEncoder, error) {
	layout, err := NewBlockLayout(int64(len(data)), t, maxK)
	if err != nil {
		return nil, err
	}
	z := layout.Z()
	srcs := make([][][]byte, z)
	off := 0
	for bi, k := range layout.K {
		syms := make([][]byte, k)
		for i := 0; i < k; i++ {
			end := off + t
			if end <= len(data) {
				syms[i] = data[off:end]
			} else {
				// Zero-padded tail symbol.
				pad := make([]byte, t)
				copy(pad, data[off:])
				syms[i] = pad
			}
			off = end
		}
		srcs[bi] = syms
	}
	enc := &ObjectEncoder{layout: layout, blocks: make([]*Encoder, z)}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > z {
		workers = z
	}
	if workers <= 1 {
		for bi := range srcs {
			e, err := NewEncoder(srcs[bi])
			if err != nil {
				return nil, err
			}
			enc.blocks[bi] = e
		}
		return enc, nil
	}
	errs := make([]error, z)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				bi := int(next.Add(1)) - 1
				if bi >= z {
					return
				}
				e, err := NewEncoder(srcs[bi])
				if err != nil {
					errs[bi] = err
					continue
				}
				enc.blocks[bi] = e
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return enc, nil
}

// Layout returns the object's block layout.
func (oe *ObjectEncoder) Layout() BlockLayout { return oe.layout }

// Block returns the encoder for source block sbn.
func (oe *ObjectEncoder) Block(sbn int) *Encoder { return oe.blocks[sbn] }

// Symbol returns encoding symbol (sbn, esi).
func (oe *ObjectEncoder) Symbol(sbn int, esi uint32) []byte {
	return oe.blocks[sbn].Symbol(esi)
}

// ObjectDecoder reassembles an object from (SBN, ESI, data) symbols.
//
// It owns one buffer the size of the object (padded to whole symbols),
// made when the first symbol arrives, and every block's Decoder receives
// and decodes in place in its window of it: a source symbol is copied
// once, from the caller's packet to where it belongs in the result, and
// Object returns that buffer. Repair symbols of all blocks share one
// side store.
type ObjectDecoder struct {
	layout BlockLayout
	buf    []byte
	blocks []Decoder
	store  repairStore
	spent  int // bytes of store whose block has decoded
	done   []bool
	nDone  int

	// workers bounds TryDecode's block parallelism; <= 0 means
	// GOMAXPROCS. Blocks decode independently and completion is
	// recorded by index, so the worker count never changes results.
	workers  int
	readyBuf []int
	okBuf    []bool
	// scratch[w] is worker w's matrix-solve working memory, lent to
	// whichever block that worker is decoding: the planner and replay
	// slots warm up once per object, not once per block.
	scratch []*solveScratch
}

// NewObjectDecoder creates a decoder for an object with the given
// layout (communicated out-of-band, e.g. in Polyraptor's session
// establishment). It holds no symbol memory until a symbol arrives.
func NewObjectDecoder(layout BlockLayout) (*ObjectDecoder, error) {
	if layout.T <= 0 {
		return nil, fmt.Errorf("raptorq: invalid symbol size %d", layout.T)
	}
	z := layout.Z()
	od := &ObjectDecoder{layout: layout, blocks: make([]Decoder, z), done: make([]bool, z)}
	have := make([]uint64, layout.TotalSymbols()/64+z) // a word too many per block at most
	for i, k := range layout.K {
		p, err := NewParams(k)
		if err != nil {
			return nil, err
		}
		w := haveWords(k)
		od.blocks[i] = Decoder{p: p, t: layout.T, have: have[:w:w], store: &od.store}
		have = have[w:]
	}
	return od, nil
}

// makeBuf makes the object's buffer and gives each block its window.
func (od *ObjectDecoder) makeBuf() {
	t := od.layout.T
	od.buf = make([]byte, od.layout.TotalSymbols()*t)
	rest := od.buf
	for i := range od.blocks {
		n := od.blocks[i].p.K * t
		od.blocks[i].home, rest = rest[:n:n], rest[n:]
	}
}

// AddSymbol feeds one received symbol. It returns true if the symbol
// was new.
func (od *ObjectDecoder) AddSymbol(sbn int, esi uint32, data []byte) (bool, error) {
	if sbn < 0 || sbn >= len(od.blocks) {
		return false, fmt.Errorf("raptorq: SBN %d out of range [0,%d)", sbn, len(od.blocks))
	}
	if od.buf == nil && len(data) == od.layout.T {
		od.makeBuf()
	}
	return od.blocks[sbn].AddSymbol(esi, data)
}

// SetWorkers bounds the block parallelism of TryDecode; n <= 0 selects
// GOMAXPROCS. Must not be called concurrently with TryDecode.
func (od *ObjectDecoder) SetWorkers(n int) { od.workers = n }

// TryDecode attempts to decode every ready, not-yet-decoded block and
// reports whether the whole object is now recovered. A block that holds
// all its source symbols is complete as it stands; when two or more
// need a solve it fans them out over a worker pool, each worker writing
// its block's window only. Completion flags are written by block index
// afterwards, so results and observable state are identical to the
// serial order.
func (od *ObjectDecoder) TryDecode() bool {
	ready := od.readyBuf[:0]
	for i := range od.blocks {
		d := &od.blocks[i]
		switch {
		case od.done[i] || !d.Ready():
		case d.SourceKnown() == d.K():
			_ = d.decode() // nothing to solve: it cannot fail
			od.finish(i)
		default:
			ready = append(ready, i)
		}
	}
	od.readyBuf = ready
	workers := od.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(ready))
	for len(od.scratch) < workers {
		od.scratch = append(od.scratch, new(solveScratch))
	}
	if workers <= 1 {
		for _, i := range ready {
			d := &od.blocks[i]
			d.sc = od.scratch[0]
			if d.decode() == nil {
				od.finish(i)
			}
		}
	} else {
		od.decodeParallel(ready, workers)
	}
	return od.nDone == len(od.blocks)
}

// decodeParallel is TryDecode's worker pool over the ready blocks. It is
// a function of its own so that what its goroutines capture is allocated
// here, not by every TryDecode.
func (od *ObjectDecoder) decodeParallel(ready []int, workers int) {
	ok := sized(od.okBuf, len(ready))
	od.okBuf = ok
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, sc := range od.scratch[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(ready) {
					return
				}
				d := &od.blocks[ready[j]]
				d.sc = sc
				ok[j] = d.decode() == nil
			}
		}()
	}
	wg.Wait()
	for j, i := range ready {
		if ok[j] {
			od.finish(i)
		}
	}
}

// finish records that block i has decoded. Its repair symbols are spent
// with it, and once every symbol in the store is, the store is rewound:
// blocks that complete one after another, as a sender's source phase
// delivers them, share the room of one.
func (od *ObjectDecoder) finish(i int) {
	od.done[i] = true
	od.nDone++
	od.spent += len(od.blocks[i].rep) * od.layout.T
	if od.spent == len(od.store) {
		od.store, od.spent = od.store[:0], 0
	}
}

// Complete reports whether every block has been decoded.
func (od *ObjectDecoder) Complete() bool { return od.nDone == len(od.blocks) }

// BlockComplete reports whether block sbn has been decoded.
func (od *ObjectDecoder) BlockComplete(sbn int) bool { return od.done[sbn] }

// BlockReady reports whether TryDecode has work on block sbn: it holds
// at least K symbols and has not been decoded.
func (od *ObjectDecoder) BlockReady(sbn int) bool {
	return !od.done[sbn] && od.blocks[sbn].Ready()
}

// Object returns the reassembled object with padding stripped: the
// decoder's own buffer, not a copy, with no room to append into the
// padding. Nothing writes to it once the object is complete — a symbol
// that arrives afterwards is only counted — so the caller may keep it
// and need not keep the decoder. It errors if any block is still
// undecoded.
func (od *ObjectDecoder) Object() ([]byte, error) {
	if !od.Complete() {
		return nil, errors.New("raptorq: object incomplete")
	}
	return od.buf[:od.layout.F:od.layout.F], nil
}
