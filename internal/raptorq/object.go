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
	layout   BlockLayout
	blocks   []Encoder
	precoded atomic.Int64 // block precodes run, counted by the blocks
}

// NewObjectEncoder partitions data into blocks of at most maxK symbols
// of size t and builds per-block encoders. The final symbol of the
// final block is zero-padded; the layout records the true object size
// so decoding strips the padding. It builds views only: the source
// symbols are windows of data, and a block is precoded the first time
// it is asked for a repair symbol, so an object whose receivers lose
// nothing is never precoded at all. NewObjectEncoderWorkers pays every
// precode up front instead.
func NewObjectEncoder(data []byte, t, maxK int) (*ObjectEncoder, error) {
	layout, err := NewBlockLayout(int64(len(data)), t, maxK)
	if err != nil {
		return nil, err
	}
	oe := &ObjectEncoder{layout: layout, blocks: make([]Encoder, layout.Z())}
	syms := make([][]byte, layout.TotalSymbols())
	for i := range syms {
		off := i * t
		if off+t <= len(data) {
			syms[i] = data[off : off+t : off+t]
		} else {
			// Zero-padded tail symbol.
			pad := make([]byte, t)
			copy(pad, data[off:])
			syms[i] = pad
		}
	}
	for bi, k := range layout.K {
		e := &oe.blocks[bi]
		e.precodes = &oe.precoded
		if bi > 0 && k == oe.blocks[bi-1].p.K {
			e.p, e.sched = oe.blocks[bi-1].p, oe.blocks[bi-1].sched
		}
		if err := e.rekey(syms[:k:k]); err != nil {
			return nil, err
		}
		syms = syms[k:]
	}
	return oe, nil
}

// NewObjectEncoderWorkers is NewObjectEncoder with every block precoded
// before it returns, on a pool of workers; workers <= 0 selects
// GOMAXPROCS. Source blocks are independent, and results are placed by
// block index, so the produced encoder is identical for every worker
// count — parallelism changes wall-clock only, never output.
func NewObjectEncoderWorkers(data []byte, t, maxK, workers int) (*ObjectEncoder, error) {
	oe, err := NewObjectEncoder(data, t, maxK)
	if err != nil {
		return nil, err
	}
	z := len(oe.blocks)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, z)
	if workers <= 1 {
		for bi := range oe.blocks {
			oe.blocks[bi].precode()
		}
		return oe, nil
	}
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
				oe.blocks[bi].precode()
			}
		}()
	}
	wg.Wait()
	return oe, nil
}

// Layout returns the object's block layout.
func (oe *ObjectEncoder) Layout() BlockLayout { return oe.layout }

// Block returns the encoder for source block sbn.
func (oe *ObjectEncoder) Block(sbn int) *Encoder { return &oe.blocks[sbn] }

// Precoded returns how many block precodes the encoder has run: one per
// block when NewObjectEncoderWorkers built it, one per block asked for a
// repair symbol so far when NewObjectEncoder did.
func (oe *ObjectEncoder) Precoded() int { return int(oe.precoded.Load()) }

// Symbol returns encoding symbol (sbn, esi).
func (oe *ObjectEncoder) Symbol(sbn int, esi uint32) []byte {
	return oe.Block(sbn).Symbol(esi)
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

// decodeMem is what an ObjectDecoder solves in and keeps repair symbols
// in: its workers' scratch and its repair store, about 0.4 MB for blocks
// of 256 symbols of 1 KiB. An object that completes passes its own on
// through decodeMems, and the next decoder made takes it, instead of
// leaving one to the collector per object.
type decodeMem struct {
	scratch []*solveScratch
	store   repairStore
}

// decodeMems holds as many as decoders commonly run side by side in one
// process; what does not fit is left to the collector.
var decodeMems = make(chan decodeMem, 4)

// A store or slot arena that one object's loss or block size grew past
// these is left to the collector too, as fmt leaves a large print buffer,
// so that a process does not keep its worst object's memory for good.
const (
	keepStoreMax = 64 << 10
	keepSlotsMax = 1 << 20
)

// NewObjectDecoder creates a decoder for an object with the given
// layout (communicated out-of-band, e.g. in Polyraptor's session
// establishment). It makes no symbol memory until a symbol arrives, and
// takes its solve memory from an object decoded before it when one has
// passed it on.
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
	select {
	case m := <-decodeMems:
		od.scratch, od.store = m.scratch, m.store
	default:
	}
	return od, nil
}

// release passes the decoder's solve memory on once the object is
// complete: nothing is solved or stored after that, since every block
// takes later symbols for duplicates or counts them only.
func (od *ObjectDecoder) release() {
	if od.scratch == nil && od.store == nil {
		return
	}
	m := decodeMem{scratch: od.scratch[:0], store: od.store[:0]}
	if cap(m.store) > keepStoreMax {
		m.store = nil
	}
	for _, sc := range od.scratch {
		// The rows of the last system loaded are views of this object,
		// which the scratch must not keep alive once passed on.
		clear(sc.rowBuf[:cap(sc.rowBuf)])
		if cap(sc.slots.buf) <= keepSlotsMax {
			m.scratch = append(m.scratch, sc)
		}
	}
	if len(m.scratch) > 0 || cap(m.store) > 0 {
		select {
		case decodeMems <- m:
		default:
		}
	}
	od.scratch, od.store = nil, nil
	for i := range od.blocks {
		od.blocks[i].sc = nil
	}
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
// serial order. The call that completes the object passes its solve
// memory on to the next decoder made.
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
	if !od.Complete() {
		return false
	}
	od.release()
	return true
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

// BlockReceived returns the number of distinct symbols block sbn holds.
func (od *ObjectDecoder) BlockReceived(sbn int) int { return od.blocks[sbn].Received() }

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
