// Package sim provides a deterministic discrete-event simulation
// engine: a monotonic virtual clock, an event queue that fires in
// exact (time, scheduling order) sequence, and seedable RNG streams.
// All of Polyraptor's protocol evaluation (the network simulator, the
// TCP baseline and the experiment harness) runs on this engine;
// determinism per seed is what makes the paper's five-seed error bars
// reproducible.
//
// The queue is two structures with one order. A packet-level model
// schedules nearly every event a fixed delay ahead of the clock —
// header and data serialization, link propagation, the pull pacer —
// and events that share a delay are already sorted when they are
// scheduled, because the clock never runs backwards. Each such delay
// gets a lane: a ring buffer appended at the tail and fired from the
// head, no comparisons. Everything else (one-off absolute times,
// delays that never repeat, more recurring delays than there are
// lanes) goes to an indexed 4-ary min-heap. Step fires the (time, seq)
// minimum over the lane heads and the heap top, so the firing order is
// the order of a single heap holding every event.
//
// Events are stored by value (no per-event allocation in steady state)
// and timers are generation-tagged handles into a slot table. Cancel
// removes a heap event in O(log n); a lane event becomes a tombstone
// that is dropped at once if it is the lane's head or tail and
// otherwise when the head reaches it or the ring repacks. A lane's
// head is therefore always a live event, which keeps RunUntil's
// deadline check and Pending exact, and cancelling an already-fired
// timer touches nothing.
package sim

import (
	"math"
	"math/rand"
	"time"
)

// Time is simulated time. It aliases time.Duration (nanosecond ticks)
// so durations, rates and pretty-printing come for free.
type Time = time.Duration

const (
	// numLanes bounds how many distinct delays bypass the heap at once.
	// netsim uses three (header and data serialization, propagation)
	// and the protocol agents one or two constant timers on top; Step
	// scans every lane head, so the count is kept to what they need.
	numLanes = 8
	// laneMinCap is a lane ring's first capacity (a power of two).
	laneMinCap = 16

	maxTime = Time(math.MaxInt64)

	// Queue positions for slot.lane and Engine.next, besides lane
	// indices 0..numLanes-1.
	inHeap  = -1
	noEvent = -2
)

// event is a scheduled callback, stored by value in the heap or a lane.
// A lane entry with a nil fn is a tombstone left by Cancel.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among simultaneous events
	fn   func()
	slot int32 // index into Engine.slots
}

// slot maps a timer handle to its queue position. gen disambiguates
// reuses of the same slot: a Timer carries the generation it was issued
// with, and Cancel is a no-op unless the generations still match.
type slot struct {
	pos  int32 // index into Engine.queue or the lane's ring, or -1 when not queued
	gen  uint32
	lane int8 // lane index, or inHeap
}

// lane is a FIFO of events that were all scheduled the same delay
// ahead of the clock, so (at, seq) ascends from head to tail. buf is a
// ring whose length is a power of two (zero before first use).
type lane struct {
	buf  []event
	head uint32 // ring index of the oldest entry; live unless n == 0
	n    uint32 // entries from head, tombstones included
	live uint32 // entries not cancelled
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations are deterministic single-goroutine
// programs by design.
type Engine struct {
	now       Time
	seq       uint64
	processed uint64
	queue     []event // indexed 4-ary min-heap ordered by (at, seq)
	slots     []slot
	free      []int32 // free slot indices

	nLanes int            // lanes keyed so far; the rest are untouched zero values
	laneD  [numLanes]Time // the delay each lane is keyed on
	laneAt [numLanes]Time // at of each lane's head, maxTime when empty
	lanes  [numLanes]lane
	// missed holds the last two delays that went to the heap. A delay
	// is given a lane only when it comes up again while still here, so
	// one-off delays (session start times, backed-off RTOs) never
	// occupy a lane for their whole wait; two, so that a model that
	// strictly alternates two delays still gets its lanes.
	missed [2]Time
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live events still queued. Cancelled
// events are not counted, whether or not their tombstone is still in a
// lane, so this is exact.
func (e *Engine) Pending() int {
	n := len(e.queue)
	for i := range e.lanes[:e.nLanes] {
		n += int(e.lanes[i].live)
	}
	return n
}

// Timer identifies a scheduled event for cancellation. The zero Timer
// is valid and Cancel on it is a no-op.
type Timer struct {
	engine *Engine
	slot   int32
	gen    uint32
}

// At schedules fn at absolute time t. Scheduling in the past panics:
// it is always a logic error in a discrete-event model.
//
//polyvet:noalloc event scheduling runs per packet; slot/queue/ring reuse keeps it amortized alloc-free
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	e.seq++
	var s int32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		s = int32(len(e.slots) - 1)
	}
	sl := &e.slots[s]
	sl.gen++
	tm := Timer{engine: e, slot: s, gen: sl.gen}
	ev := event{at: t, seq: e.seq, fn: fn, slot: s}

	// The lane keyed on this delay, if any: the tail it appends to was
	// scheduled the same delay ahead of an earlier clock, so it sorts
	// before ev. (Spelled out here rather than in helpers: the calls and
	// the 32-byte event copy were a tenth of the cost of a schedule.)
	d, li := t-e.now, inHeap
	for i, key := range e.laneD[:e.nLanes] {
		if key == d {
			li = i
			break
		}
	}
	if li == inHeap && (d == e.missed[0] || d == e.missed[1]) {
		li = e.laneAdmit(d)
	}
	if li == inHeap {
		e.missed[0], e.missed[1] = d, e.missed[0]
		sl.lane = inHeap
		sl.pos = int32(len(e.queue))
		e.queue = append(e.queue, ev)
		e.siftUp(len(e.queue) - 1)
		return tm
	}
	l := &e.lanes[li]
	if int(l.n) == len(l.buf) {
		e.laneRepack(l) // may rewrite slot positions, so before sl.pos is set
	}
	if l.n == 0 {
		e.laneAt[li] = t
	}
	pos := (l.head + l.n) & uint32(len(l.buf)-1)
	l.buf[pos] = ev
	l.n++
	l.live++
	sl.lane, sl.pos = int8(li), int32(pos)
	return tm
}

// After schedules fn after delay d.
//
//polyvet:noalloc thin wrapper on At; must add no allocation of its own
func (e *Engine) After(d Time, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an
// already-fired or already-cancelled timer is a no-op and leaves no
// residual state: the generation tag stops a stale handle from
// touching a reused slot.
//
//polyvet:noalloc timeout cancellation runs per delivered packet
func (t Timer) Cancel() {
	e := t.engine
	if e == nil {
		return
	}
	sl := &e.slots[t.slot]
	if sl.gen != t.gen || sl.pos < 0 {
		return
	}
	if sl.lane == inHeap {
		e.removeAt(int(sl.pos))
		return
	}
	li, pos := int(sl.lane), uint32(sl.pos)
	e.release(t.slot)
	l := &e.lanes[li]
	l.buf[pos].fn = nil
	l.live--
	mask := uint32(len(l.buf) - 1)
	if pos == (l.head+l.n-1)&mask {
		// The tail — where a timer that is re-armed before it fires
		// sits — goes at once, with any tombstones behind it. Short of
		// the sole entry, the live head stops the loop.
		l.n--
		for l.n > 0 && l.buf[(l.head+l.n-1)&mask].fn == nil {
			l.n--
		}
		if l.n == 0 {
			e.laneAt[li] = maxTime
		}
	} else if pos == l.head {
		e.laneAdvance(li)
	}
}

// Active reports whether the timer is still queued (scheduled, not yet
// fired or cancelled).
//
//polyvet:inline two-field check on the scheduler fast path
func (t Timer) Active() bool {
	if t.engine == nil {
		return false
	}
	sl := &t.engine.slots[t.slot]
	return sl.gen == t.gen && sl.pos >= 0
}

// release returns a fired or cancelled event's slot to the free list.
//
//polyvet:inline runs on every event fire and cancel
func (e *Engine) release(s int32) {
	e.slots[s].pos = -1
	e.free = append(e.free, s)
}

// laneAdmit gives delay d, which no lane is keyed on, an empty lane if
// there is one (the old key is dropped: nothing is queued under it),
// and otherwise returns inHeap.
//
//polyvet:noalloc runs on a schedule
func (e *Engine) laneAdmit(d Time) int {
	for i := range e.lanes[:e.nLanes] {
		if e.lanes[i].n == 0 {
			e.laneD[i] = d
			return i
		}
	}
	if e.nLanes == numLanes {
		return inHeap
	}
	i := e.nLanes
	e.nLanes++
	e.laneD[i], e.laneAt[i] = d, maxTime
	return i
}

// laneRepack makes room in a full ring: when at least half of it is
// tombstones it squeezes them out in place, otherwise it moves the live
// entries to a ring twice the size. A ring therefore never exceeds four
// times the lane's peak live count, however many timers were cancelled
// in it (an RTO re-armed on every ACK leaves one tombstone per ACK), and
// a cancel costs amortized O(1).
func (e *Engine) laneRepack(l *lane) {
	old, dst, base := l.buf, l.buf, l.head
	if 2*int(l.live) > len(old) || len(old) == 0 {
		dst, base = make([]event, max(laneMinCap, 2*len(old))), 0
	}
	omask, dmask := uint32(len(old)-1), uint32(len(dst)-1)
	w := uint32(0)
	for i := uint32(0); i < l.n; i++ {
		ev := old[(l.head+i)&omask]
		if ev.fn == nil {
			continue
		}
		pos := (base + w) & dmask
		dst[pos] = ev
		e.slots[ev.slot].pos = int32(pos)
		w++
	}
	if len(dst) == len(old) {
		for i := w; i < l.n; i++ {
			old[(l.head+i)&omask].fn = nil // release the moved entries' old copies
		}
	}
	l.buf, l.head, l.n = dst, base, w
}

// laneAdvance drops lane li's head, which has fired or been cancelled,
// and every tombstone behind it, so that the new head is live.
//
//polyvet:noalloc runs on every lane event fire
func (e *Engine) laneAdvance(li int) {
	l := &e.lanes[li]
	mask := uint32(len(l.buf) - 1)
	for {
		l.head = (l.head + 1) & mask
		l.n--
		if l.n == 0 {
			e.laneAt[li] = maxTime
			return
		}
		if next := &l.buf[l.head]; next.fn != nil {
			e.laneAt[li] = next.at
			return
		}
	}
}

// removeAt deletes the event at heap index i, releasing its slot.
//
//polyvet:noalloc runs on every heap event fire and cancel; free-list reuse keeps it alloc-free
func (e *Engine) removeAt(i int) {
	e.release(e.queue[i].slot)
	n := len(e.queue) - 1
	if i != n {
		e.queue[i] = e.queue[n]
		e.slots[e.queue[i].slot].pos = int32(i)
	}
	e.queue[n] = event{} // release the fn reference
	e.queue = e.queue[:n]
	if i < n && !e.siftDown(i) {
		e.siftUp(i)
	}
}

// next locates the (at, seq)-minimum live event: a lane index or
// inHeap, with its time, or noEvent when nothing is queued.
//
//polyvet:noalloc runs on every event fire
func (e *Engine) next() (src int, at Time) {
	src, at = noEvent, maxTime
	if len(e.queue) > 0 {
		src, at = inHeap, e.queue[0].at
	}
	for i, a := range e.laneAt[:e.nLanes] {
		if a < at {
			src, at = i, a
		} else if a == at && e.lanes[i].n > 0 && (src == noEvent || e.headSeq(i) < e.headSeq(src)) {
			src = i
		}
	}
	return src, at
}

// headSeq returns the seq of the first event of a non-empty source.
func (e *Engine) headSeq(src int) uint64 {
	if src == inHeap {
		return e.queue[0].seq
	}
	l := &e.lanes[src]
	return l.buf[l.head].seq
}

// fire removes the first event of src, as located by next, and runs it.
func (e *Engine) fire(src int) {
	var ev event
	if src == inHeap {
		ev = e.queue[0]
		e.removeAt(0)
	} else {
		l := &e.lanes[src]
		ev = l.buf[l.head]
		l.buf[l.head].fn = nil // release the fn reference
		l.live--
		e.release(ev.slot)
		e.laneAdvance(src)
	}
	e.now = ev.at
	e.processed++
	ev.fn()
}

// Step executes the next event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	src, _ := e.next()
	if src == noEvent {
		return false
	}
	e.fire(src)
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, leaving later
// events queued and the clock at min(deadline, last event time). The
// heap top and every lane head are live (cancellation never leaves a
// tombstone in front), so the deadline check is exact.
func (e *Engine) RunUntil(deadline Time) {
	for {
		src, at := e.next()
		if src == noEvent || at > deadline {
			break
		}
		e.fire(src)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// less orders heap entries by (at, seq): time order with FIFO
// tie-breaking for simultaneous events.
//
//polyvet:inline heap comparator; called O(log n) times per event
func (e *Engine) less(i, j int) bool {
	if e.queue[i].at != e.queue[j].at {
		return e.queue[i].at < e.queue[j].at
	}
	return e.queue[i].seq < e.queue[j].seq
}

//polyvet:inline heap swap; called O(log n) times per event
func (e *Engine) swap(i, j int) {
	e.queue[i], e.queue[j] = e.queue[j], e.queue[i]
	e.slots[e.queue[i].slot].pos = int32(i)
	e.slots[e.queue[j].slot].pos = int32(j)
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(i, p) {
			break
		}
		e.swap(i, p)
		i = p
	}
}

// siftDown restores heap order below i and reports whether i moved.
func (e *Engine) siftDown(i int) bool {
	start := i
	n := len(e.queue)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.less(j, m) {
				m = j
			}
		}
		if !e.less(m, i) {
			break
		}
		e.swap(i, m)
		i = m
	}
	return i > start
}

// RNG returns a deterministic random stream derived from seed and a
// stream label, so independent components (workload arrivals, ECMP
// hashing, overhead sampling) never share state and results are
// reproducible per seed.
func RNG(seed int64, stream string) *rand.Rand {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for _, b := range []byte(stream) {
		h ^= uint64(b)
		h *= 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h)))
}
