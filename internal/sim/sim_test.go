package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*time.Microsecond, func() { order = append(order, 3) })
	e.At(10*time.Microsecond, func() { order = append(order, 1) })
	e.At(20*time.Microsecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30*time.Microsecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(5*time.Microsecond, func() {
		e.After(7*time.Microsecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 12*time.Microsecond {
		t.Fatalf("After fired at %v, want 12µs", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*time.Microsecond, func() {})
	})
	e.Run()
}

func TestSchedulingNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("scheduling a nil callback did not panic")
		}
	}()
	NewEngine().After(time.Microsecond, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(time.Microsecond, func() { fired = true })
	tm.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and post-run cancel are no-ops.
	tm.Cancel()
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(time.Microsecond, func() { order = append(order, 1) })
	tm := e.At(2*time.Microsecond, func() { order = append(order, 2) })
	e.At(3*time.Microsecond, func() { order = append(order, 3) })
	tm.Cancel()
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*time.Microsecond, func() { fired++ })
	e.At(20*time.Microsecond, func() { fired++ })
	e.At(30*time.Microsecond, func() { fired++ })
	e.RunUntil(20 * time.Microsecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20*time.Microsecond {
		t.Fatalf("Now = %v, want 20µs", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after Run, want 3", fired)
	}
}

func TestRunForAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Millisecond)
	if e.Now() != time.Millisecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			e.After(time.Microsecond, recur)
		}
	}
	e.After(time.Microsecond, recur)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// Regression (ISSUE 3): RunUntil must never execute events past the
// deadline. The old engine left cancelled events in the heap, so a
// cancelled head with at <= deadline made Step skip it and fire the
// next live event unconditionally — even when that event was later
// than the deadline.
func TestRunUntilRespectsDeadlineWithCancelledHead(t *testing.T) {
	e := NewEngine()
	tm := e.At(10*time.Microsecond, func() { t.Error("cancelled event fired") })
	fired := false
	e.At(30*time.Microsecond, func() { fired = true })
	tm.Cancel()
	e.RunUntil(20 * time.Microsecond)
	if fired {
		t.Fatal("RunUntil executed an event past the deadline")
	}
	if e.Now() != 20*time.Microsecond {
		t.Fatalf("Now = %v, want 20µs", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("later event never fired")
	}
}

// Regression (ISSUE 3): cancelling an already-fired timer must leave no
// residual engine state. The old engine inserted a cancelled-map entry
// that was never reaped — a permanent per-cancel leak in long
// simulations.
func TestCancelAfterFireLeavesNoResidualState(t *testing.T) {
	e := NewEngine()
	var timers []Timer
	for i := 0; i < 1000; i++ {
		timers = append(timers, e.After(Time(i), func() {}))
	}
	e.Run()
	for _, tm := range timers {
		tm.Cancel()
		tm.Cancel() // double-cancel after fire is also a no-op
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	if live := len(e.slots) - len(e.free); live != 0 {
		t.Fatalf("%d slots still held after cancel-after-fire", live)
	}
}

// A stale Timer handle whose slot has been reused by a newer event must
// not cancel that newer event: the generation tag protects it.
func TestStaleCancelDoesNotKillReusedSlot(t *testing.T) {
	e := NewEngine()
	old := e.At(time.Microsecond, func() {})
	e.Run() // fires; slot returns to the free list
	fired := false
	e.After(time.Microsecond, func() { fired = true }) // reuses the slot
	old.Cancel()                                       // stale handle
	e.Run()
	if !fired {
		t.Fatal("stale Cancel removed a reused slot's event")
	}
}

func TestTimerActive(t *testing.T) {
	var zero Timer
	if zero.Active() {
		t.Fatal("zero Timer reports active")
	}
	zero.Cancel() // a no-op, not a nil dereference
	e := NewEngine()
	tm := e.At(time.Microsecond, func() {})
	if !tm.Active() {
		t.Fatal("scheduled timer not active")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("cancelled timer still active")
	}
	tm2 := e.At(time.Microsecond, func() {})
	e.Run()
	if tm2.Active() {
		t.Fatal("fired timer still active")
	}
}

// refModel is a brute-force reference event queue: a flat slice scanned
// linearly, with the same (at, seq) ordering contract as the engine.
// events[i] was the (i+1)-th event scheduled, so its seq is i+1.
type refModel struct {
	now    Time
	events []refEvent
}

type refEvent struct {
	at   Time
	dead bool // fired or cancelled
}

func (m *refModel) live() int {
	n := 0
	for _, ev := range m.events {
		if !ev.dead {
			n++
		}
	}
	return n
}

// step fires the (at, seq)-minimum live event with at <= deadline,
// appending its index to log, and reports whether there was one. The
// scan keeps the first minimum, which is the lowest seq.
func (m *refModel) step(deadline Time, log *[]int) bool {
	best := -1
	for i, ev := range m.events {
		if !ev.dead && ev.at <= deadline && (best < 0 || ev.at < m.events[best].at) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	m.now = m.events[best].at
	m.events[best].dead = true
	*log = append(*log, best)
	return true
}

func (m *refModel) runUntil(deadline Time, log *[]int) {
	for m.step(deadline, log) {
	}
	if m.now < deadline {
		m.now = deadline
	}
}

// modelDeltas are the fixed delays the model trace schedules with: more
// of them than the engine has lanes, so some recurring delays always
// share the heap with the random ones.
var modelDeltas = [...]Time{0, 1, 64, 512, 1000, 5000, 10000, 12000, 50000, 200000, 1000000, 2000000}

// checkLanes verifies the lane invariants the engine's exactness rests
// on: a live head, (at, seq) ascending from head to tail, live and
// laneAt in step with the ring, and every live entry's slot pointing
// back at it.
func checkLanes(t testing.TB, e *Engine) {
	t.Helper()
	for li := 0; li < e.nLanes; li++ {
		l := &e.lanes[li]
		if l.n == 0 {
			if l.live != 0 || e.laneAt[li] != maxTime {
				t.Fatalf("lane %d empty but live=%d laneAt=%v", li, l.live, e.laneAt[li])
			}
			continue
		}
		mask := uint32(len(l.buf) - 1)
		if head := l.buf[l.head]; head.fn == nil || e.laneAt[li] != head.at {
			t.Fatalf("lane %d: head tombstoned or laneAt %v stale", li, e.laneAt[li])
		}
		if l.buf[(l.head+l.n-1)&mask].fn == nil {
			t.Fatalf("lane %d: tail is a tombstone", li)
		}
		live := uint32(0)
		var prev event
		for i := uint32(0); i < l.n; i++ {
			pos := (l.head + i) & mask
			ev := l.buf[pos]
			if i > 0 && (ev.at < prev.at || ev.seq <= prev.seq) {
				t.Fatalf("lane %d: entry %d out of (at, seq) order", li, i)
			}
			prev = ev
			if ev.fn == nil {
				continue
			}
			live++
			if sl := e.slots[ev.slot]; int(sl.lane) != li || uint32(sl.pos) != pos {
				t.Fatalf("lane %d: slot of entry %d points at lane %d pos %d", li, i, sl.lane, sl.pos)
			}
		}
		if live != l.live {
			t.Fatalf("lane %d: live=%d, ring holds %d", li, l.live, live)
		}
	}
}

// checkAgainstModel runs prog, three bytes per operation (opcode and a
// 16-bit argument), against the engine and the brute-force model and
// requires the same firing order, clock, exact Pending and no leaked
// slot after every operation. The opcodes mix fixed delays (lanes),
// singly and in bursts, random delays (heap), absolute times that tie
// with queued events, cancels aimed at a lane's head, middle, tail or
// every other entry or at any timer ever issued (fired ones included),
// RunUntil and single Steps.
func checkAgainstModel(t testing.TB, prog []byte) {
	t.Helper()
	e := NewEngine()
	m := &refModel{}
	var got, want []int
	var timers []Timer // timers[i] is the handle of m.events[i]
	schedule := func(at Time) {
		id := len(timers)
		timers = append(timers, e.At(at, func() { got = append(got, id) }))
		m.events = append(m.events, refEvent{at: at})
	}
	cancel := func(id int) {
		timers[id].Cancel()
		m.events[id].dead = true // a no-op if it already fired
		if timers[id].Active() {
			t.Fatalf("timer %d active after Cancel", id)
		}
	}
	for op := 0; op+3 <= len(prog); op += 3 {
		arg := int(prog[op+1]) | int(prog[op+2])<<8
		switch code := prog[op] % 16; {
		case code < 4:
			schedule(e.Now() + modelDeltas[arg%len(modelDeltas)])
		case code == 4:
			// A burst under one delay: grows a lane's ring past its
			// first capacity.
			for i := 0; i <= arg/len(modelDeltas)%32; i++ {
				schedule(e.Now() + modelDeltas[arg%len(modelDeltas)])
			}
		case code < 7:
			schedule(e.Now() + Time(arg%1000))
		case code == 7:
			// The time of an earlier event: ties with it if it is still
			// queued, and lands in a lane when the gap matches one.
			at := e.Now()
			if len(timers) > 0 && m.events[arg%len(timers)].at > at {
				at = m.events[arg%len(timers)].at
			}
			schedule(at)
		case code < 10:
			if len(timers) > 0 {
				cancel(arg % len(timers))
			}
		case code == 10:
			// Head, middle or tail of a lane; seq-1 indexes timers.
			if l := &e.lanes[arg%numLanes]; l.n > 0 {
				off := [...]uint32{0, l.n / 2, l.n - 1}[arg/numLanes%3]
				if ev := l.buf[(l.head+off)&uint32(len(l.buf)-1)]; ev.fn != nil {
					cancel(int(ev.seq - 1))
				}
			}
		case code == 11 && arg%2 == 0:
			if len(timers) > 0 {
				cancel(len(timers) - 1)
			}
		case code == 11:
			// Two of every three entries of a lane: tombstones between
			// live entries, which only a repack of the full ring removes.
			l := &e.lanes[arg/2%numLanes]
			for i := uint32(0); i < l.n; i++ {
				if ev := l.buf[(l.head+i)&uint32(len(l.buf)-1)]; i%3 != 0 && ev.fn != nil {
					cancel(int(ev.seq - 1))
				}
			}
		case code < 15:
			span := Time(arg % 2000)
			if code == 14 {
				span = Time(arg) * 16
			}
			e.RunUntil(e.Now() + span)
			m.runUntil(m.now+span, &want)
		default:
			if e.Step() != m.step(maxTime, &want) {
				t.Fatalf("op %d: Step disagrees with the model about an empty queue", op/3)
			}
		}
		if e.Now() != m.now {
			t.Fatalf("op %d: clock %v, model %v", op/3, e.Now(), m.now)
		}
		if e.Pending() != m.live() {
			t.Fatalf("op %d: Pending = %d, model has %d live", op/3, e.Pending(), m.live())
		}
		if held := len(e.slots) - len(e.free); held != e.Pending() {
			t.Fatalf("op %d: %d slots held for %d pending events", op/3, held, e.Pending())
		}
		checkLanes(t, e)
	}
	e.Run()
	m.runUntil(maxTime, &want)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, model fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing order diverges at %d: engine %d, model %d", i, got[i], want[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
	if held := len(e.slots) - len(e.free); held != 0 {
		t.Fatalf("%d slots leaked", held)
	}
}

// modelProgram draws a checkAgainstModel program of n operations.
func modelProgram(seed int64, n int) []byte {
	prog := make([]byte, 3*n)
	RNG(seed, "sim-stress").Read(prog)
	return prog
}

// TestRandomizedAgainstReferenceModel drives the engine and a
// brute-force model through the same random trace. Fixed seeds keep
// failures reproducible.
func TestRandomizedAgainstReferenceModel(t *testing.T) {
	if len(modelDeltas) <= numLanes {
		t.Fatalf("the trace has %d fixed delays, need more than the %d lanes", len(modelDeltas), numLanes)
	}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkAgainstModel(t, modelProgram(seed, 4000))
		})
	}
}

// FuzzEngineOrder lets the fuzzer write the trace, seeded from the
// randomized test's generator.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(1); seed <= 5; seed++ {
		f.Add(modelProgram(seed, 300))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*512 {
			prog = prog[:3*512] // the model is quadratic in the events scheduled
		}
		checkAgainstModel(t, prog)
	})
}

// An RTO-style timer re-armed on every ACK leaves a tombstone in the
// middle of its lane each time. The ring must squeeze them out instead
// of growing with the number of re-arms: it stays within four times
// the live timers.
func TestLaneStaysCompactUnderTimerChurn(t *testing.T) {
	const flows, rto = 64, 200 * time.Millisecond
	e := NewEngine()
	rng := RNG(1, "sim-churn")
	nop := func() {}
	timers := make([]Timer, flows)
	for i := range timers {
		timers[i] = e.After(rto, nop)
	}
	for i := 0; i < 100000; i++ {
		f := rng.Intn(flows)
		timers[f].Cancel()
		timers[f] = e.After(rto, nop)
		if i%8 == 0 {
			e.RunFor(time.Microsecond)
		}
	}
	checkLanes(t, e)
	if e.Pending() != flows {
		t.Fatalf("Pending = %d, want %d", e.Pending(), flows)
	}
	if len(e.queue) != 0 {
		t.Fatalf("%d of the timers sit in the heap, want all in one lane", len(e.queue))
	}
	for li := range e.lanes {
		if n := len(e.lanes[li].buf); n > 4*flows {
			t.Fatalf("lane %d ring holds %d entries for %d live timers", li, n, flows)
		}
	}
}

func TestRNGDeterminismAndIndependence(t *testing.T) {
	a1 := RNG(42, "arrivals")
	a2 := RNG(42, "arrivals")
	b := RNG(42, "ecmp")
	c := RNG(43, "arrivals")
	same, diffStream, diffSeed := 0, 0, 0
	for i := 0; i < 100; i++ {
		x := a1.Uint64()
		if x == a2.Uint64() {
			same++
		}
		if x == b.Uint64() {
			diffStream++
		}
		if x == c.Uint64() {
			diffSeed++
		}
	}
	if same != 100 {
		t.Fatal("same seed+stream must reproduce identical sequences")
	}
	if diffStream > 2 || diffSeed > 2 {
		t.Fatal("different streams/seeds must be independent")
	}
}
