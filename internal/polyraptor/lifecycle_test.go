package polyraptor

import (
	"testing"
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/sim"
	"polyraptor/internal/topology"
)

// Session-lifecycle regression tests: finished sessions must leave the
// agent maps (the sender-session leak), completion must survive a
// dropped ctrl or ack packet (the completion-loss deadlock), and the
// stall guard's re-fire cadence is pinned.

// assertNoOpenSessions fails the test if, after the simulation has
// drained, any agent still holds a session or a packet the network
// created is not back on its free list.
func assertNoOpenSessions(t *testing.T, sys *System) {
	t.Helper()
	send, recv := sys.OpenSessions()
	if send != 0 || recv != 0 {
		t.Fatalf("leaked sessions: %d sender, %d receiver", send, recv)
	}
	if out := sys.Net.PacketsOutstanding(); out != 0 {
		t.Fatalf("%d packets unaccounted for after the drain (leaked if positive, freed twice if negative)", out)
	}
}

func TestSessionLifecycleNoLeak(t *testing.T) {
	// N sequential flows of every pattern over one System: the agent
	// maps and the engine's pending-event count must return to their
	// empty baseline. Before the fix every flow leaked a senderSession
	// (onReceiverDone set finished without deleting the map entry).
	ft, err := topology.NewFatTree(4, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(ft.Net, DefaultConfig(), 11)
	sys.PruneGroup = ft.PruneMulticastLeaf
	if p := ft.Net.Eng.Pending(); p != 0 {
		t.Fatalf("pending baseline = %d, want 0", p)
	}

	var evs []CompletionEvent
	flows := 0
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 3 * time.Millisecond
		i := i
		ft.Net.Eng.At(at, func() {
			switch i % 3 {
			case 0:
				sys.StartUnicast(0, 5+(i%8), 64<<10, collect(&evs))
				flows++
			case 1:
				sys.StartMultiSource([]int{4, 8, 12}, 1, 96<<10, collect(&evs))
				flows++
			default:
				receivers := []int{6, 10, 14}
				g := ft.InstallMulticastGroup(2, receivers)
				sys.StartMulticast(2, receivers, g, 64<<10, collect(&evs))
				flows += 3 // one completion per receiver
			}
		})
	}
	ft.Net.Eng.Run()
	if len(evs) != flows {
		t.Fatalf("completions = %d, want %d", len(evs), flows)
	}
	assertNoOpenSessions(t, sys)
	if p := ft.Net.Eng.Pending(); p != 0 {
		t.Fatalf("pending events after drain = %d, want baseline 0", p)
	}
}

// dropFirst wraps a host's Deliver to swallow the first `n` packets of
// the given kind, simulating trimmed-queue loss of control traffic
// (and, like a queue, retiring what it drops). It returns a counter of
// how many packets were dropped.
func dropFirst(net *netsim.Network, host *netsim.Host, kind netsim.Kind, n int) *int {
	dropped := 0
	prev := host.Deliver
	host.Deliver = func(p *netsim.Packet) {
		if p.Kind == kind && dropped < n {
			dropped++
			net.FreePacket(p)
			return
		}
		if prev != nil {
			prev(p)
		}
	}
	return &dropped
}

func TestMulticastCompletesDespiteDroppedCtrl(t *testing.T) {
	// The deadlock scenario: the first receiver to finish notifies the
	// multicast sender with a single ctrl packet; if that packet is
	// lost the sender keeps the finished receiver in ss.pulls, pump()
	// can never complete a round, and the survivors' stall guards
	// re-fire forever without progress. The retransmit/ack handshake
	// must recover the group.
	st := topology.NewStar(4, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 12)
	sys.PruneGroup = st.PruneMulticastLeaf

	dropped := dropFirst(st.Net, st.Hosts[0], netsim.KindCtrl, 1)
	receivers := []int{1, 2, 3}
	g := st.InstallMulticastGroup(0, receivers)
	var evs []CompletionEvent
	sys.StartMulticast(0, receivers, g, 1<<20, collect(&evs))
	// RunUntil bounds the test: the pre-fix livelock (stall guards
	// re-firing forever) would otherwise keep Run() from returning.
	st.Net.Eng.RunUntil(5 * time.Second)
	if *dropped != 1 {
		t.Fatalf("dropped %d ctrl packets, want exactly 1; test is vacuous", *dropped)
	}
	if len(evs) != 3 {
		t.Fatalf("completions = %d, want 3 despite the dropped ctrl", len(evs))
	}
	st.Net.Eng.Run() // drain the remaining retransmit/ack handshake
	assertNoOpenSessions(t, sys)
}

func TestMultiSourceCompletesDespiteDroppedCtrl(t *testing.T) {
	// The unicast flavour of the same loss: a multi-source receiver's
	// ctrl to one of its senders is dropped. Pre-fix that sender
	// session stayed in sendSess forever (a silent leak); now the
	// retransmit reaches it and the maps drain.
	st := topology.NewStar(4, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 13)
	dropped := dropFirst(st.Net, st.Hosts[1], netsim.KindCtrl, 1)
	var evs []CompletionEvent
	sys.StartMultiSource([]int{1, 2, 3}, 0, 512<<10, collect(&evs))
	st.Net.Eng.Run()
	if *dropped != 1 {
		t.Fatal("no ctrl packet was dropped; test is vacuous")
	}
	if len(evs) != 1 {
		t.Fatalf("completions = %d, want 1", len(evs))
	}
	assertNoOpenSessions(t, sys)
}

func TestCompletionSurvivesDroppedAck(t *testing.T) {
	// The reverse loss: the sender's ack is dropped, so the receiver
	// retransmits its ctrl and the sender must treat the duplicate
	// idempotently (not double-count the receiver).
	st := topology.NewStar(4, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 14)
	sys.PruneGroup = st.PruneMulticastLeaf
	dropped := dropFirst(st.Net, st.Hosts[1], netsim.KindAck, 1)
	receivers := []int{1, 2, 3}
	g := st.InstallMulticastGroup(0, receivers)
	var evs []CompletionEvent
	sys.StartMulticast(0, receivers, g, 1<<20, collect(&evs))
	st.Net.Eng.Run()
	if *dropped != 1 {
		t.Fatal("no ack packet was dropped; test is vacuous")
	}
	if len(evs) != 3 {
		t.Fatalf("completions = %d, want 3", len(evs))
	}
	assertNoOpenSessions(t, sys)
}

func TestStallGuardRefiresEveryPullTimeout(t *testing.T) {
	// Pins the stall guard's cadence: the guard does not move
	// lastArrival when it re-primes, so while pulls keep getting lost
	// it re-fires exactly every PullTimeout until a symbol lands.
	cfg := DefaultConfig()
	d := cfg.PullTimeout
	st := topology.NewStar(2, netsim.DefaultConfig())
	sys := NewSystem(st.Net, cfg, 15)

	// Swallow every pull reaching the sender during the blackout
	// window; record arrival times of the swallowed pulls.
	blackout := 9 * time.Millisecond
	var guardPulls []sim.Time
	prev := st.Hosts[0].Deliver
	st.Hosts[0].Deliver = func(p *netsim.Packet) {
		if p.Kind == netsim.KindPull && st.Net.Now() < blackout {
			guardPulls = append(guardPulls, st.Net.Now())
			st.Net.FreePacket(p)
			return
		}
		prev(p)
	}

	var evs []CompletionEvent
	sys.StartUnicast(0, 1, 200<<10, collect(&evs))
	st.Net.Eng.Run()
	if len(evs) != 1 {
		t.Fatal("flow did not complete after the blackout lifted")
	}

	// Discard the initial-window pull burst (all within the first
	// ~1 ms); what remains are guard re-primes. The guard now primes a
	// deficit-sized *burst* of pulls per firing (paced ~12 µs apart by
	// the host pull pacer), so group pulls into bursts and take each
	// burst's first arrival as the firing time. With lastArrival at
	// ~0.3 ms and the guard armed at t=0, firings land at ~4, 6 and
	// 8 ms: exactly PullTimeout apart.
	var refires []sim.Time
	for _, at := range guardPulls {
		if at <= d {
			continue
		}
		if len(refires) == 0 || at-refires[len(refires)-1] > d/2 {
			refires = append(refires, at)
		}
	}
	if len(refires) != 3 {
		t.Fatalf("guard re-prime bursts during blackout = %d (%v), want 3", len(refires), refires)
	}
	for i := 1; i < len(refires); i++ {
		gap := refires[i] - refires[i-1]
		if gap < d-100*time.Microsecond || gap > d+100*time.Microsecond {
			t.Fatalf("re-prime gap %v, want %v±100µs (cadence not pinned)", gap, d)
		}
	}
	assertNoOpenSessions(t, sys)
}

// TestStallGuardRotatesAcrossSenders: the guard's re-prime burst is
// clamped to InitWindow, so with more senders than the window a fixed
// round-robin start would pull the same leading senders every firing
// and permanently starve the rest — fatal when the leading senders
// are the unreachable ones. The rotation must reach every sender.
func TestStallGuardRotatesAcrossSenders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitWindow = 2 // guard burst (2) < sender count (3)
	st := topology.NewStar(5, netsim.DefaultConfig())
	sys := NewSystem(st.Net, cfg, 21)

	// Swallow every data packet during the blackout (killing all pull
	// chains); afterwards only sender host 3 — the *last* entry of the
	// sender list — is reachable, so completion requires the guard's
	// rotation to get past senders 1 and 2.
	blackout := 5 * time.Millisecond
	prev := st.Hosts[0].Deliver
	st.Hosts[0].Deliver = func(p *netsim.Packet) {
		if p.Kind == netsim.KindData && (st.Net.Now() < blackout || p.Src != 3) {
			return
		}
		prev(p)
	}

	var evs []CompletionEvent
	sys.StartMultiSource([]int{1, 2, 3}, 0, 64<<10, collect(&evs))
	st.Net.Eng.RunUntil(2 * time.Second)
	if len(evs) != 1 {
		t.Fatal("session did not complete: the stall guard never reached the only live sender")
	}
}

func TestShuffleAllPairsComplete(t *testing.T) {
	ft, err := topology.NewFatTree(4, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(ft.Net, DefaultConfig(), 16)
	mappers := []int{0, 1, 4}
	reducers := []int{8, 9, 12, 13}
	bytes := func(mi, ri int) int64 { return int64(mi+1) * int64(ri+1) * 8 << 10 }

	doneCalls := 0
	var res ShuffleResult
	flows := sys.StartShuffle(mappers, reducers, bytes, func(r ShuffleResult) {
		doneCalls++
		res = r
	})
	ft.Net.Eng.Run()

	if doneCalls != 1 {
		t.Fatalf("onDone fired %d times, want 1", doneCalls)
	}
	if len(flows) != 12 || len(res.Pairs) != 12 {
		t.Fatalf("pairs = %d flows / %d results, want 12", len(flows), len(res.Pairs))
	}
	var wantTotal int64
	var latest sim.Time
	for mi := range mappers {
		for ri := range reducers {
			p := res.Pairs[mi*len(reducers)+ri]
			if p.Mapper != mappers[mi] || p.Reducer != reducers[ri] {
				t.Fatalf("pair (%d,%d) holds hosts (%d,%d), want mapper-major order", mi, ri, p.Mapper, p.Reducer)
			}
			if p.Bytes != bytes(mi, ri) {
				t.Fatalf("pair (%d,%d) bytes = %d, want %d", mi, ri, p.Bytes, bytes(mi, ri))
			}
			if p.Event.End <= p.Event.Start || p.Event.Receiver != reducers[ri] {
				t.Fatalf("pair (%d,%d) event not filled: %+v", mi, ri, p.Event)
			}
			wantTotal += p.Bytes
			if p.Event.End > latest {
				latest = p.Event.End
			}
		}
	}
	if res.Bytes() != wantTotal {
		t.Fatalf("ShuffleResult.Bytes() = %d, want %d", res.Bytes(), wantTotal)
	}
	if res.End != latest {
		t.Fatalf("End = %v, want latest pair completion %v", res.End, latest)
	}
	assertNoOpenSessions(t, sys)
}

func TestShuffleValidation(t *testing.T) {
	st := topology.NewStar(4, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 17)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	one := func(int, int) int64 { return 1 }
	expectPanic("no mappers", func() { sys.StartShuffle(nil, []int{1}, one, nil) })
	expectPanic("no reducers", func() { sys.StartShuffle([]int{0}, nil, one, nil) })
	expectPanic("nil bytesPerPair", func() { sys.StartShuffle([]int{0}, []int{1}, nil, nil) })
	expectPanic("overlap", func() { sys.StartShuffle([]int{0, 1}, []int{1, 2}, one, nil) })
	expectPanic("non-positive bytes", func() {
		sys.StartShuffle([]int{0}, []int{1}, func(int, int) int64 { return 0 }, nil)
	})
}
