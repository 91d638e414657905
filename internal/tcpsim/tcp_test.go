package tcpsim

import (
	"testing"
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/topology"
)

// tcpNet returns a star network with drop-tail switches (TCP's fabric).
func tcpNet(hosts int) *topology.Star {
	cfg := netsim.DefaultConfig()
	cfg.Trimming = false
	return topology.NewStar(hosts, cfg)
}

// assertAtRest fails the test if, after the simulation has drained, a
// flow is still open or a packet the network created is not back on its
// free list.
func assertAtRest(t *testing.T, sys *System) {
	t.Helper()
	if n := sys.OpenFlows(); n != 0 {
		t.Fatalf("%d flows open after the drain", n)
	}
	if out := sys.Net.PacketsOutstanding(); out != 0 {
		t.Fatalf("%d packets unaccounted for after the drain (leaked if positive, freed twice if negative)", out)
	}
}

func TestSingleFlowCompletes(t *testing.T) {
	st := tcpNet(2)
	sys := NewSystem(st.Net, DefaultConfig())
	var res []FlowResult
	sys.StartFlow(0, 1, 1<<20, func(r FlowResult) { res = append(res, r) })
	st.Net.Eng.Run()
	assertAtRest(t, sys)
	if len(res) != 1 {
		t.Fatalf("completions = %d", len(res))
	}
	r := res[0]
	if r.Bytes != 1<<20 || r.Src != 0 || r.Dst != 1 {
		t.Fatalf("bad result: %+v", r)
	}
	// Uncontended 1 MB: no retransmissions, goodput near line rate.
	if r.Retransmits != 0 || r.Timeouts != 0 {
		t.Fatalf("uncontended flow had %d rtx / %d RTOs", r.Retransmits, r.Timeouts)
	}
	if g := r.GoodputGbps(); g < 0.7 {
		t.Fatalf("uncontended TCP goodput %.3f Gbps", g)
	}
}

func TestTinyFlow(t *testing.T) {
	st := tcpNet(2)
	sys := NewSystem(st.Net, DefaultConfig())
	done := false
	sys.StartFlow(0, 1, 100, func(r FlowResult) { done = true })
	st.Net.Eng.Run()
	if !done {
		t.Fatal("1-segment flow did not complete")
	}
}

func TestSlowStartGrowth(t *testing.T) {
	// A medium flow must beat one-segment-per-RTT pacing by orders of
	// magnitude (i.e., the window actually grows).
	st := tcpNet(2)
	sys := NewSystem(st.Net, DefaultConfig())
	var res []FlowResult
	sys.StartFlow(0, 1, 512<<10, func(r FlowResult) { res = append(res, r) })
	st.Net.Eng.Run()
	if len(res) != 1 {
		t.Fatal("no completion")
	}
	d := res[0].End - res[0].Start
	if d > 20*time.Millisecond {
		t.Fatalf("512 KB took %v — window is not growing", d)
	}
}

func TestCompetingFlowsShare(t *testing.T) {
	// Two flows into the same receiver split the bottleneck roughly
	// evenly over a long transfer. Uses the DC-tuned stack so a tail
	// RTO does not dominate the makespan (the mechanism under test is
	// congestion-window sharing, not timeout behaviour).
	st := tcpNet(3)
	sys := NewSystem(st.Net, TunedConfig())
	var res []FlowResult
	sys.StartFlow(1, 0, 4<<20, func(r FlowResult) { res = append(res, r) })
	sys.StartFlow(2, 0, 4<<20, func(r FlowResult) { res = append(res, r) })
	st.Net.Eng.Run()
	if len(res) != 2 {
		t.Fatalf("completions = %d", len(res))
	}
	var last time.Duration
	for _, r := range res {
		if r.End > last {
			last = r.End
		}
	}
	// Aggregate goodput (total bytes over the makespan) must respect
	// link capacity and not collapse.
	agg := float64(8<<20*8) / last.Seconds() / 1e9
	if agg > 1.0 {
		t.Fatalf("aggregate exceeds link capacity: %.3f Gbps", agg)
	}
	if agg < 0.5 {
		t.Fatalf("aggregate badly underutilizes the link: %.3f Gbps", agg)
	}
}

func TestLossRecoveryViaFastRetransmit(t *testing.T) {
	// Overload a shallow queue: flows must recover via fast retransmit
	// (some retransmissions, bounded by recovery working at all).
	cfg := netsim.DefaultConfig()
	cfg.Trimming = false
	cfg.DropTailCap = 16
	st := topology.NewStar(5, cfg)
	sys := NewSystem(st.Net, DefaultConfig())
	var res []FlowResult
	for s := 1; s <= 4; s++ {
		sys.StartFlow(s, 0, 2<<20, func(r FlowResult) { res = append(res, r) })
	}
	st.Net.Eng.Run()
	assertAtRest(t, sys)
	if len(res) != 4 {
		t.Fatalf("completions = %d, want 4 (flows wedged?)", len(res))
	}
	var rtx int64
	for _, r := range res {
		rtx += r.Retransmits
	}
	if rtx == 0 {
		t.Fatal("4-into-1 with 16-packet buffers should retransmit")
	}
}

func TestIncastCollapse(t *testing.T) {
	// The classic pathology the paper's Fig 1c relies on: many
	// synchronized senders into one port with shallow buffers collapse
	// aggregate goodput (timeouts dominate); Polyraptor's counterpart
	// test (TestIncastNoCollapse) shows the contrast.
	cfg := netsim.DefaultConfig()
	cfg.Trimming = false
	cfg.DropTailCap = 64
	n := 48
	st := topology.NewStar(n+1, cfg)
	sys := NewSystem(st.Net, DefaultConfig())
	var res []FlowResult
	per := int64(256 << 10)
	for s := 1; s <= n; s++ {
		sys.StartFlow(s, 0, per, func(r FlowResult) { res = append(res, r) })
	}
	st.Net.Eng.Run()
	assertAtRest(t, sys)
	if len(res) != n {
		t.Fatalf("completions = %d, want %d", len(res), n)
	}
	var last time.Duration
	var timeouts int64
	for _, r := range res {
		if r.End > last {
			last = r.End
		}
		timeouts += r.Timeouts
	}
	agg := float64(per*int64(n)*8) / last.Seconds() / 1e9
	if timeouts == 0 {
		t.Fatal("48-way incast produced no RTOs; collapse model broken")
	}
	if agg > 0.85 {
		t.Fatalf("aggregate goodput %.3f Gbps — no incast collapse visible", agg)
	}
}

func TestRetransmissionTimeoutRecoversTailLoss(t *testing.T) {
	// Tail loss (last segments of a window dropped, no dupacks) can
	// only be recovered by RTO. Force it with a tiny queue and a short
	// flow burst.
	cfg := netsim.DefaultConfig()
	cfg.Trimming = false
	cfg.DropTailCap = 2
	st := topology.NewStar(4, cfg)
	sys := NewSystem(st.Net, DefaultConfig())
	var res []FlowResult
	for s := 1; s <= 3; s++ {
		sys.StartFlow(s, 0, 64<<10, func(r FlowResult) { res = append(res, r) })
	}
	st.Net.Eng.Run()
	assertAtRest(t, sys)
	if len(res) != 3 {
		t.Fatalf("flows wedged: %d/3 done", len(res))
	}
}

func TestECMPPinsFlowInFatTree(t *testing.T) {
	// TCP over the fat-tree must complete and stay on one core path.
	cfg := netsim.DefaultConfig()
	cfg.Trimming = false
	ft, _ := topology.NewFatTree(4, cfg)
	sys := NewSystem(ft.Net, DefaultConfig())
	var res []FlowResult
	sys.StartFlow(0, 15, 1<<20, func(r FlowResult) { res = append(res, r) })
	ft.Net.Eng.Run()
	assertAtRest(t, sys)
	if len(res) != 1 {
		t.Fatal("fat-tree TCP flow did not complete")
	}
	if g := res[0].GoodputGbps(); g < 0.5 {
		t.Fatalf("fat-tree TCP goodput %.3f", g)
	}
}

func TestFlowResultGoodput(t *testing.T) {
	r := FlowResult{Bytes: 1e9 / 8, Start: 0, End: time.Second}
	if g := r.GoodputGbps(); g < 0.99 || g > 1.01 {
		t.Fatalf("GoodputGbps = %v", g)
	}
}

// TestAckClockAllocatesNothing: once a flow is past slow start, nothing
// on the path of a segment and its ACK allocates — transmit, the links,
// the receiver's out-of-order set, the RTT sample, the RTO re-arm, fast
// retransmit and recovery included (the switch forwards at half the NIC
// rate, so the flow loses a segment every congestion-avoidance cycle).
// polyperf's tcpsim/AckClock cell times the same set-up.
func TestAckClockAllocatesNothing(t *testing.T) {
	st := tcpNet(2)
	st.SW.Ports[1].SetRate(st.Net.Cfg.LinkRate / 2)
	sys := NewSystem(st.Net, TunedConfig())
	sys.StartFlow(0, 1, int64(sys.Cfg.SegPayload)<<18, nil)
	snd := sys.flows[0].snd
	for i := 0; i < 400_000; i++ {
		st.Net.Eng.Step()
	}
	rtx := snd.retransmits
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 20_000; i++ {
			st.Net.Eng.Step()
		}
	})
	if snd.done || snd.retransmits == rtx {
		t.Fatalf("measured nothing: done %v, retransmits %d -> %d", snd.done, rtx, snd.retransmits)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per 20,000 events of a flow in congestion avoidance, want 0", allocs)
	}
}
