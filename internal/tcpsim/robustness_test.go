package tcpsim

import (
	"testing"
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/topology"
)

func TestBlackholeBacksOffAndNeverCompletes(t *testing.T) {
	// A route to nowhere: the sender must keep backing off its RTO
	// without completing, wedging, or flooding the event queue.
	cfg := netsim.DefaultConfig()
	cfg.Trimming = false
	n := netsim.New(cfg)
	a := n.AddHost()
	sw := n.AddSwitch("s0")
	n.Connect(a, sw)
	sw.Route = func(pkt *netsim.Packet) []int { return nil } // blackhole

	sys := NewSystem(n, TunedConfig())
	completed := false
	sys.StartFlow(0, 0, 1<<20, func(r FlowResult) { completed = true })
	n.Eng.RunUntil(2 * time.Second)
	if completed {
		t.Fatal("flow through a blackhole completed")
	}
	snd := sys.flows[0].snd
	if snd == nil {
		t.Fatal("sender state vanished")
	}
	if snd.timeouts < 3 {
		t.Fatalf("only %d RTOs in 2s of blackhole", snd.timeouts)
	}
	if snd.backoff != sys.Cfg.MaxBackoff {
		t.Fatalf("backoff = %d, want capped at %d", snd.backoff, sys.Cfg.MaxBackoff)
	}
	// Event volume must stay tiny (exponential backoff, not a spin).
	if n.Eng.Processed() > 10000 {
		t.Fatalf("%d events processed for a blackholed flow", n.Eng.Processed())
	}
}

func TestDisjointDirectionsDoNotRetransmit(t *testing.T) {
	// Two flows in opposite directions between the same host pair use
	// disjoint simplex links end to end (full-duplex model): neither
	// may lose a packet or retransmit.
	cfg := netsim.DefaultConfig()
	cfg.Trimming = false
	ft, _ := topology.NewFatTree(4, cfg)
	sys := NewSystem(ft.Net, DefaultConfig())
	var res []FlowResult
	sys.StartFlow(0, 15, 256<<10, func(r FlowResult) { res = append(res, r) })
	sys.StartFlow(15, 0, 256<<10, func(r FlowResult) { res = append(res, r) })
	ft.Net.Eng.Run()
	if len(res) != 2 {
		t.Fatalf("%d/2 flows completed", len(res))
	}
	for _, r := range res {
		if r.Retransmits != 0 || r.Timeouts != 0 {
			t.Fatalf("flow %d->%d retransmitted (%d rtx, %d RTO) on a clean full-duplex path",
				r.Src, r.Dst, r.Retransmits, r.Timeouts)
		}
	}
}

func TestRTTEstimatorConverges(t *testing.T) {
	st := tcpNet(2)
	sys := NewSystem(st.Net, DefaultConfig())
	var got FlowResult
	sys.StartFlow(0, 1, 1<<20, func(r FlowResult) { got = r })
	snd := sys.flows[0].snd
	st.Net.Eng.Run()
	_ = got
	// Base star RTT is ~65µs, but the flow's own slow-start burst
	// queues at its NIC, legitimately inflating sampled RTT
	// (self-induced bufferbloat). Assert the estimate is positive,
	// at least the propagation floor, and far below the RTOmin it
	// protects against.
	if snd.srtt < 40*time.Microsecond || snd.srtt > 50*time.Millisecond {
		t.Fatalf("srtt = %v, want within [40µs, 50ms]", snd.srtt)
	}
}

func TestManyFlowsAllComplete(t *testing.T) {
	// Stress: 50 concurrent flows criss-crossing a fat-tree must all
	// finish (no lost timers, no stuck recoveries).
	cfg := netsim.DefaultConfig()
	cfg.Trimming = false
	ft, _ := topology.NewFatTree(4, cfg)
	sys := NewSystem(ft.Net, TunedConfig())
	done := 0
	for i := 0; i < 50; i++ {
		src := i % ft.NumHosts()
		dst := (i*7 + 3) % ft.NumHosts()
		if src == dst {
			dst = (dst + 1) % ft.NumHosts()
		}
		sys.StartFlow(src, dst, 128<<10, func(r FlowResult) { done++ })
	}
	ft.Net.Eng.Run()
	assertAtRest(t, sys)
	if done != 50 {
		t.Fatalf("%d/50 flows completed", done)
	}
}

func TestZeroByteFlowStillCompletes(t *testing.T) {
	st := tcpNet(2)
	sys := NewSystem(st.Net, DefaultConfig())
	ok := false
	sys.StartFlow(0, 1, 0, func(r FlowResult) { ok = true })
	st.Net.Eng.Run()
	assertAtRest(t, sys)
	if !ok {
		t.Fatal("zero-byte flow never completed")
	}
}
