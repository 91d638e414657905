package netsim

import (
	"slices"
	"testing"
	"time"

	"polyraptor/internal/sim"
)

// Fault-injection regression tests: the Port/Switch dynamics the chaos
// engine leans on — link down mid-serialization, SetRate mid-run,
// recovery re-kick, live-candidate filtering and blackhole counting.

func TestRouteDropsCountsBlackholedPackets(t *testing.T) {
	cfg := DefaultConfig()
	n, srcs, recv, sw := star(cfg, 2)
	delivered := 0
	recv.Deliver = func(p *Packet) { delivered++ }
	// Dst 99 has no route: the star Route helper returns nil.
	srcs[0].Send(&Packet{Kind: KindData, Size: DataSize, Src: srcs[0].ID, Dst: 99, Group: -1})
	srcs[0].Send(&Packet{Kind: KindData, Size: DataSize, Src: srcs[0].ID, Dst: recv.ID, Group: -1})
	srcs[1].Send(&Packet{Kind: KindData, Size: DataSize, Src: srcs[1].ID, Dst: 99, Group: -1})
	n.Eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d routable packets, want 1", delivered)
	}
	if sw.RouteDrops != 2 {
		t.Fatalf("switch RouteDrops = %d, want 2", sw.RouteDrops)
	}
	tot := n.QueueTotals()
	if tot.RouteDrops != 2 {
		t.Fatalf("QueueTotals().RouteDrops = %d, want 2", tot.RouteDrops)
	}
}

func TestPortDownMidSerializationCutsFrameAndRecoveryRekicks(t *testing.T) {
	cfg := DefaultConfig()
	n, a, b, _ := twoHosts(cfg)
	delivered := 0
	b.Deliver = func(p *Packet) { delivered++ }
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1, Seq: int64(i)})
	}
	// Full-size frame serializes in 12 µs at 1 Gbps; fail the link while
	// the first frame is on the wire.
	n.Eng.RunUntil(5 * time.Microsecond)
	a.NIC.SetUp(false)
	n.Eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d packets across a dead link", delivered)
	}
	if a.NIC.Lost != 1 {
		t.Fatalf("cut frame: Lost = %d, want 1", a.NIC.Lost)
	}
	if a.NIC.TxPackets != 0 {
		t.Fatalf("cut frame still counted as transmitted: TxPackets = %d", a.NIC.TxPackets)
	}
	if got := a.NIC.QueueLen(); got != 2 {
		t.Fatalf("queue parked %d packets while down, want 2", got)
	}
	// A send attempted while the link is down is dropped at the
	// interface, not queued.
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1, Seq: 9})
	if a.NIC.Lost != 2 {
		t.Fatalf("send on down link: Lost = %d, want 2", a.NIC.Lost)
	}
	if got := a.NIC.QueueLen(); got != 2 {
		t.Fatalf("send on down link was queued: QueueLen = %d", got)
	}
	// Recovery re-kicks the transmitter and drains the parked queue.
	a.NIC.SetUp(true)
	n.Eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d packets after recovery, want 2", delivered)
	}
	if tot := n.QueueTotals(); tot.LinkDrops != 2 {
		t.Fatalf("QueueTotals().LinkDrops = %d, want 2", tot.LinkDrops)
	}
}

// TestFastFlapStillCutsInFlightFrame: a down->up cycle completing
// within one frame's serialization time must still lose that frame —
// the cut is recorded when the link goes down, not inferred from the
// link state at serialization end.
func TestFastFlapStillCutsInFlightFrame(t *testing.T) {
	cfg := DefaultConfig()
	n, a, b, _ := twoHosts(cfg)
	delivered := 0
	b.Deliver = func(p *Packet) { delivered++ }
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1, Seq: 0})
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1, Seq: 1})
	// Frame 0 serializes over [0, 12 µs); flap down at 4 µs and back
	// up at 6 µs — the link is up again before serialization ends.
	n.Eng.RunUntil(4 * time.Microsecond)
	a.NIC.SetUp(false)
	n.Eng.RunUntil(6 * time.Microsecond)
	a.NIC.SetUp(true)
	n.Eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d frames, want 1 (flapped frame must be cut, next frame must flow)", delivered)
	}
	if a.NIC.Lost != 1 {
		t.Fatalf("Lost = %d, want 1", a.NIC.Lost)
	}
}

func TestSetRateMidRunAffectsLaterFrames(t *testing.T) {
	cfg := DefaultConfig()
	n, a, b, _ := twoHosts(cfg)
	var at []sim.Time
	b.Deliver = func(p *Packet) { at = append(at, n.Now()) }
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1, Seq: 0})
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1, Seq: 1})
	// Halve the NIC rate while frame 0 is serializing: frame 0 keeps its
	// in-flight 12 µs serialization; frame 1 starts after the call and
	// takes 24 µs.
	n.Eng.RunUntil(1 * time.Microsecond)
	a.NIC.SetRate(cfg.LinkRate / 2)
	n.Eng.Run()
	if len(at) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(at))
	}
	// Frame 0: 12 µs NIC + 10 µs prop + 12 µs switch + 10 µs prop.
	if want := 44 * time.Microsecond; at[0] != want {
		t.Fatalf("frame 0 delivered at %v, want %v", at[0], want)
	}
	// Frame 1: NIC 12..36 µs at the halved rate, switch egress idle by
	// arrival (46 µs), so 46 + 12 + 10.
	if want := 68 * time.Microsecond; at[1] != want {
		t.Fatalf("frame 1 delivered at %v, want %v (SetRate must only affect later frames)", at[1], want)
	}
}

// forkTopology is host -> swA with two switch uplinks (swB, swC), each
// feeding its own leaf host — the minimal fabric for candidate
// filtering: swA.Route offers both uplinks as equal cost.
func forkTopology(cfg Config) (n *Network, src *Host, swA, swB, swC *Switch, leafB, leafC *Host) {
	n = New(cfg)
	src = n.AddHost()
	swA = n.AddSwitch("swA")
	swB = n.AddSwitch("swB")
	swC = n.AddSwitch("swC")
	n.Connect(src, swA) // swA port 0
	n.Connect(swA, swB) // swA port 1, swB port 0
	n.Connect(swA, swC) // swA port 2, swC port 0
	leafB = n.AddHost()
	leafC = n.AddHost()
	n.Connect(swB, leafB) // swB port 1
	n.Connect(swC, leafC) // swC port 1
	swA.Route = func(pkt *Packet) []int { return []int{1, 2} }
	swB.Route = func(pkt *Packet) []int { return []int{1} }
	swC.Route = func(pkt *Packet) []int { return []int{1} }
	return
}

func TestDownPortFilteredFromCandidates(t *testing.T) {
	n, src, swA, _, _, leafB, leafC := forkTopology(DefaultConfig())
	gotB, gotC := 0, 0
	leafB.Deliver = func(p *Packet) { gotB++ }
	leafC.Deliver = func(p *Packet) { gotC++ }
	// Per-flow ECMP: find a flow that hashes onto port 1 (toward swB).
	var flow int32
	for flow = 0; ; flow++ {
		if flowHash(flow, 0)%2 == 0 {
			break
		}
	}
	src.Send(&Packet{Flow: flow, Kind: KindData, Size: HeaderSize, Src: 0, Dst: 9, Group: -1})
	n.Eng.Run()
	if gotB != 1 || gotC != 0 {
		t.Fatalf("flow did not hash to swB: B=%d C=%d", gotB, gotC)
	}
	// Take the swA->swB link down: the ECMP group shrinks and the same
	// flow rehashes onto the surviving uplink instead of blackholing.
	swA.Ports[1].SetUp(false)
	src.Send(&Packet{Flow: flow, Kind: KindData, Size: HeaderSize, Src: 0, Dst: 9, Group: -1})
	n.Eng.Run()
	if gotC != 1 {
		t.Fatalf("flow was not rerouted onto the live uplink: B=%d C=%d", gotB, gotC)
	}
	if swA.RouteDrops != 0 {
		t.Fatalf("live candidate remained but RouteDrops = %d", swA.RouteDrops)
	}
}

func TestKilledSwitchFilteredAndBlackholing(t *testing.T) {
	n, src, swA, swB, swC, leafB, leafC := forkTopology(DefaultConfig())
	gotB, gotC := 0, 0
	leafB.Deliver = func(p *Packet) { gotB++ }
	leafC.Deliver = func(p *Packet) { gotC++ }
	send := func(k int) {
		for i := 0; i < k; i++ {
			src.Send(&Packet{Kind: KindData, Size: HeaderSize, Src: 0, Dst: 9, Group: -1, Spray: true, Seq: int64(i)})
		}
		n.Eng.Run()
	}
	send(40)
	if gotB == 0 || gotC == 0 {
		t.Fatalf("spray did not use both uplinks: B=%d C=%d", gotB, gotC)
	}
	// Kill swB: swA must filter it from the candidate set (local
	// link-state reaction) and deliver everything via swC.
	swB.SetDown(true)
	b0, c0 := gotB, gotC
	send(40)
	if gotB != b0 {
		t.Fatalf("packets still delivered through a killed switch: B %d -> %d", b0, gotB)
	}
	if gotC != c0+40 {
		t.Fatalf("survivor uplink got %d/40 packets", gotC-c0)
	}
	// Kill swC too: no live candidate remains, so swA blackholes.
	swC.SetDown(true)
	send(10)
	if swA.RouteDrops != 10 {
		t.Fatalf("swA.RouteDrops = %d, want 10", swA.RouteDrops)
	}
	// A packet that reaches a killed switch directly is blackholed
	// there (in-flight arrivals during the kill).
	swB.SetDown(false)
	send(5) // all five go via swB (swC still dead)
	if gotB != b0+5 {
		t.Fatalf("restored switch did not carry traffic: B=%d want %d", gotB, b0+5)
	}
}

func TestLossyLinkDropsAboutTheConfiguredFraction(t *testing.T) {
	cfg := DefaultConfig()
	n, a, b, _ := twoHosts(cfg)
	delivered := 0
	b.Deliver = func(p *Packet) { delivered++ }
	a.NIC.SetLossRate(0.5)
	const sent = 400
	for i := 0; i < sent; i++ {
		a.Send(&Packet{Kind: KindData, Size: HeaderSize, Src: 0, Dst: 1, Group: -1, Seq: int64(i)})
	}
	n.Eng.Run()
	if delivered < sent/4 || delivered > sent*3/4 {
		t.Fatalf("delivered %d/%d at loss rate 0.5", delivered, sent)
	}
	if a.NIC.Lost != int64(sent-delivered) {
		t.Fatalf("Lost = %d, want %d", a.NIC.Lost, sent-delivered)
	}
	a.NIC.SetLossRate(0) // clean link again
	delivered = 0
	for i := 0; i < 50; i++ {
		a.Send(&Packet{Kind: KindData, Size: HeaderSize, Src: 0, Dst: 1, Group: -1})
	}
	n.Eng.Run()
	if delivered != 50 {
		t.Fatalf("recovered link delivered %d/50", delivered)
	}
}

func TestSetLossRateValidation(t *testing.T) {
	n, a, _, _ := twoHosts(DefaultConfig())
	_ = n
	for _, bad := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetLossRate(%v) did not panic", bad)
				}
			}()
			a.NIC.SetLossRate(bad)
		}()
	}
}

// TestLiveCandsFastPathMatches flaps ports and switches at random,
// redundant calls included, and holds liveCands — which skips the probe
// while the network counts nothing down — to the per-candidate probe on
// every switch after every step. The count must equal what is down, and
// be zero again once everything is back up.
func TestLiveCandsFastPathMatches(t *testing.T) {
	n, _, swA, swB, swC, _, _ := forkTopology(DefaultConfig())
	switches := []*Switch{swA, swB, swC}
	var ports []*Port
	for _, s := range switches {
		ports = append(ports, s.Ports...)
	}
	for _, h := range n.Hosts {
		ports = append(ports, h.NIC)
	}
	check := func(step int) {
		t.Helper()
		down := 0
		for _, p := range ports {
			if !p.Up() {
				down++
			}
		}
		for _, s := range switches {
			if s.Down() {
				down++
			}
		}
		if n.faults != down {
			t.Fatalf("step %d: network counts %d down, %d are", step, n.faults, down)
		}
		for _, s := range switches {
			all := make([]int, len(s.Ports))
			for i := range all {
				all[i] = i
			}
			for _, cands := range [][]int{all, all[1:], all[:1], nil} {
				got := slices.Clone(s.liveCands(cands))
				if want := s.probeCands(cands); !slices.Equal(got, want) {
					t.Fatalf("step %d: %s.liveCands(%v) = %v, probe says %v (%d down)", step, s.Name, cands, got, want, down)
				}
			}
		}
	}
	rng := sim.RNG(5, "flap")
	check(-1)
	for step := 0; step < 2000; step++ {
		// Mostly up, so that the count passes through zero often.
		up := rng.Intn(3) > 0
		if i := rng.Intn(len(ports) + len(switches)); i < len(ports) {
			ports[i].SetUp(up)
		} else {
			switches[i-len(ports)].SetDown(!up)
		}
		check(step)
	}
	for _, p := range ports {
		p.SetUp(true)
	}
	for _, s := range switches {
		s.SetDown(false)
	}
	check(2000)
	if n.faults != 0 {
		t.Fatalf("everything is back up and the network still counts %d down", n.faults)
	}
}
