package netsim

import (
	"testing"
	"time"

	"polyraptor/internal/sim"
)

// twoHosts builds host-A -- switch -- host-B with the given config.
func twoHosts(cfg Config) (*Network, *Host, *Host, *Switch) {
	n := New(cfg)
	a := n.AddHost()
	b := n.AddHost()
	sw := n.AddSwitch("s0")
	n.Connect(a, sw)
	_, sb := n.Connect(sw, b)
	_ = sb
	// Route: dst 0 -> port 0 (a side), dst 1 -> port 1 (b side).
	sw.Route = func(pkt *Packet) []int {
		return []int{int(pkt.Dst)}
	}
	return n, a, b, sw
}

func TestUnicastDelivery(t *testing.T) {
	cfg := DefaultConfig()
	n, a, b, _ := twoHosts(cfg)
	var got *Packet
	var at sim.Time
	b.Deliver = func(p *Packet) { got, at = p, n.Now() }
	a.Send(&Packet{Flow: 1, Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1})
	n.Eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// Two hops: 2 serializations (12 µs each at 1 Gbps/1500B) + 2
	// propagation delays (10 µs each) = 44 µs.
	want := 44 * time.Microsecond
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestSerializationTimeScalesWithSize(t *testing.T) {
	cfg := DefaultConfig()
	n, a, b, _ := twoHosts(cfg)
	var at sim.Time
	b.Deliver = func(p *Packet) { at = n.Now() }
	a.Send(&Packet{Kind: KindAck, Size: HeaderSize, Src: 0, Dst: 1, Group: -1})
	n.Eng.Run()
	// 64B at 1 Gbps = 512 ns per hop; 2 hops + 20 µs propagation.
	want := sim.Time(2*512) + 20*time.Microsecond
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

// star builds n sender hosts and one receiver all attached to a single
// switch; the receiver's egress port is the congestion point. The
// receiver is host index 0 and its switch port is 0.
func star(cfg Config, senders int) (*Network, []*Host, *Host, *Switch) {
	n := New(cfg)
	sw := n.AddSwitch("s0")
	recv := n.AddHost()
	n.Connect(sw, recv) // switch port 0
	srcs := make([]*Host, senders)
	for i := range srcs {
		srcs[i] = n.AddHost()
		n.Connect(srcs[i], sw) // sender side; switch ports 1..n
	}
	sw.Route = func(pkt *Packet) []int {
		if pkt.Dst == recv.ID {
			return []int{0}
		}
		return nil
	}
	return n, srcs, recv, sw
}

func TestDropTailDropsWhenFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trimming = false
	cfg.DropTailCap = 4
	n, srcs, recv, sw := star(cfg, 8)
	delivered := 0
	recv.Deliver = func(p *Packet) { delivered++ }
	// Eight senders each burst 5 packets that converge on one port.
	for _, s := range srcs {
		for i := 0; i < 5; i++ {
			s.Send(&Packet{Kind: KindData, Size: DataSize, Src: s.ID, Dst: recv.ID, Group: -1, Seq: int64(i)})
		}
	}
	n.Eng.Run()
	if delivered >= 40 {
		t.Fatalf("no drops despite 8-into-1 overload: delivered=%d", delivered)
	}
	st := sw.Ports[0].QueueStats()
	if st.Dropped == 0 {
		t.Fatal("drop-tail queue recorded no drops")
	}
	if st.Trimmed != 0 {
		t.Fatal("drop-tail queue must never trim")
	}
}

func TestTrimQueueTrimsInsteadOfDropping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataQueueCap = 2
	n, srcs, recv, sw := star(cfg, 8)
	full, trimmed := 0, 0
	recv.Deliver = func(p *Packet) {
		if p.Trimmed {
			trimmed++
			if p.Size != HeaderSize {
				t.Errorf("trimmed packet has size %d", p.Size)
			}
			if p.Kind != KindData {
				t.Errorf("trimmed packet changed kind to %v", p.Kind)
			}
		} else {
			full++
		}
	}
	total := 0
	for _, s := range srcs {
		for i := 0; i < 5; i++ {
			s.Send(&Packet{Kind: KindData, Size: DataSize, Src: s.ID, Dst: recv.ID, Group: -1, Seq: int64(i)})
			total++
		}
	}
	n.Eng.Run()
	if trimmed == 0 {
		t.Fatal("no packets were trimmed under overload")
	}
	if full+trimmed != total {
		t.Fatalf("full=%d + trimmed=%d != %d (headers must survive)", full, trimmed, total)
	}
	st := sw.Ports[0].QueueStats()
	if st.Trimmed != int64(trimmed) {
		t.Fatalf("switch counted %d trims, receiver saw %d", st.Trimmed, trimmed)
	}
}

func TestPriorityQueueServesHeadersFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataQueueCap = 50
	n, srcs, recv, _ := star(cfg, 2)
	var order []Kind
	recv.Deliver = func(p *Packet) { order = append(order, p.Kind) }
	// Sender 0 bursts data that queues at the receiver port; sender 1's
	// pull arrives while data is queued and must overtake it.
	for i := 0; i < 6; i++ {
		srcs[0].Send(&Packet{Kind: KindData, Size: DataSize, Src: srcs[0].ID, Dst: recv.ID, Group: -1})
	}
	srcs[1].Send(&Packet{Kind: KindPull, Size: HeaderSize, Src: srcs[1].ID, Dst: recv.ID, Group: -1})
	n.Eng.Run()
	if len(order) != 7 {
		t.Fatalf("delivered %d packets", len(order))
	}
	pos := -1
	for i, k := range order {
		if k == KindPull {
			pos = i
		}
	}
	if pos == len(order)-1 {
		t.Fatalf("pull did not overtake any data packet: order=%v", order)
	}
}

func TestFlowHashStablePerFlowAndSpreadAcrossFlows(t *testing.T) {
	h1 := flowHash(7, 0)
	if h1 != flowHash(7, 0) {
		t.Fatal("flowHash not deterministic")
	}
	buckets := map[uint32]int{}
	for f := int32(0); f < 1000; f++ {
		buckets[flowHash(f, 0)%4]++
	}
	for b, c := range buckets {
		if c < 150 || c > 350 {
			t.Fatalf("ECMP bucket %d has %d/1000 flows; want rough balance", b, c)
		}
	}
}

func TestMulticastReplication(t *testing.T) {
	// one sender host, one switch, three receiver hosts
	cfg := DefaultConfig()
	n := New(cfg)
	src := n.AddHost()
	sw := n.AddSwitch("s0")
	n.Connect(src, sw) // switch port 0
	recvs := make([]*Host, 3)
	got := make([]int, 3)
	for i := range recvs {
		recvs[i] = n.AddHost()
		n.Connect(sw, recvs[i]) // ports 1..3
		idx := i
		recvs[i].Deliver = func(p *Packet) {
			got[idx]++
			if p.Group != 5 {
				t.Errorf("receiver %d got group %d", idx, p.Group)
			}
			if p.Size != DataSize {
				t.Errorf("receiver %d got size %d", idx, p.Size)
			}
		}
	}
	sw.Mcast[5] = []int{1, 2, 3}
	src.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Group: 5})
	n.Eng.Run()
	for i, c := range got {
		if c != 1 {
			t.Fatalf("receiver %d got %d copies", i, c)
		}
	}
}

func TestMulticastClonesAreIndependent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataQueueCap = 1
	n := New(cfg)
	src := n.AddHost()
	sw := n.AddSwitch("s0")
	n.Connect(src, sw)
	a := n.AddHost()
	bHost := n.AddHost()
	n.Connect(sw, a)
	n.Connect(sw, bHost)
	sw.Mcast[1] = []int{1, 2}
	trimsSeen := map[int32]int{}
	a.Deliver = func(p *Packet) {
		if p.Trimmed {
			trimsSeen[a.ID]++
		}
	}
	bHost.Deliver = func(p *Packet) {
		if p.Trimmed {
			trimsSeen[bHost.ID]++
		}
	}
	// Two back-to-back multicast packets: with dataCap=1, the second
	// is trimmed on each egress independently; a shared packet struct
	// would corrupt the sibling copy.
	src.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Group: 1, Seq: 1})
	src.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Group: 1, Seq: 2})
	n.Eng.Run()
	_ = trimsSeen
}

func TestSprayUsesMultiplePaths(t *testing.T) {
	// host -- sw with two parallel "uplink" candidates, counted by port.
	cfg := DefaultConfig()
	n := New(cfg)
	h := n.AddHost()
	sw := n.AddSwitch("s0")
	n.Connect(h, sw) // port 0
	up1 := n.AddHost()
	up2 := n.AddHost()
	n.Connect(sw, up1) // port 1
	n.Connect(sw, up2) // port 2
	sw.Route = func(pkt *Packet) []int { return []int{1, 2} }
	c1, c2 := 0, 0
	up1.Deliver = func(p *Packet) { c1++ }
	up2.Deliver = func(p *Packet) { c2++ }
	for i := 0; i < 200; i++ {
		h.Send(&Packet{Kind: KindData, Size: HeaderSize, Src: 0, Dst: 99, Group: -1, Spray: true, Seq: int64(i)})
	}
	n.Eng.Run()
	if c1 == 0 || c2 == 0 {
		t.Fatalf("spraying used one path only: %d/%d", c1, c2)
	}
	// Per-flow hashing must pin all packets of a flow to one path.
	c1, c2 = 0, 0
	for i := 0; i < 50; i++ {
		h.Send(&Packet{Flow: 9, Kind: KindData, Size: HeaderSize, Src: 0, Dst: 99, Group: -1, Spray: false})
	}
	n.Eng.Run()
	if c1 != 0 && c2 != 0 {
		t.Fatalf("per-flow ECMP split a single flow: %d/%d", c1, c2)
	}
}

func TestHostSendWithoutNICPanics(t *testing.T) {
	n := New(DefaultConfig())
	h := n.AddHost()
	defer func() {
		if recover() == nil {
			t.Fatal("Send on unconnected host did not panic")
		}
	}()
	h.Send(&Packet{})
}

func TestQueueTotalsAggregate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataQueueCap = 1
	n, srcs, recv, _ := star(cfg, 4)
	recv.Deliver = func(p *Packet) {}
	for _, s := range srcs {
		for i := 0; i < 5; i++ {
			s.Send(&Packet{Kind: KindData, Size: DataSize, Src: s.ID, Dst: recv.ID, Group: -1})
		}
	}
	n.Eng.Run()
	tot := n.QueueTotals()
	if tot.Enqueued == 0 {
		t.Fatal("no switch enqueues counted")
	}
	if tot.Trimmed == 0 {
		t.Fatal("expected trims under converging burst with dataCap=1")
	}
}

// The fifo ring keeps FIFO order across wrap-around and growth, and
// its buffer stays within twice the peak occupancy (or its first
// capacity), however many packets pass through it.
func TestFIFOCompaction(t *testing.T) {
	var f fifo
	pushed, popped := int64(0), int64(0)
	pop := func() {
		p := f.pop()
		if p == nil || p.Seq != popped {
			t.Fatalf("pop %d = %+v", popped, p)
		}
		popped++
	}
	// Occupancy steady at a few packets: the head wraps round the first
	// ring over and over, and it never grows.
	for i := 0; i < 10000; i++ {
		f.push(&Packet{Seq: pushed})
		pushed++
		if i >= 4 {
			pop()
		}
	}
	if len(f.buf) != fifoMinCap {
		t.Fatalf("ring holds %d slots at a steady 5 packets, want %d", len(f.buf), fifoMinCap)
	}
	// Three in, two out: the occupancy climbs by one a round, so the
	// ring grows while its head sits mid-buffer.
	peak := 0
	for round := 0; round < 300; round++ {
		for i := 0; i < 3; i++ {
			f.push(&Packet{Seq: pushed})
			pushed++
		}
		peak = max(peak, f.len())
		pop()
		pop()
	}
	if n := len(f.buf); n > 2*peak || n&(n-1) != 0 {
		t.Fatalf("ring holds %d slots for a peak of %d packets", n, peak)
	}
	for popped < pushed {
		pop()
	}
	if f.pop() != nil || f.len() != 0 {
		t.Fatal("pop on empty fifo")
	}
}

// The trimming discipline of a Connect-built switch port: data beyond
// DataQueueCap is trimmed into the header queue, a header beyond
// HeaderQueueCap is dropped, and headers leave first, each queue in
// arrival order.
func TestTrimDisciplineCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataQueueCap, cfg.HeaderQueueCap = 2, 3
	port := switchPort(cfg)
	q := &port.queue
	data := func(seq int64) *Packet { return &Packet{Kind: KindData, Size: DataSize, Seq: seq} }
	pull := func(seq int64) *Packet { return &Packet{Kind: KindPull, Size: HeaderSize, Seq: seq} }
	for i, c := range []struct {
		p       *Packet
		kept    bool
		trimmed bool
	}{
		{data(0), true, false},
		{data(1), true, false},
		{data(2), true, true}, // data queue full: trimmed into the header queue
		{pull(3), true, false},
		{pull(4), true, false}, // header queue now full
		{pull(5), false, false},
		{data(6), false, false}, // would be trimmed, but no header room
	} {
		if kept := q.enqueue(c.p); kept != c.kept || c.p.Trimmed != c.trimmed {
			t.Fatalf("packet %d: kept=%v trimmed=%v, want %v and %v", i, kept, c.p.Trimmed, c.kept, c.trimmed)
		}
	}
	st := port.QueueStats()
	if st.Enqueued != 5 || st.Trimmed != 1 || st.Dropped != 2 || port.QueueLen() != 5 {
		t.Fatalf("stats %+v with %d queued, want 5 enqueued, 1 trimmed, 2 dropped", st, port.QueueLen())
	}
	for _, want := range []int64{2, 3, 4, 0, 1} {
		if p := q.dequeue(); p == nil || p.Seq != want {
			t.Fatalf("dequeued %+v, want seq %d", p, want)
		}
	}
	if q.dequeue() != nil {
		t.Fatal("dequeue on an empty discipline")
	}
}

// TestPacketsOutstanding: the count is zero at rest, counts packets
// parked behind a dead link as accounted for, reads a leak positive and a
// double free negative.
func TestPacketsOutstanding(t *testing.T) {
	n, a, b, _ := twoHosts(DefaultConfig())
	b.Deliver = func(p *Packet) { n.FreePacket(p) }
	send := func() {
		p := n.AllocPacket()
		p.Kind, p.Size, p.Dst, p.Group = KindData, DataSize, 1, -1
		a.Send(p)
	}
	for i := 0; i < 3; i++ {
		send()
	}
	if got := n.PacketsOutstanding(); got != 1 {
		t.Fatalf("one frame on the wire and two queued: %d outstanding, want 1", got)
	}
	n.Eng.Run()
	if got := n.PacketsOutstanding(); got != 0 {
		t.Fatalf("%d outstanding after the drain", got)
	}
	// The link dies under three more: the frame on the wire is cut and
	// freed, two stay parked in the NIC's queue.
	for i := 0; i < 3; i++ {
		send()
	}
	a.NIC.SetUp(false)
	n.Eng.Run()
	if got, parked := n.PacketsOutstanding(), a.NIC.QueueLen(); got != 0 || parked != 2 {
		t.Fatalf("%d outstanding with %d parked behind a dead link, want 0 and 2", got, parked)
	}
	leaked := n.AllocPacket()
	if got := n.PacketsOutstanding(); got != 1 {
		t.Fatalf("%d outstanding with one packet held, want 1", got)
	}
	n.FreePacket(leaked)
	n.FreePacket(leaked)
	if got := n.PacketsOutstanding(); got != -1 {
		t.Fatalf("%d outstanding after a double free, want -1", got)
	}
}
