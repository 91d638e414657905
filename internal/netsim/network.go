package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"polyraptor/internal/idring"
	"polyraptor/internal/metrics"
	"polyraptor/internal/sim"
	"polyraptor/internal/telemetry"
)

// Node receives packets delivered by a link.
type Node interface {
	Receive(p *Packet)
	addPort(p *Port) int
}

// Config sets the physical and queueing parameters of a network. The
// defaults mirror the paper's evaluation: 1 Gbps links, 10 µs
// propagation delay, NDP-style trimming with a shallow data queue.
type Config struct {
	// LinkRate in bits per second.
	LinkRate int64
	// LinkDelay is the one-way propagation delay per link.
	LinkDelay sim.Time
	// Trimming selects the NDP two-queue switch (true, Polyraptor runs)
	// or classic drop-tail (false, TCP baseline).
	Trimming bool
	// DataQueueCap is the switch data-queue capacity in packets when
	// trimming; NDP's canonical value is 8.
	DataQueueCap int
	// HeaderQueueCap bounds the priority header queue.
	HeaderQueueCap int
	// DropTailCap is the switch queue capacity in packets without
	// trimming ("shallow buffers": 100 packets).
	DropTailCap int
	// ECNThreshold, when positive, makes drop-tail switch queues mark
	// ECN-capable packets at this occupancy (DCTCP's K; ~20 packets at
	// 1 Gbps). Zero disables marking.
	ECNThreshold int
	// HostQueueCap is the host NIC egress queue capacity.
	HostQueueCap int
	// Seed drives ECMP spraying and hashing.
	Seed int64
}

// DefaultConfig returns the paper's network parameters.
func DefaultConfig() Config {
	return Config{
		LinkRate:       1e9,
		LinkDelay:      10 * sim.Time(1000), // 10 µs
		Trimming:       true,
		DataQueueCap:   8,
		HeaderQueueCap: 4096, // headers are 64 B; this is only 256 KB of buffer
		DropTailCap:    100,
		HostQueueCap:   4096,
		Seed:           1,
	}
}

// Network owns the simulation engine, hosts and switches.
type Network struct {
	Eng      *sim.Engine
	Cfg      Config
	Hosts    []*Host
	Switches []*Switch
	// Rec is the PolyScope flight recorder; nil (the default) disables
	// tracing. Every layer above — transports, chaos, the harness —
	// reads it from here, so attaching a recorder to the network is
	// the single switch that turns instrumentation on.
	Rec *telemetry.Recorder
	// QueueHist is the PolyMeter queue-depth histogram, fed with the
	// post-enqueue occupancy of every port queue; nil (the default)
	// disables metering the same way a nil Rec disables tracing, and
	// recording never perturbs simulation state.
	QueueHist *metrics.Histogram
	rng       *rand.Rand
	// lossRNG is the "link-loss" stream. The first SetLossRate seeds it:
	// most fabrics never have a lossy link, and seeding costs 10 µs.
	lossRNG *rand.Rand
	// pktFree is the packet free list behind AllocPacket/FreePacket;
	// pktCreated counts the packets AllocPacket had to make.
	pktFree    []*Packet
	pktCreated int
	// faults counts the ports and switches that are down. While it is
	// zero every candidate of every route is live.
	faults int

	// hot is every port's per-hop state, one cache line each, and ports
	// the handles, both indexed by Port.id in Connect order. slots is the
	// slab the ports' queue rings live in, discs the two queue
	// disciplines (hostDisc, switchDisc) and flight the frames
	// propagating on every link.
	hot     []portHot
	ports   []*Port
	slots   []*Packet
	freeWin [32][]uint32 // freed windows of the slab, by log2 of their size
	discs   [2]discipline
	flight  flight
}

// Flag bits of portHot.flags.
const (
	portUp    = 1 << iota // the link is up
	portBusy              // a frame is serializing (txPkt)
	portCut               // the frame on the wire crossed a down window: lose it
	portLossy             // lossRate > 0
)

// portHot is the state of one port that a hop reads and writes: Send,
// kick, onTxDone and the queue rings touch nothing else of the port but
// its counters and its peer. It is one cache line (TestPortHotIsOneCacheLine), and a
// network keeps them in one dense array, so the ports of a k = 8 fabric
// take 48 KiB.
type portHot struct {
	// txPkt is the frame serializing, nil when the line is idle.
	txPkt *Packet
	// txTime is the serialization time of a txSize-byte frame at the
	// port's rate, the last one kick worked out: frames come in two sizes,
	// and the division is the dearest instruction on the path. SetRate
	// works it out again; txSize is -1 until the first frame, and it is
	// the size of txPkt while one serializes.
	txTime sim.Time
	// txDone completes the serialization of txPkt; one closure per port,
	// made by Connect, so that kick allocates nothing.
	txDone func()
	// data is the data queue when trimming and the only queue otherwise;
	// header is the priority header queue when trimming.
	data, header fifo
	txSize       int32
	flags        uint8 // portUp | portBusy | portCut | portLossy
	disc         uint8 // hostDisc or switchDisc, the index into Network.discs
}

// Indices into Network.discs: host NICs are plain drop-tail at
// HostQueueCap, switch ports take the configured discipline.
const (
	hostDisc = iota
	switchDisc
)

func (h *portHot) queueLen() int { return h.data.len() + h.header.len() }

// inFlight is a frame propagating towards the node at the far end.
type inFlight struct {
	to  Node
	pkt *Packet
}

// flight holds the frames propagating on every link, in the order they
// left their ports. Every link has the network's LinkDelay, every frame
// is scheduled that delay after its serialization ends, and the engine
// fires events in (time, scheduling order), so deliveries come out of
// the engine in exactly the order frames went in, whichever port sent
// them: the head is always the frame that the firing deliver event is
// for. One ring for the network keeps that walk sequential, where a ring
// per port was the first touch of a cold port and a second, dependent
// load.
type flight struct {
	delay   sim.Time
	buf     []inFlight // a ring whose length is zero or a power of two
	head, n uint32
	deliver func() // pops the head and hands it to its node
}

//polyvet:noalloc runs per transmitted frame; a full ring grows out of line
func (f *flight) push(to Node, pkt *Packet) {
	if int(f.n) == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&uint32(len(f.buf)-1)] = inFlight{to, pkt}
	f.n++
}

//polyvet:noalloc runs per delivered frame
func (f *flight) pop() inFlight {
	e := f.buf[f.head]
	f.buf[f.head] = inFlight{}
	f.head = (f.head + 1) & uint32(len(f.buf)-1)
	f.n--
	return e
}

//go:noinline
func (f *flight) grow() {
	buf := make([]inFlight, max(fifoMinCap, 2*len(f.buf)))
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Network {
	if cfg.LinkRate <= 0 {
		panic("netsim: LinkRate must be positive")
	}
	n := &Network{
		Eng: sim.NewEngine(),
		Cfg: cfg,
		rng: sim.RNG(cfg.Seed, "ecmp-spray"),
	}
	n.discs[hostDisc] = discipline{cap: cfg.HostQueueCap}
	n.discs[switchDisc] = discipline{cap: cfg.DropTailCap, markK: cfg.ECNThreshold}
	if cfg.Trimming {
		n.discs[switchDisc] = discipline{trimming: true, cap: cfg.DataQueueCap, headerCap: cfg.HeaderQueueCap}
	}
	f := &n.flight
	f.delay = cfg.LinkDelay
	f.deliver = func() {
		e := f.pop()
		e.to.Receive(e.pkt)
	}
	return n
}

// AddHost creates a host. Its NIC port is created by Connect.
func (n *Network) AddHost() *Host {
	h := &Host{ID: int32(len(n.Hosts)), net: n}
	n.Hosts = append(n.Hosts, h)
	return h
}

// AddSwitch creates a switch with the given name (for diagnostics).
func (n *Network) AddSwitch(name string) *Switch {
	s := &Switch{ID: int32(len(n.Switches)), Name: name, net: n}
	n.Switches = append(n.Switches, s)
	return s
}

// Connect joins two nodes with a full-duplex link (two simplex ports).
// Hosts get a large drop-tail NIC queue (the sender's own buffer);
// switch egress ports get the configured switch discipline. It returns
// the port on a facing b and the port on b facing a.
func (n *Network) Connect(a, b Node) (pa, pb *Port) {
	mk := func(owner, peer Node) *Port {
		disc := uint8(switchDisc)
		if _, isHost := owner.(*Host); isHost {
			disc = hostDisc
		}
		id := int32(len(n.ports))
		p := &Port{
			net:   n,
			id:    id,
			owner: owner,
			peer:  peer,
			rate:  n.Cfg.LinkRate,
		}
		if sw, ok := peer.(*Switch); ok {
			p.peerSwitch = sw
		}
		n.ports = append(n.ports, p)
		n.hot = append(n.hot, portHot{
			txSize: -1,
			txDone: func() { n.onTxDone(id) },
			flags:  portUp,
			disc:   disc,
		})
		p.index = owner.addPort(p)
		// strconv, not fmt: 768 labels are a sixth of the time it takes
		// to build a k=8 fabric.
		switch o := owner.(type) {
		case *Switch:
			p.label = o.Name + ":" + strconv.Itoa(p.index)
		case *Host:
			p.label = "host-" + strconv.Itoa(int(o.ID))
		default:
			p.label = "port-" + strconv.Itoa(p.index)
		}
		return p
	}
	return mk(a, b), mk(b, a)
}

// QueueTotals aggregates queue statistics across every switch port,
// plus the two fault counters: RouteDrops (packets blackholed at a
// switch with no live egress candidate, or arriving at a killed
// switch) and LinkDrops (packets destroyed on a down or lossy link —
// any port, including host NICs).
func (n *Network) QueueTotals() QueueStats {
	var total QueueStats
	for _, s := range n.Switches {
		total.RouteDrops += s.RouteDrops
		for _, p := range s.Ports {
			st := p.QueueStats()
			total.Enqueued += st.Enqueued
			total.Dropped += st.Dropped
			total.Trimmed += st.Trimmed
			total.Marked += st.Marked
			total.LinkDrops += st.LinkDrops
		}
	}
	for _, h := range n.Hosts {
		if h.NIC != nil {
			total.LinkDrops += h.NIC.Lost
		}
	}
	return total
}

// Port is a simplex attachment of a node to a link: an egress queue,
// a serialization rate and a propagation delay to the peer node.
// Ports carry dynamic fault state for chaos injection: an up/down
// flag (down = blackhole: nothing serializes, a frame cut mid-wire is
// lost) and a random loss rate (a transmitted frame is destroyed with
// this probability — a lossy, not dead, link).
//
// A Port is the handle and holds what a hop does not read: its
// per-hop state (link flags, the frame on the wire, the queue rings) is
// the network's hot record at index id, and its frames in flight wait
// in the network's flight FIFO.
type Port struct {
	// What a hop reads or writes of the handle comes first: the peer it
	// delivers to and the counters of a kept or sent frame.
	peer      Node
	TxPackets int64
	TxBytes   int64
	stats     QueueStats

	// Lost counts packets destroyed by link faults: sends attempted
	// while the link was down, frames cut when the link failed
	// mid-serialization, and random losses on a lossy link.
	Lost       int64
	net        *Network
	id         int32 // index into net.hot and net.ports
	owner      Node
	peerSwitch *Switch // peer when it is a switch (avoids a hot-path type assert)
	index      int
	label      string // precomputed Label(), so drop hooks stay allocation-free
	rate       int64
	lossRate   float64
}

// hot returns the port's per-hop record. The pointer is good until the
// next Connect.
func (p *Port) hot() *portHot { return &p.net.hot[p.id] }

// Index returns the port's position in its owner's port list.
func (p *Port) Index() int { return p.index }

// SetRate overrides the port's transmission rate (bits per second),
// e.g. to model a degraded link or a network hotspot. It affects
// packets whose serialization starts after the call.
func (p *Port) SetRate(bps int64) {
	if bps <= 0 {
		panic("netsim: rate must be positive")
	}
	p.rate = bps
	if h := p.hot(); h.txSize >= 0 {
		// Keep the cached serialization time true for the new rate: the
		// frame on the wire (if any) still counts txSize bytes when done.
		h.txTime = txTime(h.txSize, bps)
	}
}

// Rate returns the port's current transmission rate in bits/s.
func (p *Port) Rate() int64 { return p.rate }

// SetUp changes the link's up/down state. Taking a port down stops
// its transmitter: the frame on the wire (if any) is cut and counted
// in Lost, queued packets stay parked, and new Sends are dropped.
// Bringing it back up restarts transmission from the surviving queue.
func (p *Port) SetUp(up bool) {
	h := p.hot()
	if (h.flags&portUp != 0) == up {
		return
	}
	if up {
		h.flags |= portUp
		p.net.faults--
		p.net.kick(p.id)
		return
	}
	h.flags &^= portUp
	p.net.faults++
	if h.flags&portBusy != 0 {
		// Mark the in-flight frame cut now: a flap faster than one
		// serialization time must still lose the frame even though the
		// link is back up when serialization completes.
		h.flags |= portCut
	}
}

// Up reports whether the link is up.
func (p *Port) Up() bool { return p.hot().flags&portUp != 0 }

// SetLossRate makes the link lossy: each transmitted frame is
// destroyed with probability r in [0, 1]. Zero restores a clean link.
func (p *Port) SetLossRate(r float64) {
	if r < 0 || r > 1 {
		panic("netsim: loss rate must be in [0, 1]")
	}
	if r > 0 && p.net.lossRNG == nil {
		p.net.lossRNG = sim.RNG(p.net.Cfg.Seed, "link-loss")
	}
	p.lossRate = r
	if h := p.hot(); r > 0 {
		h.flags |= portLossy
	} else {
		h.flags &^= portLossy
	}
}

// LossRate returns the link's current random-loss probability.
func (p *Port) LossRate() float64 { return p.lossRate }

// Peer returns the node at the far end of the link.
func (p *Port) Peer() Node { return p.peer }

// QueueLen returns the instantaneous queue occupancy in packets.
func (p *Port) QueueLen() int { return p.hot().queueLen() }

// QueueStats returns the port's queue counters plus this port's
// link-fault losses (LinkDrops = Lost). RouteDrops is a switch-level
// counter and stays zero at port granularity.
func (p *Port) QueueStats() QueueStats {
	st := p.stats
	st.LinkDrops = p.Lost
	return st
}

// Label names the port for diagnostics and traces: the owning
// switch's name plus the port index ("core-2:3"), or "host-N" for a
// NIC. Precomputed at wiring time so the drop hooks can pass it
// without formatting on the hot path.
func (p *Port) Label() string { return p.label }

// Send enqueues a packet for transmission. A down link drops it
// immediately (the interface is dead), counted in Lost.
func (p *Port) Send(pkt *Packet) { p.net.send(p.id, pkt) }

// send is Send on port id.
//
//polyvet:noalloc runs per packet per hop
func (n *Network) send(id int32, pkt *Packet) {
	h := &n.hot[id]
	if h.flags&portUp == 0 {
		p := n.ports[id]
		p.Lost++
		n.Rec.RecordLabel(n.Eng.Now(), pkt.Flow, telemetry.EvLinkDrop, -1, p.label)
		n.FreePacket(pkt)
		return
	}
	if !n.enqueue(h, &n.ports[id].stats, pkt) {
		// Dropped; counted by the queue. enqueue reporting false means
		// the packet was kept in no form (a trim keeps the header), so
		// this reference is the last one.
		n.Rec.RecordLabel(n.Eng.Now(), pkt.Flow, telemetry.EvQueueDrop, -1, n.ports[id].label)
		n.FreePacket(pkt)
		return
	}
	n.QueueHist.Record(float64(h.queueLen()))
	n.kick(id)
}

// kick starts transmitting if the line is idle: serialize for
// size*8/rate, then propagate for delay, then deliver to the peer. A
// down link never starts a frame; a link that goes down mid-frame
// loses that frame (checked when serialization completes) and parks
// the rest of the queue until SetUp re-kicks.
//
//polyvet:noalloc runs per transmitted packet; the port's txDone closure is made once, by Connect
func (n *Network) kick(id int32) {
	h := &n.hot[id]
	if h.flags&(portBusy|portUp) != portUp {
		return
	}
	pkt := n.dequeue(h)
	if pkt == nil {
		return
	}
	h.flags |= portBusy
	h.txPkt = pkt
	if pkt.Size != h.txSize {
		h.txSize = pkt.Size
		h.txTime = txTime(pkt.Size, n.ports[id].rate)
	}
	n.Eng.After(h.txTime, h.txDone)
}

// txTime returns the serialization time of a size-byte frame at rate
// bits/s.
func txTime(size int32, rate int64) sim.Time {
	return sim.Time(int64(size) * 8 * 1e9 / rate)
}

// onTxDone completes serialization of the frame on port id's wire:
// account for it, apply link faults, and hand survivors to propagation.
//
//polyvet:noalloc runs per transmitted packet
func (n *Network) onTxDone(id int32) {
	h := &n.hot[id]
	pkt, fl := h.txPkt, h.flags
	h.txPkt = nil
	h.flags = fl &^ (portBusy | portCut)
	p := n.ports[id]
	if fl&portCut != 0 || fl&portUp == 0 {
		// The link failed at some point while this frame was on
		// the wire (it may have already recovered): the frame is
		// cut. kick() resumes the queue if the link is back up and
		// is a no-op while it is still down (recovery re-kicks).
		p.Lost++
		n.Rec.RecordLabel(n.Eng.Now(), pkt.Flow, telemetry.EvLinkDrop, -1, p.label)
		n.FreePacket(pkt)
		n.kick(id)
		return
	}
	p.TxPackets++
	p.TxBytes += int64(h.txSize) // kick set it from pkt.Size: the packet stays untouched
	if fl&portLossy != 0 && n.lossRNG.Float64() < p.lossRate {
		p.Lost++ // corrupted on a lossy link
		n.Rec.RecordLabel(n.Eng.Now(), pkt.Flow, telemetry.EvLinkDrop, -1, p.label)
		n.FreePacket(pkt)
	} else {
		n.flight.push(p.peer, pkt)
		n.Eng.After(n.flight.delay, n.flight.deliver)
	}
	n.kick(id)
}

// Switch is an output-queued switch. Route supplies the candidate
// egress ports for a unicast packet (equal-cost set); the multicast
// table maps a group ID to the egress ports of the group's directed tree
// at this switch (McastPorts and its setters).
type Switch struct {
	net *Network
	// Route returns the equal-cost candidate egress port indices for a
	// unicast packet. Installed by the topology package.
	Route func(pkt *Packet) []int
	// ids holds Ports[i].id: forwarding goes straight to the hot record.
	ids []int32
	// mcast is the multicast table: group ID to the egress ports of
	// the group's tree here.
	mcast idring.Table[[]int]
	down  bool

	ID    int32
	Name  string
	Ports []*Port
	// RouteDrops counts packets blackholed at this switch: arrivals
	// while the switch was killed, and unicast packets whose candidate
	// set was empty or held no live port. Chaos runs report it against
	// queue drops to separate "routed into a hole" from "congested".
	RouteDrops int64

	candBuf []int // scratch for live-candidate filtering (single-threaded sim)
}

func (s *Switch) addPort(p *Port) int {
	s.Ports = append(s.Ports, p)
	s.ids = append(s.ids, p.id)
	return len(s.Ports) - 1
}

// McastPorts returns the egress ports of group g's tree at this switch,
// or nil when g has none. The slice is the table's own: read it, and do
// not keep it past the next change to g.
//
//polyvet:noalloc runs per multicast packet per hop
func (s *Switch) McastPorts(g int32) []int {
	if outs := s.mcast.Get(g); outs != nil {
		return *outs
	}
	return nil
}

// AddMcastPort adds port to group g's tree at this switch; a port the
// tree already has is not added twice.
func (s *Switch) AddMcastPort(g int32, port int) {
	outs := s.mcast.Claim(g)
	if !slices.Contains(*outs, port) {
		*outs = append(*outs, port)
	}
}

// SetMcastPorts replaces group g's egress ports at this switch with a
// copy of ports, duplicates and order as given.
func (s *Switch) SetMcastPorts(g int32, ports []int) {
	outs := s.mcast.Claim(g)
	*outs = append((*outs)[:0], ports...)
}

// RemoveMcastPort takes port out of group g's tree at this switch,
// keeping the order of the rest. A group pruned to no port stays in the
// table, and this switch frees its packets, until RemoveMcastGroup.
func (s *Switch) RemoveMcastPort(g int32, port int) {
	if outs := s.mcast.Get(g); outs != nil {
		if i := slices.Index(*outs, port); i >= 0 {
			*outs = slices.Delete(*outs, i, i+1)
		}
	}
}

// RemoveMcastGroup tears down group g's forwarding state at this switch.
// Its port slice stays in the table for the next group in its slot.
func (s *Switch) RemoveMcastGroup(g int32) {
	if outs := s.mcast.Get(g); outs != nil {
		*outs = (*outs)[:0]
		s.mcast.Free(g)
	}
}

// SetDown kills or restores the whole switch. A killed switch drops
// every arriving packet (counted in RouteDrops) and is filtered out
// of its neighbours' equal-cost candidate sets — the local link-state
// reaction of a real ECMP group. Egress port state is separate: chaos
// takes a killed switch's ports down so queued frames stop draining.
func (s *Switch) SetDown(down bool) {
	if s.down == down {
		return
	}
	s.down = down
	if down {
		s.net.faults++
	} else {
		s.net.faults--
	}
}

// Down reports whether the switch is killed.
func (s *Switch) Down() bool { return s.down }

// portLive reports whether candidate port i can carry traffic: its
// own link is up and, when the peer is a switch, the peer is alive.
func (s *Switch) portLive(i int) bool {
	p := s.Ports[i]
	return p.Up() && (p.peerSwitch == nil || !p.peerSwitch.down)
}

// liveCands filters the equal-cost candidate set to live ports. The
// common all-live case returns the input slice untouched (route
// closures share candidate slices, so they are never mutated) and,
// while nothing in the network is down, unprobed; the filtered copy
// lives in a per-switch scratch buffer.
func (s *Switch) liveCands(cands []int) []int {
	if s.net.faults == 0 {
		return cands
	}
	return s.probeCands(cands)
}

// probeCands is liveCands without the shortcut: it asks every candidate.
func (s *Switch) probeCands(cands []int) []int {
	for i, c := range cands {
		if s.portLive(c) {
			continue
		}
		live := append(s.candBuf[:0], cands[:i]...)
		for _, c2 := range cands[i+1:] {
			if s.portLive(c2) {
				live = append(live, c2)
			}
		}
		s.candBuf = live
		return live
	}
	return cands
}

// Reachable reports whether a unicast packet from host src could reach
// host dst now. It walks the routes, not the graph: every hop offers
// only its switch's Route candidates, kept by the liveness rule Receive
// applies (probeCands), so a detour no switch would take does not
// count. Chaos scoring asks it of flows a deadline cut off.
func (n *Network) Reachable(src, dst int) bool {
	pkt := Packet{Src: int32(src), Dst: int32(dst), Group: -1}
	// A switch that failed once fails again: its candidates depend on
	// Dst alone.
	seen := make([]bool, len(n.Switches))
	var walk func(p *Port) bool
	walk = func(p *Port) bool {
		if !p.Up() {
			return false
		}
		s := p.peerSwitch
		if s == nil {
			return p.peer == Node(n.Hosts[dst])
		}
		if s.down || seen[s.ID] {
			return false
		}
		seen[s.ID] = true
		// probeCands reuses s.candBuf; seen keeps the walk from
		// re-entering s while it iterates.
		for _, c := range s.probeCands(s.Route(&pkt)) {
			if walk(s.Ports[c]) {
				return true
			}
		}
		return false
	}
	return walk(n.Hosts[src].NIC)
}

// Receive forwards a packet: multicast replication along the group
// tree, or unicast via spraying / per-flow ECMP over the live subset
// of the candidate set. A packet with no live candidate is blackholed
// and counted in RouteDrops.
func (s *Switch) Receive(pkt *Packet) {
	n := s.net
	if s.down {
		s.RouteDrops++
		n.Rec.RecordLabel(n.Eng.Now(), pkt.Flow, telemetry.EvRouteDrop, -1, s.Name)
		n.FreePacket(pkt)
		return
	}
	if pkt.Group >= 0 {
		outs := s.McastPorts(pkt.Group)
		if len(outs) == 0 {
			n.FreePacket(pkt) // pruned-empty tree at this switch
			return
		}
		for i, out := range outs {
			if i == len(outs)-1 {
				n.send(s.ids[out], pkt) // last copy moves, not clones
			} else {
				n.send(s.ids[out], n.clonePacket(pkt))
			}
		}
		return
	}
	if s.Route == nil {
		panic(fmt.Sprintf("netsim: switch %s has no route function", s.Name))
	}
	cands := s.liveCands(s.Route(pkt))
	if len(cands) == 0 {
		s.RouteDrops++
		n.Rec.RecordLabel(n.Eng.Now(), pkt.Flow, telemetry.EvRouteDrop, -1, s.Name)
		n.FreePacket(pkt)
		return
	}
	var out int
	switch {
	case len(cands) == 1:
		out = cands[0]
	case pkt.Spray:
		out = cands[n.rng.Intn(len(cands))]
	default:
		out = cands[flowHash(pkt.Flow, pkt.Sender)%uint32(len(cands))]
	}
	n.send(s.ids[out], pkt)
}

// flowHash is a deterministic per-flow ECMP hash (fmix32).
func flowHash(flow, sender int32) uint32 {
	h := uint32(flow)*0x85EBCA6B ^ uint32(sender)*0xC2B2AE35
	h ^= h >> 16
	h *= 0x85EBCA6B
	h ^= h >> 13
	h *= 0xC2B2AE35
	h ^= h >> 16
	return h
}

// Host is an endpoint with a single NIC. Transport protocols register
// a Deliver callback for ingress traffic.
type Host struct {
	ID  int32
	NIC *Port
	nic int32 // NIC.id
	net *Network
	// Deliver is invoked for every packet arriving at the host.
	Deliver func(pkt *Packet)
}

func (h *Host) addPort(p *Port) int {
	h.NIC, h.nic = p, p.id
	return 0
}

// Receive hands an arriving packet to the registered transport.
func (h *Host) Receive(pkt *Packet) {
	if h.Deliver != nil {
		h.Deliver(pkt)
	}
}

// Send transmits a packet from this host.
func (h *Host) Send(pkt *Packet) {
	if h.NIC == nil {
		panic("netsim: host is not connected")
	}
	pkt.Born = h.net.Eng.Now()
	h.net.send(h.nic, pkt)
}

// Now returns the network's current simulated time.
func (n *Network) Now() sim.Time { return n.Eng.Now() }

// RegisterProbes registers timeline gauges for the whole fabric on a
// PolyScope probe: per switch port, instantaneous queue depth, the
// cumulative transmitted bytes (exporters turn deltas into link
// utilization) and cumulative drops (queue + link); per switch, the
// route-drop (blackhole) counter; per host NIC, the same trio. All
// gauges only read counters the simulation maintains anyway, so
// probing never perturbs protocol behaviour.
func (n *Network) RegisterProbes(p *telemetry.Probe) {
	port := func(pt *Port) {
		name := pt.Label()
		p.Gauge("q "+name, "pkt", func() float64 { return float64(pt.QueueLen()) })
		p.Gauge("tx "+name, "bytes-cum", func() float64 { return float64(pt.TxBytes) })
		p.Gauge("drops "+name, "pkt-cum", func() float64 {
			return float64(pt.stats.Dropped + pt.Lost)
		})
	}
	for _, s := range n.Switches {
		sw := s
		p.Gauge("routedrops "+sw.Name, "pkt-cum", func() float64 { return float64(sw.RouteDrops) })
		for _, pt := range sw.Ports {
			port(pt)
		}
	}
	for _, h := range n.Hosts {
		if h.NIC != nil {
			port(h.NIC)
		}
	}
}
