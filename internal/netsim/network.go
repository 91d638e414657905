package netsim

import (
	"fmt"
	"math/rand"
	"strconv"

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
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Network {
	if cfg.LinkRate <= 0 {
		panic("netsim: LinkRate must be positive")
	}
	return &Network{
		Eng: sim.NewEngine(),
		Cfg: cfg,
		rng: sim.RNG(cfg.Seed, "ecmp-spray"),
	}
}

// AddHost creates a host. Its NIC port is created by Connect.
func (n *Network) AddHost() *Host {
	h := &Host{ID: int32(len(n.Hosts)), net: n}
	n.Hosts = append(n.Hosts, h)
	return h
}

// AddSwitch creates a switch with the given name (for diagnostics).
func (n *Network) AddSwitch(name string) *Switch {
	s := &Switch{ID: int32(len(n.Switches)), Name: name, net: n, Mcast: map[int32][]int{}}
	n.Switches = append(n.Switches, s)
	return s
}

// switchQueue builds the configured queue discipline for a switch
// egress port.
func (n *Network) switchQueue() discipline {
	if n.Cfg.Trimming {
		return discipline{trimming: true, cap: n.Cfg.DataQueueCap, headerCap: n.Cfg.HeaderQueueCap}
	}
	return discipline{cap: n.Cfg.DropTailCap, markK: n.Cfg.ECNThreshold}
}

// Connect joins two nodes with a full-duplex link (two simplex ports).
// Hosts get a large drop-tail NIC queue (the sender's own buffer);
// switch egress ports get the configured switch discipline. It returns
// the port on a facing b and the port on b facing a.
func (n *Network) Connect(a, b Node) (pa, pb *Port) {
	mk := func(owner, peer Node) *Port {
		q := discipline{cap: n.Cfg.HostQueueCap}
		if _, isHost := owner.(*Host); !isHost {
			q = n.switchQueue()
		}
		p := &Port{
			net:   n,
			owner: owner,
			peer:  peer,
			rate:  n.Cfg.LinkRate,
			delay: n.Cfg.LinkDelay,
			queue: q,
			up:    true,
		}
		if sw, ok := peer.(*Switch); ok {
			p.peerSwitch = sw
		}
		p.txDone = p.onTxDone
		p.deliver = p.onDeliver
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
type Port struct {
	net        *Network
	owner      Node
	peer       Node
	peerSwitch *Switch // peer when it is a switch (avoids a hot-path type assert)
	index      int
	label      string // precomputed Label(), so drop hooks stay allocation-free
	rate       int64
	delay      sim.Time
	queue      discipline
	busy       bool
	up         bool
	cut        bool // the in-flight frame crossed a down window: lose it
	lossRate   float64
	// txTime is the serialization time of a txSize-byte frame at txRate,
	// the last one kick worked out: frames come in two sizes, and the
	// division is the dearest instruction on the path.
	txSize int32
	txRate int64
	txTime sim.Time

	// Serialization and propagation state. A port serializes one frame
	// at a time (txPkt) and its propagation delay is constant, so frames
	// in flight arrive strictly in emission order (flight is FIFO). That
	// invariant lets kick reuse two per-port callbacks (txDone, deliver)
	// instead of allocating fresh closures for every packet — the
	// simulator's hottest allocation site before the packet pool.
	txPkt   *Packet
	flight  fifo
	txDone  func()
	deliver func()

	TxPackets int64
	TxBytes   int64
	// Lost counts packets destroyed by link faults: sends attempted
	// while the link was down, frames cut when the link failed
	// mid-serialization, and random losses on a lossy link.
	Lost int64
}

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
}

// Rate returns the port's current transmission rate in bits/s.
func (p *Port) Rate() int64 { return p.rate }

// SetUp changes the link's up/down state. Taking a port down stops
// its transmitter: the frame on the wire (if any) is cut and counted
// in Lost, queued packets stay parked, and new Sends are dropped.
// Bringing it back up restarts transmission from the surviving queue.
func (p *Port) SetUp(up bool) {
	if p.up == up {
		return
	}
	p.up = up
	if up {
		p.net.faults--
		p.kick()
		return
	}
	p.net.faults++
	if p.busy {
		// Mark the in-flight frame cut now: a flap faster than one
		// serialization time must still lose the frame even though the
		// link is back up when serialization completes.
		p.cut = true
	}
}

// Up reports whether the link is up.
func (p *Port) Up() bool { return p.up }

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
}

// LossRate returns the link's current random-loss probability.
func (p *Port) LossRate() float64 { return p.lossRate }

// Peer returns the node at the far end of the link.
func (p *Port) Peer() Node { return p.peer }

// QueueLen returns the instantaneous queue occupancy in packets.
func (p *Port) QueueLen() int { return p.queue.len() }

// QueueStats returns the port's queue counters plus this port's
// link-fault losses (LinkDrops = Lost). RouteDrops is a switch-level
// counter and stays zero at port granularity.
func (p *Port) QueueStats() QueueStats {
	st := p.queue.stats
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
func (p *Port) Send(pkt *Packet) {
	if !p.up {
		p.Lost++
		p.net.Rec.RecordLabel(p.net.Eng.Now(), pkt.Flow, telemetry.EvLinkDrop, -1, p.label)
		p.net.FreePacket(pkt)
		return
	}
	if !p.queue.enqueue(pkt) {
		// Dropped; counted by the queue. enqueue reporting false means
		// the packet was kept in no form (a trim keeps the header), so
		// this reference is the last one.
		p.net.Rec.RecordLabel(p.net.Eng.Now(), pkt.Flow, telemetry.EvQueueDrop, -1, p.label)
		p.net.FreePacket(pkt)
		return
	}
	p.net.QueueHist.Record(float64(p.queue.len()))
	p.kick()
}

// kick starts transmitting if the line is idle: serialize for
// size*8/rate, then propagate for delay, then deliver to the peer. A
// down link never starts a frame; a link that goes down mid-frame
// loses that frame (checked when serialization completes) and parks
// the rest of the queue until SetUp re-kicks.
//
//polyvet:noalloc runs per transmitted packet; the reused txDone/deliver callbacks keep it closure-free
func (p *Port) kick() {
	if p.busy || !p.up {
		return
	}
	pkt := p.queue.dequeue()
	if pkt == nil {
		return
	}
	p.busy = true
	p.txPkt = pkt
	if pkt.Size != p.txSize || p.rate != p.txRate {
		p.txSize, p.txRate = pkt.Size, p.rate
		p.txTime = sim.Time(int64(pkt.Size) * 8 * 1e9 / p.rate)
	}
	p.net.Eng.After(p.txTime, p.txDone)
}

// onTxDone completes serialization of the frame on the wire: account
// for it, apply link faults, and hand survivors to propagation.
func (p *Port) onTxDone() {
	pkt := p.txPkt
	p.txPkt = nil
	p.busy = false
	if p.cut || !p.up {
		// The link failed at some point while this frame was on
		// the wire (it may have already recovered): the frame is
		// cut. kick() resumes the queue if the link is back up and
		// is a no-op while it is still down (recovery re-kicks).
		p.cut = false
		p.Lost++
		p.net.Rec.RecordLabel(p.net.Eng.Now(), pkt.Flow, telemetry.EvLinkDrop, -1, p.label)
		p.net.FreePacket(pkt)
		p.kick()
		return
	}
	p.TxPackets++
	p.TxBytes += int64(pkt.Size)
	if p.lossRate > 0 && p.net.lossRNG.Float64() < p.lossRate {
		p.Lost++ // corrupted on a lossy link
		p.net.Rec.RecordLabel(p.net.Eng.Now(), pkt.Flow, telemetry.EvLinkDrop, -1, p.label)
		p.net.FreePacket(pkt)
	} else {
		p.flight.push(pkt)
		p.net.Eng.After(p.delay, p.deliver)
	}
	p.kick()
}

// onDeliver completes propagation of the oldest in-flight frame. The
// FIFO matches deliveries to packets because the delay is constant and
// the engine fires simultaneous events in scheduling order.
func (p *Port) onDeliver() {
	p.peer.Receive(p.flight.pop())
}

// Switch is an output-queued switch. Route supplies the candidate
// egress ports for a unicast packet (equal-cost set); Mcast maps a
// group ID to the egress ports of the group's directed tree at this
// switch.
type Switch struct {
	ID    int32
	Name  string
	net   *Network
	Ports []*Port
	// Route returns the equal-cost candidate egress port indices for a
	// unicast packet. Installed by the topology package.
	Route func(pkt *Packet) []int
	// Mcast maps group -> egress port indices.
	Mcast map[int32][]int
	// RouteDrops counts packets blackholed at this switch: arrivals
	// while the switch was killed, and unicast packets whose candidate
	// set was empty or held no live port. Chaos runs report it against
	// queue drops to separate "routed into a hole" from "congested".
	RouteDrops int64

	down    bool
	candBuf []int // scratch for live-candidate filtering (single-threaded sim)
}

func (s *Switch) addPort(p *Port) int {
	s.Ports = append(s.Ports, p)
	return len(s.Ports) - 1
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
	return p.up && (p.peerSwitch == nil || !p.peerSwitch.down)
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
		if !p.up {
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
	if s.down {
		s.RouteDrops++
		s.net.Rec.RecordLabel(s.net.Eng.Now(), pkt.Flow, telemetry.EvRouteDrop, -1, s.Name)
		s.net.FreePacket(pkt)
		return
	}
	if pkt.Group >= 0 {
		outs := s.Mcast[pkt.Group]
		if len(outs) == 0 {
			s.net.FreePacket(pkt) // pruned-empty tree at this switch
			return
		}
		for i, out := range outs {
			if i == len(outs)-1 {
				s.Ports[out].Send(pkt) // last copy moves, not clones
			} else {
				s.Ports[out].Send(s.net.clonePacket(pkt))
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
		s.net.Rec.RecordLabel(s.net.Eng.Now(), pkt.Flow, telemetry.EvRouteDrop, -1, s.Name)
		s.net.FreePacket(pkt)
		return
	}
	var out int
	switch {
	case len(cands) == 1:
		out = cands[0]
	case pkt.Spray:
		out = cands[s.net.rng.Intn(len(cands))]
	default:
		out = cands[flowHash(pkt.Flow, pkt.Sender)%uint32(len(cands))]
	}
	s.Ports[out].Send(pkt)
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
	net *Network
	// Deliver is invoked for every packet arriving at the host.
	Deliver func(pkt *Packet)
}

func (h *Host) addPort(p *Port) int {
	h.NIC = p
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
	h.NIC.Send(pkt)
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
			return float64(pt.queue.stats.Dropped + pt.Lost)
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
