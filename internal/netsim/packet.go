// Package netsim is a packet-level data-centre network simulator built
// on the discrete-event engine in internal/sim. It models
// store-and-forward output-queued switches with either classic
// drop-tail queues (the TCP baseline) or NDP's two-queue architecture —
// a short data queue plus a priority header queue with packet trimming
// (Handley et al., SIGCOMM 2017) — which Polyraptor adopts; drop-tail
// queues can also mark ECN-capable packets at a threshold (DCTCP,
// Alizadeh et al., SIGCOMM 2010). New builds the disciplines from the
// Config (host NICs are always plain drop-tail), and a port's queues are
// rings that grow by doubling to their peak occupancy and
// never slide. Unicast forwarding supports per-flow ECMP hashing and
// per-packet spraying over equal-cost paths; multicast forwarding
// replicates packets along per-group directed trees, the paper's
// "native support for multicasting".
//
// The per-hop path is laid out for the cache. What Send, kick and
// onTxDone touch of a port is one 64-byte record in a dense array per
// network (portHot: the link flags, the frame on the wire, its
// serialization time and the two queue rings, whose slots live in one
// slab); the Port is the handle and keeps the rest. Frames in flight
// wait in one FIFO for the whole network, not a ring per port, and a
// switch's multicast table is an idring.Table keyed by group ID.
package netsim

import "polyraptor/internal/sim"

// Kind classifies packets for queueing and protocol dispatch.
type Kind uint8

const (
	// KindData carries payload (a symbol or a TCP segment).
	KindData Kind = iota
	// KindPull is a Polyraptor pull request (receiver -> sender).
	KindPull
	// KindAck is an acknowledgement (TCP ACK or Polyraptor control).
	KindAck
	// KindCtrl is session control (establishment, completion).
	KindCtrl
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindPull:
		return "pull"
	case KindAck:
		return "ack"
	case KindCtrl:
		return "ctrl"
	}
	return "unknown"
}

// Wire sizes in bytes. DataSize is a full-MTU packet whose payload
// (PayloadSize) is an encoding symbol or TCP segment; HeaderSize is a
// trimmed data packet, and also the size of pulls and acks.
const (
	DataSize    = 1500
	HeaderSize  = 64
	PayloadSize = DataSize - HeaderSize // 1436
)

// Packet is the unit of simulation. Packets are passed by pointer and
// owned by the network once sent; multicast replication copies the
// struct.
type Packet struct {
	// Flow identifies the transport session (or TCP subflow).
	Flow int32
	// Kind is the protocol role of the packet.
	Kind Kind
	// Size is the current wire size in bytes (shrinks when trimmed).
	Size int32
	// Src and Dst are host IDs. Dst is ignored for multicast packets.
	Src, Dst int32
	// Group is the multicast group ID, or -1 for unicast.
	Group int32
	// Spray selects per-packet ECMP (true, Polyraptor) versus
	// per-flow hashing (false, TCP).
	Spray bool
	// Trimmed marks a data packet whose payload was cut by an
	// overloaded queue; only the header reached the receiver.
	Trimmed bool
	// Seq is the protocol sequence number (ESI for Polyraptor symbols,
	// byte sequence for TCP).
	Seq int64
	// SBN is the source block number for multi-block objects.
	SBN int32
	// Sender disambiguates the origin in multi-source sessions.
	Sender int32
	// ECNCapable marks the packet as ECN-capable transport (DCTCP
	// data segments).
	ECNCapable bool
	// ECNMarked is set by a queue whose occupancy exceeded its marking
	// threshold (CE codepoint).
	ECNMarked bool
	// ECNEcho is the receiver's echo of a mark back to the sender
	// (carried on ACKs).
	ECNEcho bool
	// Enqueued at origin, used for FCT-style diagnostics.
	Born sim.Time
}

// priority reports whether the packet belongs in the high-priority
// header queue of an NDP switch: control traffic and trimmed headers.
func (p *Packet) priority() bool {
	return p.Trimmed || p.Kind != KindData
}

// trim cuts the payload, leaving a header that still carries all
// addressing and sequencing metadata (NDP's key mechanism: the
// receiver learns what was lost and keeps the control loop tight).
func (p *Packet) trim() {
	p.Trimmed = true
	p.Size = HeaderSize
}

// AllocPacket returns a zeroed packet, reusing one retired via
// FreePacket when possible. The simulation is single-threaded, so a
// plain LIFO free list is both faster and more deterministic than
// sync.Pool (no per-P caches, no GC-cycle eviction). Transports
// allocate every outbound packet here so long experiments run the
// packet path allocation-free at steady state.
func (n *Network) AllocPacket() *Packet {
	if l := len(n.pktFree); l > 0 {
		p := n.pktFree[l-1]
		n.pktFree = n.pktFree[:l-1]
		*p = Packet{}
		return p
	}
	n.pktCreated++
	return &Packet{}
}

// PacketsOutstanding returns how many of the packets AllocPacket created
// are neither on the free list nor waiting in a port's queue. Once the
// engine has drained nothing is on a wire or inside a transport, so it
// must be 0: a leak reads positive, a double free negative (and so does a
// packet the caller made itself and let the network free).
func (n *Network) PacketsOutstanding() int {
	out := n.pktCreated - len(n.pktFree)
	for _, s := range n.Switches {
		for _, p := range s.Ports {
			out -= p.QueueLen()
		}
	}
	for _, h := range n.Hosts {
		if h.NIC != nil {
			out -= h.NIC.QueueLen()
		}
	}
	return out
}

// FreePacket retires a packet to the network's free list. The caller
// must hold the packet's only live reference: the next AllocPacket may
// hand it out again. The network itself retires every packet it
// destroys (down-link and queue drops, cut frames, lossy-link losses,
// blackholes); transports retire delivered packets once dispatch
// returns. Freeing nil is a no-op so drop paths need no guards.
func (n *Network) FreePacket(p *Packet) {
	if p == nil {
		return
	}
	n.pktFree = append(n.pktFree, p)
}

// clonePacket copies p for multicast replication through the pool.
func (n *Network) clonePacket(p *Packet) *Packet {
	cp := n.AllocPacket()
	*cp = *p
	return cp
}
