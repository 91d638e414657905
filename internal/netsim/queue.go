package netsim

import "math/bits"

// QueueStats counts what happened to packets at this queue, plus the
// two fault counters. The queue discipline itself never fills the
// fault fields: Port.QueueStats fills LinkDrops (that port's Lost),
// and Network.QueueTotals additionally aggregates per-switch
// RouteDrops blackholes and host-NIC losses.
type QueueStats struct {
	Enqueued   int64
	Dropped    int64
	Trimmed    int64
	Marked     int64
	RouteDrops int64
	LinkDrops  int64
}

// fifoMinCap is a fifo ring's first capacity (a power of two).
const fifoMinCap = 16

// fifo is a ring of packets whose size is zero or a power of two. Its
// slots are a window of the network's shared slot slab (Network.slots),
// so the ring itself is four words with no pointer and a port's two
// rings fit its hot record. A full ring moves to a window twice its
// size, and nothing ever slides, so a push or a pop is one store and a
// mask.
type fifo struct {
	off  uint32 // the ring's first slot in Network.slots
	size uint32 // slots in the ring: zero or a power of two
	head uint32 // ring index of the oldest packet
	n    uint32 // packets held
}

func (f *fifo) len() int { return int(f.n) }

//polyvet:noalloc runs per packet per hop; a full ring grows out of line
func (n *Network) push(f *fifo, p *Packet) {
	if f.n == f.size {
		n.grow(f)
	}
	n.slots[f.off+(f.head+f.n)&(f.size-1)] = p
	f.n++
}

//polyvet:noalloc runs per packet per hop
func (n *Network) pop(f *fifo) *Packet {
	if f.n == 0 {
		return nil
	}
	i := f.off + f.head
	p := n.slots[i]
	n.slots[i] = nil
	f.head = (f.head + 1) & (f.size - 1)
	f.n--
	return p
}

// grow moves a full ring into a window twice its size, oldest packet
// first, and hands its old window, cleared, to the next ring that grows
// to that size: windows are kept by size (Network.freeWin), so the slab
// holds about what the rings hold. A window no ring has freed comes off
// the end of the slab, which doubles when full. noinline keeps its
// allocation out of push under the compiler-verified gate.
//
//go:noinline
func (n *Network) grow(f *fifo) {
	size := max(fifoMinCap, 2*f.size)
	class := bits.TrailingZeros32(size)
	var off uint32
	if free := n.freeWin[class]; len(free) > 0 {
		off, n.freeWin[class] = free[len(free)-1], free[:len(free)-1]
	} else {
		end := uint64(len(n.slots)) + uint64(size)
		if end > 1<<32 {
			panic("netsim: queue slot slab exhausted")
		}
		if end > uint64(cap(n.slots)) {
			slab := make([]*Packet, len(n.slots), max(2*cap(n.slots), int(end)))
			copy(slab, n.slots)
			n.slots = slab
		}
		off = uint32(len(n.slots))
		n.slots = n.slots[:end]
	}
	if f.size > 0 {
		old := n.slots[f.off : f.off+f.size]
		k := copy(n.slots[off:], old[f.head:])
		copy(n.slots[off+uint32(k):], old[:f.head])
		clear(old)
		class := bits.TrailingZeros32(f.size)
		n.freeWin[class] = append(n.freeWin[class], f.off)
	}
	f.off, f.size, f.head = off, size, 0
}

// discipline is a port's queueing rule, built by New from the Config
// (see the package doc): a network has two, its host NICs' and its
// switch ports', and a port names its own by index (portHot.disc).
// Trimming cuts a data packet that finds the data queue full to its
// header and queues it with priority, so the receiver learns of the loss
// within one RTT; headers, pulls and acks always take the priority
// queue.
type discipline struct {
	trimming  bool
	cap       int // packets: the data queue's when trimming, the queue's otherwise
	headerCap int // the header queue's capacity when trimming
	markK     int // drop-tail's ECN mark threshold; zero or less disables marking
}

// enqueue queues p on the port whose hot record is h and whose counters
// are st, trimming or marking it on the way, and reports whether it was
// kept in any form. The data ring is the only queue without trimming.
//
//polyvet:noalloc runs per packet per hop
func (n *Network) enqueue(h *portHot, st *QueueStats, p *Packet) bool {
	q := &n.discs[h.disc]
	switch {
	case !q.trimming:
		if h.data.len() >= q.cap {
			st.Dropped++
			return false
		}
		if q.markK > 0 && p.ECNCapable && h.data.len() >= q.markK {
			p.ECNMarked = true
			st.Marked++
		}
		n.push(&h.data, p)
	case p.priority():
		if h.header.len() >= q.headerCap {
			st.Dropped++
			return false
		}
		n.push(&h.header, p)
	case h.data.len() >= q.cap:
		// Trim: payload is cut, header survives with priority.
		if h.header.len() >= q.headerCap {
			st.Dropped++
			return false
		}
		p.trim()
		n.push(&h.header, p)
		st.Trimmed++
	default:
		n.push(&h.data, p)
	}
	st.Enqueued++
	return true
}

// dequeue returns the next packet to serialize, headers first, or nil
// when the queue is empty.
//
//polyvet:noalloc runs per packet per hop
func (n *Network) dequeue(h *portHot) *Packet {
	if h.header.n > 0 {
		return n.pop(&h.header)
	}
	return n.pop(&h.data)
}
