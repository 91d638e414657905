package netsim

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

// fifo is a ring of packets whose length is zero or a power of two. A
// full ring doubles, and nothing ever slides, so a push or a pop is one
// store and a mask.
type fifo struct {
	buf  []*Packet
	head uint32 // ring index of the oldest packet
	n    uint32 // packets held
}

//polyvet:noalloc runs per packet per hop; a full ring grows out of line
func (f *fifo) push(p *Packet) {
	if int(f.n) == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&uint32(len(f.buf)-1)] = p
	f.n++
}

//polyvet:noalloc runs per packet per hop
func (f *fifo) pop() *Packet {
	if f.n == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & uint32(len(f.buf)-1)
	f.n--
	return p
}

func (f *fifo) len() int { return int(f.n) }

// grow moves a full ring into one twice its size, oldest packet first.
// noinline keeps its allocation out of push under the compiler-verified
// gate.
//
//go:noinline
func (f *fifo) grow() {
	buf := make([]*Packet, max(fifoMinCap, 2*len(f.buf)))
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// discipline is a port's egress queue, held by value in the Port and
// built by Connect from the Config (see the package doc). Trimming cuts a
// data packet that finds the data queue full to its header and queues it
// with priority, so the receiver learns of the loss within one RTT;
// headers, pulls and acks always take the priority queue.
type discipline struct {
	data      fifo // the data queue when trimming, the only queue otherwise
	header    fifo // the priority header queue when trimming, empty otherwise
	trimming  bool
	cap       int // packets: the data queue's when trimming, the queue's otherwise
	headerCap int // the header queue's capacity when trimming
	markK     int // drop-tail's ECN mark threshold; zero or less disables marking
	stats     QueueStats
}

// enqueue queues p, trimming or marking it on the way, and reports
// whether it was kept in any form.
//
//polyvet:noalloc runs per packet per hop
func (q *discipline) enqueue(p *Packet) bool {
	switch {
	case !q.trimming:
		if q.data.len() >= q.cap {
			q.stats.Dropped++
			return false
		}
		if q.markK > 0 && p.ECNCapable && q.data.len() >= q.markK {
			p.ECNMarked = true
			q.stats.Marked++
		}
		q.data.push(p)
	case p.priority():
		if q.header.len() >= q.headerCap {
			q.stats.Dropped++
			return false
		}
		q.header.push(p)
	case q.data.len() >= q.cap:
		// Trim: payload is cut, header survives with priority.
		if q.header.len() >= q.headerCap {
			q.stats.Dropped++
			return false
		}
		p.trim()
		q.header.push(p)
		q.stats.Trimmed++
	default:
		q.data.push(p)
	}
	q.stats.Enqueued++
	return true
}

// dequeue returns the next packet to serialize, headers first, or nil
// when the queue is empty.
//
//polyvet:noalloc runs per packet per hop
func (q *discipline) dequeue() *Packet {
	if p := q.header.pop(); p != nil {
		return p
	}
	return q.data.pop()
}

func (q *discipline) len() int { return q.data.len() + q.header.len() }
