package rqudp

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"time"
)

// drainMax is the most messages one read takes from the socket: without
// coalesced reads, the most datagrams it hands to a protocol loop. With
// them a message is a whole train, so a read asks for groMsgs, each into
// a slot that holds the longest train there is: groMsgs x trainMax
// datagrams at most, which one pull can still credit.
const (
	drainMax = 32
	groMsgs  = 8
	groSlot  = 1 << 16
)

// datagram is one received packet. data aliases the ring and is valid
// until the next read; pkt hands it out as nil for a datagram the loops
// cannot use (longer than a slot, or from a peer that is not an IP
// address).
type datagram struct {
	data []byte
	from netip.AddrPort
}

// pktIO is the packet I/O under Serve and FetchMultiSourceStats. It has
// the one operation the loops need beyond ReadFrom and WriteTo: block
// until a datagram is there, then take what is already queued without
// blocking again. On Linux with a *net.UDPConn that is one recvmmsg;
// with any other conn a read is one ReadFrom and a "drain" is one
// datagram, so the wire exchange is the pre-batching one. Its sending
// counterpart is sendTrain: a burst of equal-length packets to one peer
// in one write, under the same conditions; with coalesceReads such a
// train also arrives as one message, which the reader takes apart again.
//
// Peers are netip.AddrPorts with the address unmapped, so the address a
// caller passed in and the address a packet came from compare equal on
// IPv4 and dual-stack sockets alike.
type pktIO struct {
	conn net.PacketConn
	udp  *net.UDPConn // conn, when it is one: sends need no net.Addr
	mm   *mmsgReader  // batched reads; nil reads one datagram at a time
	// train sends buf as one UDP_SEGMENT train of segLen-byte datagrams;
	// nil (until useTrains, or for good after a refusal), sendTrain
	// writes them one at a time.
	train func(buf []byte, segLen int, to netip.AddrPort) error

	slot     int        // the longest valid packet plus one: longer ones are dropped
	ring     []byte     // where reads land: one slot, or drainMax of them with mm
	pkts     []datagram // the last read's datagrams; as many as a read can return
	gro      *groRing   // the ring of coalesced reads, while they are on
	deadline time.Time  // the read deadline armed on conn
}

// groRing is what coalesced reads land in and are taken apart into: half
// a megabyte, so fetches pass theirs on through groRings, which holds as
// many as fetches commonly run side by side in one process, instead of
// leaving one each to the collector. The datagrams come first: they are
// the part the collector has to scan.
type groRing struct {
	pkts [groMsgs * trainMax]datagram
	buf  [groMsgs * groSlot]byte
}

var groRings = make(chan *groRing, 4)

// newPktIO returns the shim for conn. It cannot read until setMaxPacket
// has sized its ring.
func newPktIO(conn net.PacketConn) *pktIO {
	p := &pktIO{conn: conn}
	if udp, ok := conn.(*net.UDPConn); ok {
		p.udp = udp
		p.mm = newMmsgReader(udp)
	}
	return p
}

// setMaxPacket sizes the ring for packets of up to n bytes; anything
// longer is dropped on arrival. A slot is one byte longer, so a datagram
// that fills its slot was longer than n; coalesced reads have their own.
func (p *pktIO) setMaxPacket(n int) {
	p.slot = n + 1
	switch {
	case p.mm == nil:
		p.ring, p.pkts = make([]byte, p.slot), make([]datagram, 1)
	case p.gro == nil:
		p.ring, p.pkts = make([]byte, drainMax*p.slot), make([]datagram, drainMax)
		p.mm.bind(p.ring, p.slot, drainMax)
	}
}

// coalesceReads asks the kernel to deliver a train to this socket as the
// one message it was sent as (UDP_GRO) and makes room for such messages.
// Where there is no batched reader, or the kernel refuses, nothing
// changes. The socket is not ours: whoever turns this on calls
// restoreReads before handing it back. What stays is the receive buffer
// it asks for, room for the largest window; it returns what the kernel
// granted, in bytes (0: unknown), which sizes the window (standingWindow).
func (p *pktIO) coalesceReads() (granted int) {
	if p.udp != nil {
		_ = p.udp.SetReadBuffer(maxWindow * 4096)
	}
	if p.mm != nil {
		granted = p.mm.readBuffer()
	}
	if p.mm == nil || p.mm.setGRO(1) != nil {
		return granted
	}
	select {
	case p.gro = <-groRings:
	default:
		p.gro = new(groRing)
	}
	p.ring, p.pkts = nil, p.gro.pkts[:]
	p.mm.bind(p.gro.buf[:], groSlot, groMsgs)
	return granted
}

// restoreReads undoes coalesceReads. Nothing may read p afterwards.
func (p *pktIO) restoreReads() {
	if p.gro != nil {
		_ = p.mm.setGRO(0) // it was set a moment ago: the socket takes the option
		select {
		case groRings <- p.gro:
		default:
		}
		p.gro, p.pkts = nil, nil
	}
}

// read blocks until a datagram arrives, then returns how many it took:
// all that were queued, up to len(p.pkts). pkt(i) holds them until the
// next read. It returns a timeout error (see isTimeout) when nothing
// arrives for wait; the deadline is re-armed only with under half of wait
// left on it (or over all of it: the last wait was longer), so a timeout
// comes wait/2 to wait after the last arrival and costs no timer updates.
func (p *pktIO) read(wait time.Duration) (int, error) {
	now := time.Now()
	if left := p.deadline.Sub(now); left < wait/2 || left > wait {
		p.deadline = now.Add(wait)
		if err := p.conn.SetReadDeadline(p.deadline); err != nil {
			return 0, err
		}
	}
	if p.mm != nil {
		return p.mm.recv(p.pkts)
	}
	n, from, err := p.conn.ReadFrom(p.ring)
	if err != nil {
		return 0, err
	}
	p.pkts[0] = datagram{data: p.ring[:n], from: addrPortOf(from)}
	return 1, nil
}

// pkt returns datagram i of the last read, with data nil if it has to
// be dropped: it filled its slot, so it was longer than any valid
// packet, or its source is not an IP address and port.
func (p *pktIO) pkt(i int) datagram {
	d := p.pkts[i]
	if len(d.data) >= p.slot || !d.from.IsValid() {
		d.data = nil
	}
	return d
}

// send writes one packet to a peer.
func (p *pktIO) send(pkt []byte, to netip.AddrPort) error {
	if p.udp != nil {
		_, err := p.udp.WriteToUDPAddrPort(pkt, to)
		return err
	}
	_, err := p.conn.WriteTo(pkt, net.UDPAddrFromAddrPort(to))
	return err
}

// useTrains lets sendTrain hand whole bursts to the kernel, where the
// conn and the platform can. Only a loop that sends bursts asks: the
// sender costs two allocations.
func (p *pktIO) useTrains() {
	if p.udp != nil {
		p.train = newTrainSender(p.udp)
	}
}

// sendTrain writes buf to a peer as datagrams of segLen bytes each (the
// last may be shorter). It returns the socket writes it made and the
// datagrams they failed to send. A train the kernel or the NIC will not
// take at all — anything but a passing shortage — is sent again one
// datagram at a time, and this socket is never offered a train again.
//
//polyvet:noalloc per-burst send path
func (p *pktIO) sendTrain(buf []byte, segLen int, to netip.AddrPort) (calls, refused int) {
	if p.train != nil && len(buf) > segLen {
		err := p.train(buf, segLen, to)
		if err == nil {
			return 1, 0
		}
		if isShortage(err) {
			return 1, (len(buf) + segLen - 1) / segLen
		}
		p.train, calls = nil, 1
	}
	for ; len(buf) > 0; calls++ {
		n := min(segLen, len(buf))
		if p.send(buf[:n], to) != nil {
			refused++
		}
		buf = buf[n:]
	}
	return calls, refused
}

// splitTrain takes one received message apart into the datagrams it was
// sent as, segLen bytes each and the last whatever is left, in pkts, and
// returns how many; a segLen that is not positive says it is one. Should
// pkts be too short, its last takes the rest of the message: that is
// then longer than a packet can be, and dropped as such.
func splitTrain(msg []byte, segLen int, from netip.AddrPort, pkts []datagram) int {
	for n := range pkts {
		end := len(msg)
		if segLen > 0 && segLen < end && n < len(pkts)-1 {
			end = segLen
		}
		pkts[n] = datagram{data: msg[:end:end], from: from}
		if msg = msg[end:]; len(msg) == 0 {
			return n + 1
		}
	}
	return 0
}

// addrPortOf converts a peer address to the shim's form. The result is
// not IsValid for an address that is not an IP address and port.
func addrPortOf(a net.Addr) netip.AddrPort {
	var ap netip.AddrPort
	if ua, ok := a.(*net.UDPAddr); ok {
		if len(ua.IP) == 0 {
			// As in package net: no IP means this host.
			return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(ua.Port))
		}
		ap = ua.AddrPort()
	} else if a != nil {
		ap, _ = netip.ParseAddrPort(a.String())
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// isShortage reports whether a send failed for want of buffers or time,
// which says nothing about the next one.
func isShortage(err error) bool {
	return errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.EINTR)
}

// isTimeout reports whether a read error is the deadline passing.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
