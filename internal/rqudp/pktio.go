package rqudp

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"time"
)

// drainMax is the most datagrams one read hands to a protocol loop.
const drainMax = 32

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
// in one write, under the same conditions.
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

	slot     int    // bytes per ring slot: the longest valid packet plus one
	ring     []byte // the slots back to back: drainMax with mm, else one
	pkts     [drainMax]datagram
	deadline time.Time // the read deadline armed on conn
}

// newPktIO returns the shim for conn. maxPacket is the longest packet
// the loop accepts; anything longer is dropped on arrival.
func newPktIO(conn net.PacketConn, maxPacket int) *pktIO {
	p := &pktIO{conn: conn}
	if udp, ok := conn.(*net.UDPConn); ok {
		p.udp = udp
		p.mm = newMmsgReader(udp)
	}
	p.setMaxPacket(maxPacket)
	return p
}

// setMaxPacket sizes the ring for packets of up to n bytes. A slot is
// one byte longer, so a datagram that fills its slot was longer than n.
func (p *pktIO) setMaxPacket(n int) {
	p.slot = n + 1
	if p.mm == nil {
		p.ring = make([]byte, p.slot)
		return
	}
	p.ring = make([]byte, drainMax*p.slot)
	p.mm.bind(p.ring, p.slot)
}

// read blocks until a datagram arrives, then returns how many it took:
// all that were queued, up to drainMax. pkt(i) holds them until the
// next read. It returns a timeout error (see isTimeout) when nothing
// arrives for wait; the deadline is re-armed only once less than half
// of wait is left on it, so a timeout comes between wait/2 and wait
// after the last arrival and a busy socket costs no timer updates.
func (p *pktIO) read(wait time.Duration) (int, error) {
	if now := time.Now(); p.deadline.Sub(now) < wait/2 {
		p.deadline = now.Add(wait)
		if err := p.conn.SetReadDeadline(p.deadline); err != nil {
			return 0, err
		}
	}
	if p.mm != nil {
		return p.mm.recv(&p.pkts)
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
