//go:build linux && (amd64 || arm64)

package rqudp

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// udpSegment is the UDP_SEGMENT control message type: send the message
// as datagrams of the given length. udpGRO is its receiving counterpart:
// the socket option that has a train delivered as one message, and the
// type of the control message that then gives its segment length.
const (
	udpSegment = 103
	udpGRO     = 104
)

// newTrainSender returns pktIO's train sender for conn: one sendmsg with
// a UDP_SEGMENT control message, built once so that a train allocates
// nothing.
func newTrainSender(conn *net.UDPConn) func([]byte, int, netip.AddrPort) error {
	oob := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = syscall.IPPROTO_UDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	return func(buf []byte, segLen int, to netip.AddrPort) error {
		binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(segLen))
		_, _, err := conn.WriteMsgUDPAddrPort(buf, oob, to)
		return err
	}
}

// mmsghdr is the kernel's struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes received into this message
	_   [4]byte
}

// mmsgReader reads a socket's queued datagrams with one recvmmsg.
type mmsgReader struct {
	rc    syscall.RawConn
	msgs  int // messages one recvmmsg asks for, set by bind
	hdrs  [drainMax]mmsghdr
	iovs  [drainMax]syscall.Iovec
	names [drainMax]syscall.RawSockaddrInet6 // large enough for an IPv4 peer too
	// ctls take the messages' control data: a train's segment length, and
	// whatever else the socket's owner may have asked the kernel for.
	ctls [drainMax][64]byte

	// tryRecv is the callback for rc.Read, made once so that a read
	// allocates nothing; it leaves its result in n and errno.
	tryRecv func(fd uintptr) bool
	n       int
	errno   syscall.Errno
}

// newMmsgReader returns a batched reader for conn, or nil when the raw
// descriptor is unavailable and reads must go through ReadFrom.
func newMmsgReader(conn *net.UDPConn) *mmsgReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	r := &mmsgReader{rc: rc}
	for i := range r.hdrs {
		h := &r.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		h.Namelen = syscall.SizeofSockaddrInet6
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
		h.Control = &r.ctls[i][0]
		h.SetControllen(len(r.ctls[i]))
	}
	r.tryRecv = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(r.msgs), syscall.MSG_DONTWAIT, 0, 0)
			switch errno {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // nothing queued: wait for the poller
			}
			r.n, r.errno = int(n), errno
			return true
		}
	}
	return r
}

// bind points message i at slot i of ring, for the first msgs messages,
// and has a read ask for that many.
func (r *mmsgReader) bind(ring []byte, slot, msgs int) {
	r.msgs = msgs
	for i := range r.iovs[:msgs] {
		r.iovs[i].Base = &ring[i*slot]
		r.iovs[i].SetLen(slot)
	}
}

// setGRO sets the socket's UDP_GRO option to v: 1 is on, 0 off.
func (r *mmsgReader) setGRO(v int) error {
	var serr error
	err := r.rc.Control(func(fd uintptr) {
		serr = os.NewSyscallError("setsockopt", syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, v))
	})
	return errors.Join(err, serr)
}

// readBuffer returns the receive buffer the kernel granted (SO_RCVBUF).
func (r *mmsgReader) readBuffer() (n int) {
	_ = r.rc.Control(func(fd uintptr) {
		n, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return n
}

// recv blocks until the socket is readable (or its read deadline
// passes), takes up to msgs queued messages and describes in pkts the
// datagrams each was sent as.
func (r *mmsgReader) recv(pkts []datagram) (int, error) {
	if err := r.rc.Read(r.tryRecv); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", r.errno)
	}
	n := 0
	for i := 0; i < r.n; i++ {
		h := &r.hdrs[i]
		segLen := segmentLen(r.ctls[i][:h.hdr.Controllen])
		n += splitTrain(unsafe.Slice(r.iovs[i].Base, h.n), segLen, peerOf(&r.names[i]), pkts[n:])
		// The kernel wrote the actual lengths over these two.
		h.hdr.Namelen = syscall.SizeofSockaddrInet6
		h.hdr.SetControllen(len(r.ctls[i]))
	}
	return n, nil
}

// segmentLen returns the segment length a UDP_GRO control message in ctl
// gives; 0 when there is none, or none that is whole: the message is then
// taken for one datagram, too long to be a packet if it was a train.
func segmentLen(ctl []byte) int {
	// struct cmsghdr on 64-bit Linux: a uint64 length that counts the
	// header, then level and type, an int32 each; the data follows.
	const hdrLen = syscall.SizeofCmsghdr
	for len(ctl) >= hdrLen {
		n := binary.NativeEndian.Uint64(ctl)
		if n < hdrLen || n > uint64(len(ctl)) {
			break
		}
		level, typ := binary.NativeEndian.Uint32(ctl[8:]), binary.NativeEndian.Uint32(ctl[12:])
		if level == syscall.IPPROTO_UDP && typ == udpGRO && n >= hdrLen+4 {
			return int(int32(binary.NativeEndian.Uint32(ctl[hdrLen:])))
		}
		ctl = ctl[min((int(n)+7)&^7, len(ctl)):] // the next header is 8-aligned
	}
	return 0
}

// peerOf decodes the source address the kernel stored for a message:
// the zero AddrPort unless it is an IPv4 or IPv6 socket address.
func peerOf(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	// Port is in network byte order in both address families.
	port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port)
	case syscall.AF_INET6:
		addr := netip.AddrFrom16(sa.Addr).Unmap()
		if sa.Scope_id != 0 {
			// A numeric zone: package net accepts it when sending.
			addr = addr.WithZone(strconv.FormatUint(uint64(sa.Scope_id), 10))
		}
		return netip.AddrPortFrom(addr, port)
	}
	return netip.AddrPort{}
}
