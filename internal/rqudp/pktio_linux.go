//go:build linux && (amd64 || arm64)

package rqudp

import (
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// udpSegment is the UDP_SEGMENT control message type: send the message
// as datagrams of the given length.
const udpSegment = 103

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
	hdrs  [drainMax]mmsghdr
	iovs  [drainMax]syscall.Iovec
	names [drainMax]syscall.RawSockaddrInet6 // large enough for an IPv4 peer too

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
	}
	r.tryRecv = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&r.hdrs[0])), drainMax, syscall.MSG_DONTWAIT, 0, 0)
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

// bind points message i at slot i of ring.
func (r *mmsgReader) bind(ring []byte, slot int) {
	for i := range r.iovs {
		r.iovs[i].Base = &ring[i*slot]
		r.iovs[i].SetLen(slot)
	}
}

// recv blocks until the socket is readable (or its read deadline
// passes), takes up to drainMax queued datagrams and describes them in
// pkts.
func (r *mmsgReader) recv(pkts *[drainMax]datagram) (int, error) {
	if err := r.rc.Read(r.tryRecv); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", r.errno)
	}
	for i := 0; i < r.n; i++ {
		h := &r.hdrs[i]
		pkts[i] = datagram{
			data: unsafe.Slice(r.iovs[i].Base, h.n),
			from: peerOf(&r.names[i]),
		}
		h.hdr.Namelen = syscall.SizeofSockaddrInet6 // the kernel wrote the actual length
	}
	return r.n, nil
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
