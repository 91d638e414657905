//go:build linux && (amd64 || arm64)

package rqudp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"polyraptor/internal/wire"
)

// groOf reads the UDP_GRO option back from a socket: -1 if the socket
// cannot be asked, 0 also from a kernel that does not know the option.
func groOf(conn net.PacketConn) int {
	rc, err := conn.(*net.UDPConn).SyscallConn()
	if err != nil {
		return -1
	}
	v := -1
	_ = rc.Control(func(fd uintptr) {
		if v, err = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO); err != nil {
			v = 0
		}
	})
	return v
}

// groRefusal says why sockets on this host do not coalesce reads, with
// the errno if the kernel refused the option; "" if they do.
func groRefusal(t *testing.T) string {
	t.Helper()
	conn := newUDP(t)
	defer conn.Close()
	if err := newMmsgReader(conn.(*net.UDPConn)).setGRO(1); err != nil {
		var errno syscall.Errno
		errors.As(err, &errno)
		return fmt.Sprintf("the kernel refuses UDP_GRO (errno %d: %v)", int(errno), err)
	}
	return ""
}

// The socket is the caller's: UDP_GRO is on while a fetch reads it and
// off again when the fetch has returned, however it ended — with the
// object, on an Announce it refuses, or because its context was
// cancelled.
func TestCoalescingLeavesSocketAsItCame(t *testing.T) {
	const symbolSize, k, flow = 64, 20, 31
	obj := randObject(t, symbolSize*k)
	cfg := DefaultConfig()
	cfg.SymbolSize = symbolSize
	want := 1
	if why := groRefusal(t); why != "" {
		t.Logf("%s: checking only that the option stays off", why)
		want = 0
	}
	for _, tc := range []struct {
		name string
		// answer is what the sender does once the Hello is in, and with it
		// the fetch certainly running; it returns when the fetch may end.
		answer func(snd *fakeSender, to net.Addr, cancel context.CancelFunc)
		ok     bool
	}{
		{"success", func(snd *fakeSender, to net.Addr, _ context.CancelFunc) {
			_, _ = snd.conn.WriteTo(snd.announce(), to)
			for esi := uint32(0); esi < k; esi++ {
				_, _ = snd.conn.WriteTo(snd.data(esi), to)
			}
		}, true},
		{"bad announce", func(snd *fakeSender, to net.Addr, _ context.CancelFunc) {
			_, _ = snd.conn.WriteTo(wire.AppendAnnounce(nil, wire.Announce{Flow: flow, ObjectSize: 1 << 40, SymbolSize: 1, MaxK: 1}), to)
		}, false},
		{"cancelled", func(_ *fakeSender, _ net.Addr, cancel context.CancelFunc) { cancel() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snd := newFakeSender(t, obj, symbolSize, flow)
			conn := newUDP(t)
			defer conn.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			during := make(chan int, 1)
			go func() {
				buf := make([]byte, 2048)
				_ = snd.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				if _, _, err := snd.conn.ReadFrom(buf); err != nil {
					during <- -1
					return
				}
				during <- groOf(conn)
				tc.answer(snd, conn.LocalAddr(), cancel)
			}()
			got, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{snd.conn.LocalAddr()}, flow, cfg)
			if tc.ok != (err == nil) || tc.ok && !bytes.Equal(got, obj) {
				t.Fatalf("fetch: %v", err)
			}
			if v := <-during; v != want {
				t.Fatalf("UDP_GRO read %d while the fetch ran, want %d", v, want)
			}
			if v := groOf(conn); v != 0 {
				t.Fatalf("UDP_GRO reads %d on the caller's socket after the fetch returned (%v)", v, err)
			}
		})
	}
}

// On loopback a train arrives the way it left: the segments of one
// sendmsg come out of one message of one read, back to back in its slot.
// The test skips with the errno when the kernel refuses either half.
func TestCoalescedReadsOnLoopback(t *testing.T) {
	if why := trainRefusal(t); why != "" {
		t.Skipf("%s: no train is sent, so none arrives", why)
	}
	if why := groRefusal(t); why != "" {
		t.Skipf("%s: the fetches of the other tests read a train's segments one by one", why)
	}
	obj := randObject(t, 1<<20)
	cfg := DefaultConfig()
	srv := startServer(t, obj, cfg)
	remote := addrPortOf(srv.Addr())

	// By hand first: say Hello, and look at how the burst it grants lands.
	conn := newUDP(t)
	defer conn.Close()
	io := newPktIO(conn)
	io.coalesceReads()
	io.setMaxPacket(cfg.SymbolSize + wire.DataOverhead)
	if err := io.send(wire.AppendHello(nil, wire.Hello{Flow: 1, SenderCount: 1, Grant: firstGrant}), remote); err != nil {
		t.Fatal(err)
	}
	for data := 0; data < firstGrant; {
		n, err := io.read(5 * time.Second)
		if err != nil {
			t.Fatalf("after %d of the burst's %d symbols: %v", data, firstGrant, err)
		}
		var train []datagram
		for i := 0; i < n; i++ {
			if d := io.pkt(i); len(d.data) == cfg.SymbolSize+wire.DataOverhead {
				train = append(train, d)
			}
		}
		data += len(train)
		for i := 1; i < len(train); i++ {
			if prev := train[i-1].data; unsafe.Pointer(&train[i].data[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)) {
				t.Fatalf("segments %d and %d of a %d-symbol burst are not back to back: they came as separate messages", i-1, i, firstGrant)
			}
		}
		if len(train) > 0 && len(train) < firstGrant {
			t.Fatalf("a read returned %d symbols of the burst's %d", len(train), firstGrant)
		}
	}
	_ = io.send(wire.AppendDone(nil, 1), remote)
	io.restoreReads()

	// Then a whole fetch on the same socket, for the record.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 2, cfg)
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("fetch: %v", err)
	}
	if st.Datagrams < st.Symbols || st.Datagrams < 8*st.ReadCalls {
		t.Fatalf("%d datagrams in %d reads for %d symbols: trains were not read whole", st.Datagrams, st.ReadCalls, st.Symbols)
	}
	ss := srv.Stats()
	t.Logf("%.1f symbols/send, %.1f datagrams/read", float64(ss.SymbolsSent)/float64(ss.SendCalls), float64(st.Datagrams)/float64(st.ReadCalls))
}

// A train whose segments are longer than any valid packet — valid
// symbols with a tail, so only the length rule keeps them out — and whose
// last, shorter one is a valid packet: each long segment is dropped
// alone, the last one and the trains around it are taken.
func TestOversizeSegmentDropsOnlyItself(t *testing.T) {
	if why := trainRefusal(t); why != "" {
		t.Skipf("%s: there is no train to put a long segment in", why)
	}
	const symbolSize, k, flow = 64, 40, 6
	obj := randObject(t, symbolSize*k)
	snd := newFakeSender(t, obj, symbolSize, flow)
	conn := newUDP(t)
	defer conn.Close()
	to := addrPortOf(conn.LocalAddr())
	train := newTrainSender(snd.conn.(*net.UDPConn))
	sendTrain := func(segLen int, pkts ...[]byte) {
		t.Helper()
		if err := train(bytes.Join(pkts, nil), segLen, to); err != nil {
			t.Fatal(err)
		}
	}
	pktLen := symbolSize + wire.DataOverhead
	var first, last [][]byte
	for esi := uint32(0); esi < k; esi++ {
		if esi < 10 {
			first = append(first, snd.data(esi))
		} else if esi > 10 {
			last = append(last, snd.data(esi))
		}
	}
	long := func(esi uint32) []byte { return append(snd.data(esi), make([]byte, 32)...) }
	snd.send(t, conn.LocalAddr(), snd.announce())
	sendTrain(pktLen, first...)
	sendTrain(pktLen+32, long(1000), long(1001), snd.data(10))
	sendTrain(pktLen, last...)
	// All K source symbols and nothing else that is valid: had a long
	// segment taken a neighbour along, the block would never complete.
	sent := 1 + len(first) + 3 + len(last)

	cfg := DefaultConfig()
	cfg.SymbolSize = symbolSize
	cfg.RetryInterval = time.Second
	cfg.MaxRetries = 1
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{snd.conn.LocalAddr()}, flow, cfg)
	if err != nil {
		t.Fatalf("%v (%+v)", err, st)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if st.Symbols != k || st.Retries != 0 || st.Datagrams != sent {
		t.Fatalf("got %d symbols, %d retries and %d datagrams; want exactly the %d valid symbols, no retry and the %d datagrams sent: %+v", st.Symbols, st.Retries, st.Datagrams, k, sent, st)
	}
}

// FuzzSplitTrain takes arbitrary messages apart by arbitrary control
// data: whatever the kernel — or the fuzzer — says the segment length
// is, the datagrams lie in the message back to back and add up to it,
// none is empty, and no more come out than there is room for.
func FuzzSplitTrain(f *testing.F) {
	cmsg := func(level, typ uint32, data ...byte) []byte {
		b := binary.NativeEndian.AppendUint64(nil, uint64(syscall.SizeofCmsghdr+len(data)))
		b = binary.NativeEndian.AppendUint32(b, level)
		b = binary.NativeEndian.AppendUint32(b, typ)
		b = append(b, data...)
		return append(b, make([]byte, -len(b)&7)...)
	}
	gro := func(segLen uint32) []byte {
		return cmsg(syscall.IPPROTO_UDP, udpGRO, binary.NativeEndian.AppendUint32(nil, segLen)...)
	}
	f.Add(100, gro(10), 64)
	f.Add(100, gro(0), 64)
	f.Add(100, gro(1), 64)                                        // more segments than room
	f.Add(100, gro(101), 64)                                      // a segment longer than the message
	f.Add(100, gro(33), 64)                                       // a tail that does not divide
	f.Add(100, gro(1<<31|10), 64)                                 // a negative length
	f.Add(100, gro(10)[:18], 64)                                  // truncated in the data
	f.Add(100, gro(10)[:7], 64)                                   // truncated in the header
	f.Add(100, cmsg(0, 8, 1, 2, 3, 4), 64)                        // a foreign level alone
	f.Add(100, append(cmsg(0, 8, 1, 2, 3, 4, 5), gro(25)...), 64) // and in front of ours
	f.Add(100, cmsg(syscall.IPPROTO_UDP, udpGRO, 10, 0), 64)      // our type, two bytes of data
	f.Add(100, append(gro(10), make([]byte, 40)...), 3)           // oversized, and little room
	f.Add(0, gro(10), 64)                                         // an empty datagram
	f.Add(100, binary.NativeEndian.AppendUint64(nil, 1<<63), 64)  // a header length past the buffer
	f.Fuzz(func(t *testing.T, msgLen int, ctl []byte, room int) {
		if msgLen < 0 || msgLen > 1<<16 || room < 0 || room > 1024 {
			t.Skip()
		}
		msg := make([]byte, msgLen)
		pkts := make([]datagram, room)
		segLen := segmentLen(ctl)
		n := splitTrain(msg, segLen, addrPortOf(peer(1)), pkts)
		if n > room || room > 0 && n == 0 {
			t.Fatalf("%d datagrams, room for %d", n, room)
		}
		sum := 0
		for i, d := range pkts[:n] {
			if len(d.data) == 0 && msgLen > 0 {
				t.Fatalf("datagram %d of %d is empty", i, n)
			}
			if len(d.data) > 0 && &d.data[0] != &msg[sum] {
				t.Fatalf("datagram %d does not start where the one before it ended", i)
			}
			if i < n-1 && len(d.data) != segLen {
				t.Fatalf("datagram %d of %d is %d bytes, the segment length is %d", i, n, len(d.data), segLen)
			}
			if cap(d.data) != len(d.data) {
				t.Fatalf("datagram %d can be appended into its neighbour", i)
			}
			sum += len(d.data)
		}
		if room > 0 && sum != msgLen {
			t.Fatalf("%d datagrams of %d bytes in all from a message of %d", n, sum, msgLen)
		}
	})
}
