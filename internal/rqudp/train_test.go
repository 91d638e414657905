package rqudp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"testing"
	"time"

	"polyraptor/internal/wire"
)

// The schedule of a many-block session, for each of three senders, is
// the reference one: the source-phase block cursor skips exhausted blocks
// without changing the order the rescan from block 0 gave.
func TestEmitOrderMatchesReference(t *testing.T) {
	s := newScriptedServerWith(t, 16, 10, 16*10*40+5) // 41 blocks
	layout := s.enc.Layout()
	if layout.Z() < 40 {
		t.Fatalf("only %d blocks", layout.Z())
	}
	for idx := 0; idx < 3; idx++ {
		sess := s.newSession(key(4000+idx, 1), wire.Hello{Flow: 1, SenderIdx: uint8(idx), SenderCount: 3})
		count := layout.TotalSymbols()/3 + 5*layout.Z() + 7 // its source symbols and five rounds of repair
		var got [][2]uint32
		for i := 0; i < count; i++ {
			sbn, esi := sess.next()
			got = append(got, [2]uint32{uint32(sbn), esi})
		}
		want := refSchedule(layout.K, idx, 3, count)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sender %d, symbol %d: emitted %v, reference %v", idx, i, got[i], want[i])
			}
		}
		// The shim tests' judge of a schedule passes it, and not with two
		// source symbols swapped, or two repair symbols of one block.
		if err := followsSchedule(layout.K, idx, 3, got); err != nil {
			t.Fatalf("sender %d: %v", idx, err)
		}
		for _, ij := range [][2]int{{1, 2}, {count / 2, count/2 + layout.Z()}} {
			i, j := ij[0], ij[1]
			got[i], got[j] = got[j], got[i]
			if followsSchedule(layout.K, idx, 3, got) == nil {
				t.Fatalf("sender %d: symbols %d and %d swapped passed for its schedule", idx, i, j)
			}
			got[i], got[j] = got[j], got[i]
		}
	}
}

// trainTap stands in for the kernel's train sender on a scripted server:
// it records each train's segment count, checks every segment is a Data
// packet of the flow, and answers with err.
type trainTap struct {
	t    testing.TB
	segs []int
	err  error
}

func (tt *trainTap) send(buf []byte, segLen int, to netip.AddrPort) error {
	tt.segs = append(tt.segs, (len(buf)+segLen-1)/segLen)
	for ; len(buf) > 0; buf = buf[min(segLen, len(buf)):] {
		hdr, body, err := wire.ParseHeader(buf[:min(segLen, len(buf))])
		if err == nil && hdr.Type == wire.MsgData {
			_, err = wire.ParseData(hdr.Flow, body)
		}
		if err != nil || hdr.Type != wire.MsgData {
			tt.t.Fatalf("train segment is not a Data packet: %v", err)
		}
	}
	return tt.err
}

// A train the socket will not take is sent again packet by packet, costs
// no SendErrors for what that delivered, and is the last one offered; a
// train refused for a passing shortage is lost, counted, and not the last.
func TestTrainFallback(t *testing.T) {
	s := newScriptedServer(t)
	tap := &trainTap{t: t, err: syscall.ENOBUFS}
	s.io.train = tap.send
	s.conn.push(hello(1), 3000)
	s.run(t)
	if st := s.Stats(); st.SendErrors != firstGrant || st.SendCalls != 1 || s.conn.sent[3000] != 1 || s.io.train == nil {
		t.Fatalf("a train refused with ENOBUFS: %+v, %d packets written, train sender kept: %v", st, s.conn.sent[3000], s.io.train != nil)
	}

	tap.err = syscall.EIO
	s.conn.push(pull(1, firstGrant+5), 3000)
	s.run(t)
	if st := s.Stats(); st.SendErrors != firstGrant || st.SendCalls != 1+1+5 || st.SymbolsSent != firstGrant+5 {
		t.Fatalf("a train refused with EIO: %+v, want no new send errors and 1+5 more calls", st)
	}
	if got := s.conn.sent[3000]; got != 1+5 {
		t.Fatalf("%d packets written, want the Announce and the 5 resent segments", got)
	}
	if s.io.train != nil {
		t.Fatal("the socket is still offered trains after refusing one")
	}
	s.conn.push(pull(1, firstGrant+5+7), 3000)
	s.run(t)
	if len(tap.segs) != 2 || s.conn.sent[3000] != 1+5+7 {
		t.Fatalf("%d trains offered, %d packets written; want 2 and %d", len(tap.segs), s.conn.sent[3000], 1+5+7)
	}
}

// Trains are cut to what the kernel takes: one UDP payload and 64
// segments. A 60,000-byte symbol travels alone, as a plain write, and a
// grant beyond the clamp is paid in 64-segment trains.
func TestTrainLengths(t *testing.T) {
	big := newScriptedServerWith(t, maxSymbolSize, 4, 2*maxSymbolSize)
	tap := &trainTap{t: t}
	big.io.train = tap.send
	big.conn.push(hello(1), 3000)
	big.run(t)
	if st := big.Stats(); len(tap.segs) != 0 || st.SendCalls != firstGrant || st.SymbolsSent != firstGrant || big.conn.sent[3000] != 1+firstGrant {
		t.Fatalf("60,000-byte symbols: %d trains, %+v, %d packets", len(tap.segs), st, big.conn.sent[3000])
	}

	s := newScriptedServer(t)
	s.conn.push(hello(1), 3000)
	s.run(t)
	s.io.train = tap.send
	before := s.Stats()
	s.conn.push(pull(1, firstGrant+maxPullCredits+1), 3000)
	s.run(t)
	total := 0
	for _, n := range tap.segs {
		if n > trainMax {
			t.Fatalf("a train of %d segments", n)
		}
		total += n
	}
	st := s.Stats()
	if total != maxPullCredits || len(tap.segs) != maxPullCredits/trainMax || st.SendCalls-before.SendCalls != len(tap.segs) || st.SymbolsSent-before.SymbolsSent != total {
		t.Fatalf("a grant of %d more was paid %d symbols in trains of %v (%+v)", maxPullCredits+1, total, tap.segs, st)
	}
}

// trainRefusal says why sockets on this host do not take UDP_SEGMENT
// trains, with the errno if the kernel refused one; "" if they do.
func trainRefusal(t *testing.T) string {
	t.Helper()
	conn := newUDP(t)
	defer conn.Close()
	train := newTrainSender(conn.(*net.UDPConn))
	if train == nil {
		return "no train sender on this platform"
	}
	if err := train(make([]byte, 200), 100, addrPortOf(conn.LocalAddr())); err != nil {
		var errno syscall.Errno
		errors.As(err, &errno)
		return fmt.Sprintf("the kernel refuses UDP_SEGMENT (errno %d: %v)", int(errno), err)
	}
	return ""
}

// On loopback the fast path is what a fetch takes: the server's bursts
// leave as trains.
func TestTrainsUsedOnLoopback(t *testing.T) {
	if why := trainRefusal(t); why != "" {
		t.Skipf("%s: the packet-by-packet fallback is what the other tests ran", why)
	}
	obj := randObject(t, 1<<20)
	cfg := DefaultConfig()
	srv := startServer(t, obj, cfg)
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 4, cfg)
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("fetch: %v", err)
	}
	ss := srv.Stats()
	if ss.SendErrors != 0 || ss.SymbolsSent < st.Symbols || ss.SymbolsSent < 4*ss.SendCalls {
		t.Fatalf("server sent %d symbols in %d calls (%d errors); want trains of 4 or more on average", ss.SymbolsSent, ss.SendCalls, ss.SendErrors)
	}
	t.Logf("%.1f symbols/send, %.1f datagrams/read", float64(ss.SymbolsSent)/float64(ss.SendCalls), float64(st.Datagrams)/float64(st.ReadCalls))
}

// fetcherFeed is a fetcher on a scripted conn, fed datagrams by hand.
type fetcherFeed struct {
	fetcher
	fed int
}

// newFetcherFeed is a fetch from n senders, at ports 5000 and up, as it
// stands before its Hellos.
func newFetcherFeed(flow uint32, n int) *fetcherFeed {
	ff := &fetcherFeed{}
	ff.fetcher = fetcher{cfg: DefaultConfig(), flow: flow, io: newPktIO(newScriptConn()), now: time.Unix(1_000_000, 0)}
	ff.io.setMaxPacket(256)
	ff.cfg.Workers = 1
	ff.senders = make([]sender, n)
	for i := range ff.senders {
		ff.senders[i].peer = addrPortOf(peer(5000 + i))
	}
	ff.stats.PerSender = make([]int, n)
	ff.setWindow()
	return ff
}

// What an Announce may claim is bounded in bytes as well as in symbols
// and blocks: the object's buffer is made in one piece when the first
// symbol arrives. One that fits is accepted and, no Data following, costs
// its block decoders and nothing else; one past the bound ends the fetch.
func TestAnnounceBytesBound(t *testing.T) {
	const flow = 9
	for _, tc := range []struct {
		name       string
		size       uint64
		symbolSize uint32
		ok         bool
	}{
		{"padded to the bound exactly", maxObjectBytes - 5, 2048, true},
		{"one symbol over", maxObjectBytes + 1, 2048, false},
		{"the most symbols of the longest size", (maxSymbols - 1) * maxSymbolSize, maxSymbolSize, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ff := newFetcherFeed(flow, 2)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := ff.handle(datagram{
				data: wire.AppendAnnounce(nil, wire.Announce{Flow: flow, ObjectSize: tc.size, SymbolSize: tc.symbolSize, MaxK: 256}),
				from: ff.senders[0].peer,
			})
			runtime.ReadMemStats(&after)
			if tc.ok != (err == nil) || tc.ok != (ff.dec != nil) {
				t.Fatalf("err = %v, decoder made: %v", err, ff.dec != nil)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
				t.Fatalf("an Announce of %d bytes alone cost %d bytes", tc.size, got)
			}
		})
	}
}

// FuzzFetcherHandle feeds a fetcher arbitrary datagrams from its two
// senders and from a stranger: the hostile server. Whatever arrives —
// an Announce lying about the size, a second one mid-fetch, Data before
// any, ESIs outside the partition, payloads of the wrong length, Seqs
// that leap, run backwards or ride on duplicates — it must not panic,
// must count no more symbols than it was fed, must send no more pulls than
// one per sender for each fresh symbol it saw, and must leave no sender's
// grant more than the standing window beyond the highest Seq a fresh
// symbol of its own carried.
//
// Input framing: one byte whose low two bits pick the source (3: the
// last one again) and whose high bits give the datagram's length, 0..63;
// then the datagram.
func FuzzFetcherHandle(f *testing.F) {
	frame := func(pkts ...[]byte) []byte {
		var out []byte
		for i, p := range pkts {
			out = append(out, byte(len(p)<<2|i%3))
			out = append(out, p...)
		}
		return out
	}
	const flow = 9
	announce := func(size uint64, t, k uint32) []byte {
		return wire.AppendAnnounce(nil, wire.Announce{Flow: flow, ObjectSize: size, SymbolSize: t, MaxK: k})
	}
	seq := func(sbn, esi, seq uint32, n int) []byte {
		return wire.AppendData(nil, wire.Data{Flow: flow, SBN: sbn, ESI: esi, Seq: seq, Payload: make([]byte, n)})
	}
	data := func(sbn, esi uint32, n int) []byte { return seq(sbn, esi, esi, n) }
	f.Add(frame(announce(64, 8, 4), data(0, 0, 8), data(1, 0, 8), data(0, 0, 8), data(0, 1, 8), data(1, 1, 8), data(0, 2, 8)))
	f.Add(frame(data(0, 0, 8), announce(64, 8, 4), announce(1<<40, 8, 4), data(0, 1, 9), data(0, 1<<31, 8), data(7, 0, 8)))
	f.Add(frame(announce(1<<62, 1, 1)))
	f.Add(frame(announce(1<<63, 8, 4), announce(1<<30, 1, 1<<31), announce(64, 60001, 4)))
	f.Add(frame(announce(24, 8, 1<<20), data(0, 5, 8), data(0, 1<<32-1, 8), data(0, 2, 8), data(0, 7, 8)))
	f.Add(frame(announce(4<<20, 32, 256), data(3, 7, 32)))                                                                               // the one Data that makes room for the whole object
	f.Add(frame(announce(800, 8, 100), seq(0, 0, 0, 8), seq(0, 1, 1<<30, 8), seq(0, 2, 1<<31, 8), seq(0, 3, 3<<30, 8), seq(0, 4, 5, 8))) // Seq leaping by 2^30, then home
	f.Add(frame(announce(800, 8, 100), seq(0, 0, 9, 8), seq(0, 1, 8, 8), seq(0, 2, 7, 8), seq(0, 3, 1<<32-1, 8), seq(0, 4, 0, 8)))       // Seq running backwards, through zero
	f.Add(frame(announce(800, 8, 100), seq(0, 0, 0, 8), seq(0, 0, 1, 8), seq(0, 0, 2, 8), seq(0, 0, 300, 8), seq(0, 0, 1<<31, 8)))       // duplicates with rising Seq
	v2 := seq(0, 1, 1, 8)
	v2[1] = 2
	f.Add(frame(announce(800, 8, 100), seq(0, 0, 0, 8), v2, seq(1, 0, 2, 8), seq(0, 2, 3, 8)))                                 // a version 2 Data packet, refused
	f.Add(frame(announce(1600, 8, 100), seq(0, 0, 0, 8), seq(1, 0, 0, 8), seq(0, 1, 5, 8), seq(1, 99, 1, 8), seq(0, 2, 6, 8))) // two blocks, losses: pulls name finished ones

	f.Fuzz(func(t *testing.T, in []byte) {
		ff := newFetcherFeed(flow, 2)
		from := ff.senders[0].peer
		for len(in) > 0 && (ff.dec == nil || !ff.dec.Complete()) {
			if src := int(in[0] & 3); src < 2 {
				from = ff.senders[src].peer
			} else if src == 2 {
				from = addrPortOf(peer(6000))
			}
			n := min(int(in[0]>>2), len(in)-1)
			if hdr, body, err := wire.ParseHeader(in[1 : 1+n]); err == nil && hdr.Type == wire.MsgAnnounce {
				// An object within the limits gets a decoder per block now
				// and its bytes with the first Data, which is as intended
				// and too slow to fuzz: keep those that are accepted small.
				if a, err := wire.ParseAnnounce(hdr.Flow, body); err == nil {
					size, kt := uint64(a.SymbolSize), (a.ObjectSize-1)/uint64(a.SymbolSize)+1
					if size <= maxSymbolSize && kt < maxSymbols && kt/uint64(a.MaxK) < maxBlocks && kt*size <= maxObjectBytes && kt*size > 4<<20 {
						t.Skip("a large object within the limits")
					}
				}
			}
			ff.fed++
			if err := ff.handle(datagram{data: in[1 : 1+n], from: from}); err != nil {
				break // a fetch ends on the Announce it cannot use
			}
			in = in[1+n:]
			ff.slide() // a drain of one datagram ends
			for i, s := range ff.senders {
				if int32(s.granted-s.hi) > standingWindow && ff.stats.PerSender[i] > 0 {
					t.Fatalf("sender %d: granted %d, highest Seq %d, standing window %d", i, s.granted, s.hi, standingWindow)
				}
			}
		}
		st := ff.stats
		if st.Symbols+st.Duplicates > ff.fed {
			t.Fatalf("%d symbols and %d duplicates from %d datagrams", st.Symbols, st.Duplicates, ff.fed)
		}
		if st.PullsSent > 2*st.Symbols || st.PerSender[0]+st.PerSender[1] > st.Symbols || st.Regrants != 0 {
			t.Fatalf("%d pulls sent, %d re-grants, %v attributed, for %d fresh symbols", st.PullsSent, st.Regrants, st.PerSender, st.Symbols)
		}
		for i, s := range ff.senders {
			if st.PerSender[i] == 0 && s.hi != 0 {
				t.Fatalf("sender %d: highest Seq %d, and no fresh symbol", i, s.hi)
			}
		}
	})
}

// A sender that replays one symbol under ever higher Seqs moves nothing:
// its window stays where its one fresh symbol put it, it earns no grant
// beyond the one that symbol earned, and it is not heard from, which is
// what lets the stall clock count it out
// (TestDuplicatesOnlySenderHitsRetryAbort).
func TestDuplicatesMoveNoWindow(t *testing.T) {
	const symbolSize, k, flow = 32, 30, 15
	snd := newFakeSender(t, randObject(t, symbolSize*k), symbolSize, flow)
	ff := newFetcherFeed(flow, 2)
	from := ff.senders[0].peer
	feed := func(pkt []byte) {
		t.Helper()
		if err := ff.handle(datagram{data: pkt, from: from}); err != nil {
			t.Fatal(err)
		}
	}
	feed(snd.announce())
	feed(snd.dataSeq(0, 0))
	ff.slide()
	s := ff.senders[0]
	if s.hi != 1 || int(s.granted) != s.src || ff.stats.PullsSent != 1 { // its 15 source symbols, all a window holds

		t.Fatalf("after one symbol: %+v, %d pulls", s, ff.stats.PullsSent)
	}
	heard := ff.stats.Idle
	for seq := uint32(1); seq < 200; seq++ {
		ff.stats.Idle += time.Microsecond
		feed(snd.dataSeq(0, seq))
		ff.slide()
	}
	if got := ff.senders[0]; got.hi != 1 || got.granted != s.granted || got.heard != heard || ff.stats.PullsSent != 1 {
		t.Fatalf("199 duplicates with rising Seq moved the window: %+v, %d pulls", got, ff.stats.PullsSent)
	}
	if ff.stats.Duplicates != 199 || ff.stats.Symbols != 1 || ff.stats.Lost != 0 {
		t.Fatalf("%+v", ff.stats)
	}
}
