package rqudp

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"polyraptor/internal/netshim"
	"polyraptor/internal/raptorq"
	"polyraptor/internal/wire"
)

// passConn hides the *net.UDPConn behind a plain net.PacketConn, which
// puts a loop on the portable shim: one ReadFrom per read, WriteTo.
type passConn struct{ net.PacketConn }

// fetchDrain reports the most messages one read of a fetch takes from
// wrap(a UDP socket) on this host, and the most datagrams they can hold:
// 1 and 1 without batched reads, drainMax of each with them, and groMsgs
// trains of trainMax where the kernel also coalesces.
func fetchDrain(t *testing.T, wrap func(net.PacketConn) net.PacketConn) (msgs, datagrams int) {
	t.Helper()
	conn := newUDP(t)
	defer conn.Close()
	io := newPktIO(wrap(conn))
	io.coalesceReads()
	defer io.restoreReads()
	io.setMaxPacket(64)
	if io.gro != nil {
		return groMsgs, len(io.pkts)
	}
	return len(io.pkts), len(io.pkts)
}

// shimmedServers starts n servers for obj, each on wrap(a UDP socket) and
// behind a hostile-network shim made from cfg (its seed stepped for each);
// the shims' addresses are the remotes. Every shim's books are checked
// when the test ends.
func shimmedServers(t *testing.T, obj []byte, cfg Config, n int, wrap func(net.PacketConn) net.PacketConn, hostile netshim.Config) ([]net.Addr, []*netshim.Shim, []*Server) {
	t.Helper()
	var remotes []net.Addr
	var shims []*netshim.Shim
	var srvs []*Server
	for i := 0; i < n; i++ {
		srv, err := NewServer(wrap(newUDP(t)), obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		t.Cleanup(func() { srv.Close() })
		hostile.Seed++
		sh, err := netshim.New(srv.Addr(), hostile)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			sh.Close()
			if err := sh.Err(); err != nil {
				t.Errorf("server %d: %v", i, err)
			}
		})
		remotes, shims, srvs = append(remotes, sh.Addr()), append(shims, sh), append(srvs, srv)
	}
	return remotes, shims, srvs
}

// refSchedule is the first count (SBN, ESI) that sender idx of n is to
// emit for blocks of ks source symbols: its slice of each block's source
// symbols, block by block, then repair symbols round-robin across the
// blocks from its residue class K+idx, step n.
func refSchedule(ks []int, idx, n, count int) [][2]uint32 {
	var out [][2]uint32
	for b, k := range ks {
		il, is, jl, _ := raptorq.Partition(k, n)
		lo, hi := idx*il, (idx+1)*il
		if idx >= jl {
			lo = jl*il + (idx-jl)*is
			hi = lo + is
		}
		for esi := lo; esi < hi; esi++ {
			out = append(out, [2]uint32{uint32(b), uint32(esi)})
		}
	}
	for r := 0; len(out) < count; r++ {
		b := r % len(ks)
		out = append(out, [2]uint32{uint32(b), uint32(ks[b] + idx + r/len(ks)*n)})
	}
	return out[:count]
}

// followsSchedule reports how what sender idx of n emitted for blocks of
// ks source symbols departs from its schedule, nil if it does not: its
// slice of each block's source symbols, block by block, each block's from
// the start of its slice and cut short only where the receiver said the
// block was finished, then repair symbols of its residue class K+idx,
// step n, in order within each block, nothing twice.
func followsSchedule(ks []int, idx, n int, emitted [][2]uint32) error {
	next := make([]uint32, len(ks))   // each block's next source ESI
	repair := make([]uint32, len(ks)) // and next repair ESI
	for b, k := range ks {
		start, _ := partition(k, idx, n)
		next[b], repair[b] = uint32(start), uint32(k+idx)
	}
	src := 0 // the block the source phase is at; len(ks) once repair began
	for i, id := range emitted {
		b, esi := int(id[0]), id[1]
		switch {
		case b >= len(ks):
			return fmt.Errorf("symbol %d: %v is of no block", i, id)
		case esi < uint32(ks[b]):
			start, span := partition(ks[b], idx, n)
			if b < src || esi != next[b] || esi >= uint32(start+span) {
				return fmt.Errorf("symbol %d: source symbol %v out of turn", i, id)
			}
			src, next[b] = b, esi+1
		case esi != repair[b]:
			return fmt.Errorf("symbol %d: repair symbol %v out of turn", i, id)
		default:
			src, repair[b] = len(ks), esi+uint32(n)
		}
	}
	return nil
}

// shims are the two packet I/O paths a loop can be on.
var shims = []struct {
	name string
	wrap func(net.PacketConn) net.PacketConn
}{
	{"platform", func(c net.PacketConn) net.PacketConn { return c }},
	{"portable", func(c net.PacketConn) net.PacketConn { return passConn{c} }},
}

// The same two-server fetch with both ends on the platform's shim —
// trains and batched reads where the platform has them — and with both
// on the portable one, each behind a network shim that watches the wire:
// same bytes, every fresh symbol attributed to a sender, every pull
// counted, no more outstanding at the end than a window per sender, and
// from either shim a server emits the same symbols: its schedule, in
// order, nothing twice. (That no server emits beyond its grant, or a Seq
// twice, the network shim checks itself.)
func TestShimDifferential(t *testing.T) {
	obj := randObject(t, 400_000)
	cfg := DefaultConfig()
	cfg.Workers = 1
	layout, err := raptorq.NewBlockLayout(int64(len(obj)), cfg.SymbolSize, cfg.MaxBlockK)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range shims {
		t.Run(tc.name, func(t *testing.T) {
			remotes, nets, srvs := shimmedServers(t, obj, cfg, 2, tc.wrap, netshim.Config{Record: true})
			// Through a shim a window arrives packet by packet, and a socket
			// is charged two kilobytes and more for each: make room for a
			// whole one, or a fetcher that falls behind loses symbols to its
			// own socket, which a fetch survives and this test counts.
			udp := newUDP(t)
			defer udp.Close()
			if err := udp.(*net.UDPConn).SetReadBuffer(1 << 20); err != nil {
				t.Fatal(err)
			}
			conn := tc.wrap(udp)
			_, lastDrain := fetchDrain(t, tc.wrap) // bounds the datagrams of one read
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			const flow = 77
			got, st, err := FetchMultiSourceStats(ctx, conn, remotes, flow, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, obj) {
				t.Fatal("fetched object differs")
			}
			if st.Duplicates != 0 || st.Retries != 0 || st.SendErrors != 0 || st.Lost != 0 {
				t.Fatalf("loopback fetch was not clean: %+v", st)
			}
			if sum := st.PerSender[0] + st.PerSender[1]; sum != st.Symbols {
				t.Fatalf("per-sender sum %d != symbols %d", sum, st.Symbols)
			}
			if st.ReadCalls == 0 || st.Datagrams < st.Symbols || st.Datagrams > st.ReadCalls*lastDrain {
				t.Fatalf("read counters inconsistent: %+v", st)
			}
			if st.Idle <= 0 || st.Idle > st.Elapsed {
				t.Fatalf("idle for %v of %v", st.Idle, st.Elapsed)
			}
			pulls, window := 0, standingWindow
			for i, n := range nets {
				select {
				case <-n.Done():
				case <-ctx.Done():
					t.Fatalf("server %d never saw Done", i)
				}
				b := n.Book(flow)
				pulls += b.Pulls
				if b.Hellos < 1 || b.Hellos > 1+st.Regrants || b.Missed != 0 {
					t.Fatalf("server %d: %d Hellos reached it, the shim missed %d symbols", i, b.Hellos, b.Missed)
				}
				if int(b.MaxStep) > window {
					t.Fatalf("sender %d was granted %d symbols at once; the standing window is %d", i, b.MaxStep, window)
				}
				if err := followsSchedule(layout.K, i, 2, b.Emitted); err != nil {
					t.Fatalf("sender %d emitted %d symbols that are not its schedule in order: %v", i, len(b.Emitted), err)
				}
				// What a server emitted arrived, but for what was in flight
				// when the object was complete: the standing window at most,
				// and one more for each time the fetcher would not wait.
				if out := len(b.Emitted) - st.PerSender[i]; out < 0 || out > window*(1+st.Regrants) {
					t.Fatalf("sender %d emitted %d symbols, %d arrived, %d re-grants", i, len(b.Emitted), st.PerSender[i], st.Regrants)
				}
				// The counters trail the wire by the burst being sent.
				if ss := srvs[i].Stats(); ss.SendErrors != 0 || ss.SendCalls > ss.SymbolsSent || ss.SymbolsSent+maxPullCredits < len(b.Emitted) {
					t.Fatalf("server %d: %+v for %d symbols on the wire", i, ss, len(b.Emitted))
				}
			}
			if pulls != st.PullsSent {
				t.Fatalf("servers read %d pulls, fetcher counted %d sent", pulls, st.PullsSent)
			}
		})
	}
}

// The same again with the network losing a quarter of the packets each
// way: the fetch completes on either shim with one stall period at
// most, what a server emits is still its schedule in
// order, and the books balance — it never sends a symbol it was not
// granted by a Hello or a Pull that reached it.
func TestShimDifferentialUnderLoss(t *testing.T) {
	obj := randObject(t, 150_000)
	cfg := DefaultConfig()
	cfg.Workers = 1
	layout, err := raptorq.NewBlockLayout(int64(len(obj)), cfg.SymbolSize, cfg.MaxBlockK)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range shims {
		t.Run(tc.name, func(t *testing.T) {
			lossy := netshim.Faults{Loss: 0.25}
			remotes, nets, _ := shimmedServers(t, obj, cfg, 2, tc.wrap, netshim.Config{Seed: 100, Up: lossy, Down: lossy, Record: true})
			conn := tc.wrap(newUDP(t))
			defer conn.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			got, st, err := FetchMultiSourceStats(ctx, conn, remotes, 78, cfg)
			if err != nil {
				t.Fatalf("fetch under 25%% loss failed: %v (%+v)", err, st)
			}
			if !bytes.Equal(got, obj) {
				t.Fatal("fetch under loss corrupted object")
			}
			if st.Retries > 1 || st.Lost == 0 {
				t.Fatalf("%d stall periods and %d symbols slid over at 25%% loss: %+v", st.Retries, st.Lost, st)
			}
			for i, n := range nets {
				b := n.Book(78)
				if err := followsSchedule(layout.K, i, 2, b.Emitted); err != nil {
					t.Fatalf("sender %d emitted %d symbols that are not its schedule in order: %v", i, len(b.Emitted), err)
				}
				if st.PerSender[i] > len(b.Emitted) || uint32(len(b.Emitted)) != b.Sent {
					t.Fatalf("sender %d emitted %d symbols up to Seq %d and %d arrived", i, len(b.Emitted), b.Sent, st.PerSender[i])
				}
			}
		})
	}
}

// One sender is silent from the start and the other goes silent in the
// middle of the fetch for three quarters of the stall budget. The backoff
// re-grant restarts the live sender within a RetryInterval of its speaking
// again — a wait still doubling would outlast the budget — keeps granting
// the silent one, no more often than it lets fall due, and the books must
// still balance (the network shims check them).
func TestSilentSenderRecovered(t *testing.T) {
	obj := randObject(t, 2<<20)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.RetryInterval = 20 * time.Millisecond
	cfg.MaxRetries = 20
	remotes, nets, _ := shimmedServers(t, obj, cfg, 2, shims[0].wrap, netshim.Config{})
	nets[0].Mute(0, 0)
	nets[1].Mute(2*time.Millisecond, 15*cfg.RetryInterval)
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, remotes, 9, cfg)
	if err != nil {
		t.Fatalf("fetch failed: %v (%+v)", err, st)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if st.Retries == 0 {
		t.Fatal("no stall period passed; the senders were not silent together")
	}
	if st.PerSender[0] != 0 || st.PerSender[1] != st.Symbols {
		t.Fatalf("the silent sender delivered %d symbols of %d", st.PerSender[0], st.Symbols)
	}
	// The one never heard was sent its Hello, another at each re-grant, and
	// a Done. Re-grants fall due at q, 3q, 7q, ... of waiting, RetryInterval
	// apart at most, q being at least the lesser of quietFloor and a quarter
	// of RetryInterval; each comes a read's wait late at most, which a
	// loaded host may stretch, but not to another RetryInterval.
	up, _ := nets[0].Counts()
	regrants := up.Passed - 2
	most := regrantsDue(st.Idle, min(quietFloor, cfg.RetryInterval/4), cfg.RetryInterval)
	least := max(1, int(st.Idle/(2*cfg.RetryInterval)))
	if regrants < least || regrants > most || st.Regrants <= regrants {
		t.Fatalf("%d re-grants in all, %d of them to the silent sender in %v of waiting; want %d to %d, and the live one's besides: %+v", st.Regrants, regrants, st.Idle, least, most, st)
	}
}

// helloDropper is a fetcher's socket that loses the first Hello written
// to it, and counts them.
type helloDropper struct {
	net.PacketConn
	hellos int
}

func (c *helloDropper) WriteTo(p []byte, to net.Addr) (int, error) {
	if hdr, _, err := wire.ParseHeader(p); err == nil && hdr.Type == wire.MsgHello {
		if c.hellos++; c.hellos == 1 {
			return len(p), nil
		}
	}
	return c.PacketConn.WriteTo(p, to)
}

// The first Hello is lost: the sender, not yet heard, is granted again on
// the backoff with a Hello, which opens the session that a Pull could not.
func TestLostHelloRegranted(t *testing.T) {
	obj := randObject(t, 100_000)
	srv := startServer(t, obj, DefaultConfig())
	conn := &helloDropper{PacketConn: newUDP(t)}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 10, DefaultConfig())
	if err != nil {
		t.Fatalf("%v (%+v)", err, st)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if conn.hellos < 2 || st.Regrants == 0 || st.Retries != 0 {
		t.Fatalf("%d Hellos written, the first lost; %d re-grants, %d stall periods: %+v", conn.hellos, st.Regrants, st.Retries, st)
	}
}

// fakeSender owns a socket and an encoder and plays a sender by hand.
type fakeSender struct {
	conn net.PacketConn
	enc  *raptorq.ObjectEncoder
	flow uint32
}

func newFakeSender(t *testing.T, obj []byte, symbolSize int, flow uint32) *fakeSender {
	t.Helper()
	enc, err := raptorq.NewObjectEncoder(obj, symbolSize, 256)
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeSender{conn: newUDP(t), enc: enc, flow: flow}
	t.Cleanup(func() { s.conn.Close() })
	return s
}

func (s *fakeSender) announce() []byte {
	l := s.enc.Layout()
	return wire.AppendAnnounce(nil, wire.Announce{Flow: s.flow, ObjectSize: uint64(l.F), SymbolSize: uint32(l.T), MaxK: 256})
}

// data is symbol esi of block 0, emitted as the esi-th of the session.
func (s *fakeSender) data(esi uint32) []byte { return s.dataSeq(esi, esi) }

func (s *fakeSender) dataSeq(esi, seq uint32) []byte {
	return wire.AppendData(nil, wire.Data{Flow: s.flow, ESI: esi, Seq: seq, Payload: s.enc.Symbol(0, esi)})
}

func (s *fakeSender) send(t *testing.T, to net.Addr, pkts ...[]byte) {
	t.Helper()
	for _, p := range pkts {
		if _, err := s.conn.WriteTo(p, to); err != nil {
			t.Fatal(err)
		}
	}
}

// grants reads the sender's socket until a Hello or a Pull grants upTo
// symbols or more, and returns every grant up to that one in the order
// they came; nil if none did in ten seconds.
func (s *fakeSender) grants(upTo uint32) []uint32 {
	buf := make([]byte, 2048)
	var seen []uint32
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, _, err := s.conn.ReadFrom(buf)
		if err != nil {
			return nil
		}
		hdr, body, err := wire.ParseHeader(buf[:n])
		if err != nil {
			continue
		}
		switch hdr.Type {
		case wire.MsgHello:
			h, _ := wire.ParseHello(hdr.Flow, body)
			seen = append(seen, h.Grant)
		case wire.MsgPull:
			p, _ := wire.ParsePull(hdr.Flow, body)
			seen = append(seen, p.Grant)
		default:
			continue
		}
		if int32(seen[len(seen)-1]-upTo) >= 0 {
			return seen
		}
	}
}

// A fetcher that was away while a hundred symbols queued up slides its
// window over them drain by drain: the grants only ever rise, none is
// further ahead of what the sender has emitted than the sender's window,
// and they come a step of the window apart at the closest, not one per
// symbol, however few datagrams a read takes.
func TestCoalescedCreditsBounded(t *testing.T) {
	if standingWindow > maxPullCredits {
		t.Fatalf("a fetch's whole window (%d) is more than a server pays out at once (%d)", standingWindow, maxPullCredits)
	}
	const symbolSize, k, queued = 64, 200, 100
	obj := randObject(t, symbolSize*k)
	const flow = 5
	snd := newFakeSender(t, obj, symbolSize, flow)
	conn := newUDP(t)
	defer conn.Close()
	window := uint32(min(trainMax, standingWindow))

	// Everything is in the socket before the fetch starts reading.
	pkts := [][]byte{snd.announce()}
	for esi := 0; esi < queued; esi++ {
		pkts = append(pkts, snd.data(uint32(esi)))
	}
	snd.send(t, conn.LocalAddr(), pkts...)
	// The rest follows once the fetcher has slid its window over that.
	rest := make(chan []uint32, 1)
	go func() {
		grants := snd.grants(queued + window - window/4)
		for esi := queued; grants != nil && esi < k; esi++ {
			_, _ = snd.conn.WriteTo(snd.data(uint32(esi)), conn.LocalAddr())
		}
		rest <- grants
	}()

	cfg := DefaultConfig()
	cfg.SymbolSize = symbolSize
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{snd.conn.LocalAddr()}, flow, cfg)
	if err != nil {
		t.Fatalf("%v (%+v)", err, st)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	grants := <-rest
	if grants == nil {
		t.Fatal("the window never slid over the queued symbols")
	}
	if grants[0] != window {
		t.Fatalf("the Hello granted %d, want the sender's window %d: %v", grants[0], window, grants)
	}
	for i := 1; i < len(grants); i++ {
		if step := grants[i] - grants[i-1]; step < window/4 || step > window {
			t.Fatalf("grant %d follows %d: want steps of %d to %d: %v", grants[i], grants[i-1], window/4, window, grants)
		}
	}
	if last := grants[len(grants)-1]; last > queued+window {
		t.Fatalf("granted %d with %d symbols emitted and a window of %d: %v", last, queued, window, grants)
	}
	// One pull per step, and three re-grants at most: a loaded host may
	// keep the sender quiet past a wait or two, but the fetch is lossless.
	if st.Duplicates != 0 || st.Retries != 0 || st.Lost != 0 || st.Regrants > 3 || st.PullsSent > k/int(window/4)+3 {
		t.Fatalf("not clean: %+v", st)
	}
}

// A datagram longer than any valid packet, and a Data packet cut short,
// in the middle of a queued burst: each is dropped alone. The long one
// is a valid symbol with a tail, so only the shim's length rule keeps it
// out — a truncating read would have taken it.
func TestBadDatagramDropsOnlyItself(t *testing.T) {
	const symbolSize, k = 64, 40
	obj := randObject(t, symbolSize*k)
	const flow = 6
	snd := newFakeSender(t, obj, symbolSize, flow)
	conn := newUDP(t)
	defer conn.Close()

	// All K source symbols and nothing else that is valid: had a bad
	// datagram taken a neighbour along, the block would never complete.
	pkts := [][]byte{snd.announce()}
	for esi := 0; esi < k; esi++ {
		pkts = append(pkts, snd.data(uint32(esi)))
		switch esi {
		case 10:
			long := append(snd.data(1000), make([]byte, 32)...)
			pkts = append(pkts, long)
		case 20:
			short := snd.data(1001)
			pkts = append(pkts, short[:len(short)-7])
		}
	}
	snd.send(t, conn.LocalAddr(), pkts...)

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
	if st.Symbols != k || st.Retries != 0 {
		t.Fatalf("got %d symbols and %d retries, want exactly the %d valid ones and none: %+v", st.Symbols, st.Retries, k, st)
	}
	if want := len(pkts); st.Datagrams != want {
		t.Fatalf("read %d datagrams, %d were sent", st.Datagrams, want)
	}
}

// A sender configured for longer symbols than the fetcher: the Announce
// says so, and the fetch makes room in its ring instead of stalling.
func TestFetchLongerSymbolsThanConfigured(t *testing.T) {
	obj := randObject(t, 100_000)
	srvCfg := DefaultConfig()
	srvCfg.SymbolSize = 1400
	srv := startServer(t, obj, srvCfg)
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if st.Retries != 0 {
		t.Fatalf("%d stall periods", st.Retries)
	}
}

// Addresses compare equal however they were spelled: a remote given in
// the 16-byte form package net produces, or with no IP at all, must
// match the 4-byte peer address a datagram arrives with.
func TestAddrPortOf(t *testing.T) {
	want := netip.MustParseAddrPort("127.0.0.1:9000")
	for _, a := range []net.Addr{
		&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9000},
		&net.UDPAddr{IP: net.IP{127, 0, 0, 1}, Port: 9000},
		&net.UDPAddr{Port: 9000},
		&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9000}, // any Addr that prints as ip:port
	} {
		if got := addrPortOf(a); got != want {
			t.Fatalf("addrPortOf(%#v) = %v; want %v", a, got, want)
		}
	}
	if got := addrPortOf(&net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 1, Zone: "7"}); got != netip.MustParseAddrPort("[fe80::1%7]:1") {
		t.Fatalf("IPv6 with zone: %v", got)
	}
	for _, a := range []net.Addr{nil, &net.UnixAddr{Name: "/tmp/x", Net: "unixgram"}, &net.UDPAddr{IP: net.IP{1, 2, 3}, Port: 1}} {
		if got := addrPortOf(a); got.IsValid() {
			t.Fatalf("addrPortOf(%#v) = %v, want an invalid AddrPort", a, got)
		}
	}
	_, _, err := FetchMultiSourceStats(context.Background(), nil, []net.Addr{&net.UnixAddr{Name: "/tmp/x"}}, 1, DefaultConfig())
	if err == nil {
		t.Fatal("a fetch from a non-IP remote was accepted")
	}
}

// A fetch over wildcard ("dual-stack" where the host has IPv6) sockets
// with the server named by its IPv4 address: addresses match, and the
// server's bursts still leave as trains where the host sends any.
func TestFetchWildcardSockets(t *testing.T) {
	obj := randObject(t, 50_000)
	srvConn, err := net.ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(srvConn, obj, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()
	conn, err := net.ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	remote := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: srv.Addr().(*net.UDPAddr).Port}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{remote}, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if st.PerSender[0] != st.Symbols || st.Retries != 0 || st.SendErrors != 0 {
		t.Fatalf("symbols not attributed to the sender: %+v", st)
	}
	if ss := srv.Stats(); ss.SendErrors != 0 || trainRefusal(t) == "" && ss.SymbolsSent < 4*ss.SendCalls {
		t.Fatalf("wildcard server sent %d symbols in %d calls (%d errors); want trains", ss.SymbolsSent, ss.SendCalls, ss.SendErrors)
	}
}

// Both shims turn a passed read deadline into an error isTimeout
// recognises, and keep a deadline armed across reads instead of
// re-arming it for each one.
func TestShimReadDeadline(t *testing.T) {
	for _, tc := range shims {
		t.Run(tc.name, func(t *testing.T) {
			conn := newUDP(t)
			defer conn.Close()
			io := newPktIO(tc.wrap(conn))
			io.setMaxPacket(64)
			const wait = 200 * time.Millisecond
			start := time.Now()
			n, err := io.read(wait)
			if n != 0 || !isTimeout(err) {
				t.Fatalf("read on a silent socket = %d, %v; want a timeout", n, err)
			}
			if el := time.Since(start); el < wait/2 {
				t.Fatalf("timed out after %v, before half of %v", el, wait)
			}
			// A datagram re-arms nothing while over half the wait remains.
			if _, err := conn.WriteTo([]byte("x"), conn.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			if n, err := io.read(wait); n != 1 || err != nil {
				t.Fatalf("read = %d, %v", n, err)
			}
			armed := io.deadline
			if _, err := conn.WriteTo([]byte("y"), conn.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			if n, err := io.read(wait); n != 1 || err != nil || string(io.pkt(0).data) != "y" {
				t.Fatalf("read = %d, %v, %q", n, err, io.pkt(0).data)
			}
			if !io.deadline.Equal(armed) {
				t.Fatal("deadline re-armed with more than half the wait left")
			}
			if from := addrPortOf(conn.LocalAddr()); io.pkt(0).from != from {
				t.Fatalf("peer %v, want %v", io.pkt(0).from, from)
			}
		})
	}
}
