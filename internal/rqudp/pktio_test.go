package rqudp

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

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

// pullTap wraps a server's socket and adds up the credits of the pulls
// the server reads, per flow. done is closed when a Done arrives: the
// receiver sends nothing after it, so the sums are final.
type pullTap struct {
	net.PacketConn
	mu      sync.Mutex
	credits map[uint32]int
	pulls   map[uint32]int
	maxPull int
	done    chan struct{}
}

func newPullTap(conn net.PacketConn) *pullTap {
	return &pullTap{PacketConn: conn, credits: map[uint32]int{}, pulls: map[uint32]int{}, done: make(chan struct{})}
}

func (p *pullTap) ReadFrom(b []byte) (int, net.Addr, error) {
	n, from, err := p.PacketConn.ReadFrom(b)
	if err != nil {
		return n, from, err
	}
	if hdr, body, err := wire.ParseHeader(b[:n]); err == nil {
		p.mu.Lock()
		switch hdr.Type {
		case wire.MsgPull:
			if pull, err := wire.ParsePull(hdr.Flow, body); err == nil {
				p.credits[hdr.Flow] += int(pull.Credits)
				p.pulls[hdr.Flow]++
				p.maxPull = max(p.maxPull, int(pull.Credits))
			}
		case wire.MsgDone:
			close(p.done)
		}
		p.mu.Unlock()
	}
	return n, from, err
}

// relay is the network between a fetcher and one server: a socket that
// forwards every datagram the server sends to whoever last wrote to it,
// and everything else to the server. Both ends keep their own
// *net.UDPConn, so the platform's trains and batched reads stay on, and
// the relay sees, and can lose, single packets whichever shim sent them.
// It never loses a Done, so that done closing means the server has been
// told.
type relay struct {
	conn   net.PacketConn
	server net.Addr
	loss   float64
	rng    *rand.Rand

	mu     sync.Mutex
	client net.Addr
	book   wireBook
	done   chan struct{}
}

// wireBook is what a relay saw pass.
type wireBook struct {
	hellos  int         // what reached the server: Hellos,
	pulls   int         // Pulls,
	credits int         // their credits,
	maxPull int         // and the largest one
	sent    [][2]uint32 // (SBN, ESI) of the Data the server sent, in order
}

// seen returns the book so far.
func (r *relay) seen() wireBook {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.book
	b.sent = slices.Clone(b.sent)
	return b
}

// newRelay starts a relay in front of server and returns it; its address
// is what a fetcher is given as the remote.
func newRelay(t *testing.T, server net.Addr, loss float64, seed int64) *relay {
	t.Helper()
	r := &relay{conn: newUDP(t), server: server, loss: loss, rng: rand.New(rand.NewSource(seed)), done: make(chan struct{})}
	t.Cleanup(func() { r.conn.Close() })
	go func() {
		buf := make([]byte, 65536)
		for {
			n, from, err := r.conn.ReadFrom(buf)
			if err != nil {
				return
			}
			r.forward(buf[:n], from)
		}
	}()
	return r
}

func (r *relay) forward(pkt []byte, from net.Addr) {
	hdr, body, err := wire.ParseHeader(pkt)
	r.mu.Lock()
	defer r.mu.Unlock()
	lost := r.rng.Float64() < r.loss
	to := r.server
	if from.String() == r.server.String() {
		to = r.client
	} else {
		r.client = from
	}
	switch {
	case err != nil:
	case to != r.server:
		if d, err := wire.ParseData(hdr.Flow, body); err == nil && hdr.Type == wire.MsgData {
			r.book.sent = append(r.book.sent, [2]uint32{d.SBN, d.ESI})
		}
	case hdr.Type == wire.MsgDone:
		lost = false
		close(r.done)
	case lost:
	case hdr.Type == wire.MsgHello:
		r.book.hellos++
	case hdr.Type == wire.MsgPull:
		if pull, err := wire.ParsePull(hdr.Flow, body); err == nil {
			r.book.pulls++
			r.book.credits += int(pull.Credits)
			r.book.maxPull = max(r.book.maxPull, int(pull.Credits))
		}
	}
	if !lost && to != nil {
		_, _ = r.conn.WriteTo(pkt, to)
	}
}

// relayedServers starts n servers for obj, each on wrap(a UDP socket) and
// behind a relay; the relays' addresses are the remotes.
func relayedServers(t *testing.T, obj []byte, cfg Config, n int, wrap func(net.PacketConn) net.PacketConn, loss float64) ([]net.Addr, []*relay, []*Server) {
	t.Helper()
	var remotes []net.Addr
	var relays []*relay
	var srvs []*Server
	for i := 0; i < n; i++ {
		srv, err := NewServer(wrap(newUDP(t)), obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		t.Cleanup(func() { srv.Close() })
		r := newRelay(t, srv.Addr(), loss, int64(100+i))
		remotes, relays, srvs = append(remotes, r.conn.LocalAddr()), append(relays, r), append(srvs, srv)
	}
	return remotes, relays, srvs
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
// on the portable one, each behind relays that watch the wire:
// same bytes, every fresh symbol attributed to a sender and credited to
// it exactly once (all but those of the last drain, which is answered
// with Done), and from either shim a server emits the same symbols: its
// schedule, in order, nothing twice.
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
			remotes, relays, srvs := relayedServers(t, obj, cfg, 2, tc.wrap, 0)
			conn := tc.wrap(newUDP(t))
			defer conn.Close()
			_, lastDrain := fetchDrain(t, tc.wrap) // bounds the fresh symbols of the final drain
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
			if st.Duplicates != 0 || st.Retries != 0 || st.SendErrors != 0 {
				t.Fatalf("loopback fetch was not clean: %+v", st)
			}
			if sum := st.PerSender[0] + st.PerSender[1]; sum != st.Symbols {
				t.Fatalf("per-sender sum %d != symbols %d", sum, st.Symbols)
			}
			if st.ReadCalls == 0 || st.Datagrams < st.Symbols || st.Datagrams > st.ReadCalls*lastDrain {
				t.Fatalf("read counters inconsistent: %+v", st)
			}
			uncredited, pulls := 0, 0
			for i, r := range relays {
				select {
				case <-r.done:
				case <-ctx.Done():
					t.Fatalf("server %d never saw Done", i)
				}
				b := r.seen()
				pulls += b.pulls
				if b.maxPull > lastDrain {
					t.Fatalf("sender %d was sent a pull for %d credits; a drain holds at most %d", i, b.maxPull, lastDrain)
				}
				if b.credits > st.PerSender[i] {
					t.Fatalf("sender %d credited %d times for %d fresh symbols", i, b.credits, st.PerSender[i])
				}
				uncredited += st.PerSender[i] - b.credits
				if want := refSchedule(layout.K, i, 2, len(b.sent)); !slices.Equal(b.sent, want) {
					t.Fatalf("sender %d emitted %d symbols that are not its schedule in order", i, len(b.sent))
				}
				if owed := cfg.InitWindow + b.credits; len(b.sent) > owed || len(b.sent) < st.PerSender[i] {
					t.Fatalf("sender %d emitted %d symbols: it was owed %d and %d arrived", i, len(b.sent), owed, st.PerSender[i])
				}
				// The counters trail the wire by the burst being sent.
				if ss := srvs[i].Stats(); ss.SendErrors != 0 || ss.SendCalls > ss.SymbolsSent || ss.SymbolsSent+maxPullCredits < len(b.sent) {
					t.Fatalf("server %d: %+v for %d symbols on the wire", i, ss, len(b.sent))
				}
			}
			if uncredited < 1 || uncredited > lastDrain {
				t.Fatalf("%d fresh symbols never credited; only the last drain's (1..%d) may be", uncredited, lastDrain)
			}
			if pulls != st.PullsSent {
				t.Fatalf("servers read %d pulls, fetcher counted %d sent", pulls, st.PullsSent)
			}
		})
	}
}

// The same again with the network losing a quarter of the packets each
// way: the fetch completes on either shim, what a server emits is still
// its schedule in order, and the books balance — it never sends a symbol
// it was not asked for, by a Hello's window or a Pull's credits that
// reached it.
func TestShimDifferentialUnderLoss(t *testing.T) {
	obj := randObject(t, 150_000)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.RetryInterval = 20 * time.Millisecond
	layout, err := raptorq.NewBlockLayout(int64(len(obj)), cfg.SymbolSize, cfg.MaxBlockK)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range shims {
		t.Run(tc.name, func(t *testing.T) {
			remotes, relays, _ := relayedServers(t, obj, cfg, 2, tc.wrap, 0.25)
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
			for i, r := range relays {
				b := r.seen()
				if want := refSchedule(layout.K, i, 2, len(b.sent)); !slices.Equal(b.sent, want) {
					t.Fatalf("sender %d emitted %d symbols that are not its schedule in order", i, len(b.sent))
				}
				if owed := b.hellos*cfg.InitWindow + b.credits; len(b.sent) > owed || st.PerSender[i] > len(b.sent) {
					t.Fatalf("sender %d emitted %d symbols: it was owed %d and %d arrived", i, len(b.sent), owed, st.PerSender[i])
				}
			}
		})
	}
}

// muteConn is a server socket that stops delivering Data: for good
// after `after` packets when `resume` is zero, else for the next
// `resume` packets only.
type muteConn struct {
	net.PacketConn
	mu            sync.Mutex
	sent          int
	after, resume int
}

func (m *muteConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if hdr, _, err := wire.ParseHeader(p); err == nil && hdr.Type == wire.MsgData {
		m.mu.Lock()
		m.sent++
		mute := m.sent > m.after && (m.resume == 0 || m.sent <= m.after+m.resume)
		m.mu.Unlock()
		if mute {
			return len(p), nil
		}
	}
	return m.PacketConn.WriteTo(p, addr)
}

// One sender goes silent for good mid-fetch and the other loses a whole
// window at once, so every pull clock stops. The stall guard has to
// restart the live sender, and the books must still balance: it is
// credited once per fresh symbol it delivered plus one PullBatch per
// recovery, nothing for the silent one's sake.
func TestSilentSenderRecovered(t *testing.T) {
	obj := randObject(t, 300_000)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.RetryInterval = 20 * time.Millisecond
	silent := &muteConn{PacketConn: newUDP(t), after: 40}
	live := newPullTap(&muteConn{PacketConn: newUDP(t), after: 100, resume: cfg.InitWindow})
	var remotes []net.Addr
	for _, c := range []net.PacketConn{silent, live} {
		srv, err := NewServer(c, obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		defer srv.Close()
		remotes = append(remotes, srv.Addr())
	}
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const flow = 9
	got, st, err := FetchMultiSourceStats(ctx, conn, remotes, flow, cfg)
	if err != nil {
		t.Fatalf("fetch failed: %v (%+v)", err, st)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if st.Retries == 0 {
		t.Fatal("the stall guard never ran; the senders were not silent together")
	}
	if st.PerSender[0] != 40 {
		t.Fatalf("silent sender delivered %d symbols, want the 40 before it went quiet", st.PerSender[0])
	}
	select {
	case <-live.done:
	case <-ctx.Done():
		t.Fatal("live server never saw Done")
	}
	live.mu.Lock()
	credits := live.credits[flow]
	live.mu.Unlock()
	earned := credits - st.Retries*cfg.PullBatch
	_, drain := fetchDrain(t, shims[0].wrap)
	if lost := st.PerSender[1] - earned; lost < 1 || lost > drain {
		t.Fatalf("live sender: %d credits for %d fresh symbols and %d recoveries", credits, st.PerSender[1], st.Retries)
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

func (s *fakeSender) data(esi uint32) []byte {
	return wire.AppendData(nil, wire.Data{Flow: s.flow, ESI: esi, Payload: s.enc.Symbol(0, esi)})
}

func (s *fakeSender) send(t *testing.T, to net.Addr, pkts ...[]byte) {
	t.Helper()
	for _, p := range pkts {
		if _, err := s.conn.WriteTo(p, to); err != nil {
			t.Fatal(err)
		}
	}
}

// sendOnceCredited reads the sender's socket until it has seen pulls for
// credits symbols, then sends pkt.
func (s *fakeSender) sendOnceCredited(to net.Addr, credits int, pkt []byte) {
	buf := make([]byte, 2048)
	for seen := 0; seen < credits; {
		_ = s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, _, err := s.conn.ReadFrom(buf)
		if err != nil {
			return
		}
		if hdr, body, err := wire.ParseHeader(buf[:n]); err == nil && hdr.Type == wire.MsgPull {
			pull, _ := wire.ParsePull(hdr.Flow, body)
			seen += int(pull.Credits)
		}
	}
	_, _ = s.conn.WriteTo(pkt, to)
}

// A fetcher that was away while a hundred symbols queued up coalesces
// them into pulls of at most one drain each: no count comes near the
// server's clamp or wraps the wire's uint16, and no arrival is credited
// twice or not at all. This sender writes packet by packet, so a drain is
// as many datagrams as a read takes messages: fewer with coalesced reads,
// whose slots are sized for trains, than without.
func TestCoalescedCreditsBounded(t *testing.T) {
	if most := groMsgs * trainMax; most > maxPullCredits || drainMax > maxPullCredits {
		t.Fatalf("a drain (%d coalesced, %d not) can earn more credits than a server pays out (%d)", most, drainMax, maxPullCredits)
	}
	const symbolSize, k, queued = 64, 200, 100
	obj := randObject(t, symbolSize*k)
	const flow = 5
	snd := newFakeSender(t, obj, symbolSize, flow)
	conn := newUDP(t)
	defer conn.Close()
	drain, _ := fetchDrain(t, shims[0].wrap)

	// Everything is in the socket before the fetch starts reading.
	pkts := [][]byte{snd.announce()}
	for esi := 0; esi < queued; esi++ {
		pkts = append(pkts, snd.data(uint32(esi)))
	}
	snd.send(t, conn.LocalAddr(), pkts...)
	// The rest follows once the fetcher has asked for it.
	rest := make(chan []int, 1)
	go func() {
		buf := make([]byte, 2048)
		want := queued // credits to see before the remainder is sent
		var credits []int
		for want > 0 {
			_ = snd.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, _, err := snd.conn.ReadFrom(buf)
			if err != nil {
				rest <- nil
				return
			}
			hdr, body, err := wire.ParseHeader(buf[:n])
			if err != nil || hdr.Type != wire.MsgPull {
				continue // the Hello
			}
			pull, _ := wire.ParsePull(hdr.Flow, body)
			credits = append(credits, int(pull.Credits))
			want -= int(pull.Credits)
		}
		for esi := queued; esi < k; esi++ {
			_, _ = snd.conn.WriteTo(snd.data(uint32(esi)), conn.LocalAddr())
		}
		rest <- credits
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
	credits := <-rest
	if credits == nil {
		t.Fatal("the queued symbols were never all credited")
	}
	sum, biggest := 0, 0
	for _, c := range credits {
		sum += c
		biggest = max(biggest, c)
	}
	if sum != queued {
		t.Fatalf("%d queued symbols earned %d credits: %v", queued, sum, credits)
	}
	if biggest != drain {
		t.Fatalf("largest pull %d, want a full drain of %d and no more: %v", biggest, drain, credits)
	}
	if st.Duplicates != 0 || st.Retries != 0 {
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

	pkts := [][]byte{snd.announce()}
	for esi := 0; esi < k-1; esi++ {
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
	// The last source symbol completes the block once the burst has been
	// credited; had a bad datagram taken its neighbours along, K-1 symbols
	// plus this one would not be enough.
	go snd.sendOnceCredited(conn.LocalAddr(), k-1, snd.data(k-1))

	cfg := DefaultConfig()
	cfg.SymbolSize = symbolSize
	cfg.RetryInterval = time.Second // a stall recovery would hide a dropped neighbour
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
	if want := len(pkts) + 1; st.Datagrams != want {
		t.Fatalf("read %d datagrams, %d were sent", st.Datagrams, want)
	}
}

// A sender configured for longer symbols than the fetcher: the first
// window does not fit the ring, the Announce says so, and the fetch
// makes room and asks again instead of stalling.
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
		t.Fatalf("needed %d stall recoveries", st.Retries)
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
