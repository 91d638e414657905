package rqudp

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"polyraptor/internal/wire"
)

// scriptConn is a socket for a Server driven by hand: reads return what
// the test queued (a timeout once that runs out), writes are recorded
// per destination port and checked to be well-formed packets.
type scriptConn struct {
	in      []scripted
	sent    map[int]int // packets written, by destination port
	seqs    []uint32    // the Seq of each Data packet written
	ids     [][2]uint32 // and its (SBN, ESI)
	bad     error       // the first malformed packet the server wrote
	failing bool        // refuse every write
}

type scripted struct {
	pkt  []byte
	from net.Addr
}

func newScriptConn() *scriptConn { return &scriptConn{sent: map[int]int{}} }

func peer(port int) *net.UDPAddr { return &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: port} }

// key is the session key the server derives for a peer's flow.
func key(port int, flow uint32) sessionKey {
	return sessionKey{peer: addrPortOf(peer(port)), flow: flow}
}

func (c *scriptConn) push(pkt []byte, port int) {
	c.in = append(c.in, scripted{pkt, peer(port)})
}

func (c *scriptConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if len(c.in) == 0 {
		return 0, nil, os.ErrDeadlineExceeded
	}
	d := c.in[0]
	c.in = c.in[1:]
	return copy(p, d.pkt), d.from, nil
}

func (c *scriptConn) WriteTo(p []byte, to net.Addr) (int, error) {
	if c.failing {
		return 0, errors.New("scriptConn: write refused")
	}
	c.sent[to.(*net.UDPAddr).Port]++
	hdr, body, err := wire.ParseHeader(p)
	switch {
	case err != nil:
	case hdr.Type == wire.MsgData:
		var d wire.Data
		d, err = wire.ParseData(hdr.Flow, body)
		c.seqs = append(c.seqs, d.Seq)
		c.ids = append(c.ids, [2]uint32{d.SBN, d.ESI})
	case hdr.Type == wire.MsgAnnounce:
		_, err = wire.ParseAnnounce(hdr.Flow, body)
	default:
		err = errors.New("a server sends only Announce and Data")
	}
	if err != nil && c.bad == nil {
		c.bad = err
	}
	return len(p), nil
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return peer(1) }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// scriptedServer is a Server on a scriptConn with a clock the test
// moves; run steps it until the queue is empty.
type scriptedServer struct {
	*Server
	conn  *scriptConn
	clock time.Time
}

func newScriptedServer(t testing.TB) *scriptedServer {
	t.Helper()
	return newScriptedServerWith(t, 64, 256, 64*20)
}

// newScriptedServerWith is newScriptedServer for an object of objLen
// bytes in symbols of symbolSize, blocks of at most maxK.
func newScriptedServerWith(t testing.TB, symbolSize, maxK, objLen int) *scriptedServer {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SymbolSize = symbolSize
	cfg.MaxBlockK = maxK
	cfg.Workers = 1
	obj := make([]byte, objLen)
	for i := range obj {
		obj[i] = byte(i)
	}
	conn := newScriptConn()
	srv, err := NewServer(conn, obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{Server: srv, conn: conn, clock: time.Unix(1_000_000, 0)}
	srv.now = func() time.Time { return s.clock }
	srv.open()
	return s
}

func (s *scriptedServer) run(t testing.TB) {
	t.Helper()
	for len(s.conn.in) > 0 {
		if err := s.step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.conn.bad != nil {
		t.Fatalf("server wrote a malformed packet: %v", s.conn.bad)
	}
}

// firstGrant is what the Hellos of these tests grant.
const firstGrant = 16

func hello(flow uint32) []byte {
	return wire.AppendHello(nil, wire.Hello{Flow: flow, SenderCount: 1, Grant: firstGrant})
}

func pull(flow uint32, grant uint32) []byte {
	return wire.AppendPull(nil, wire.Pull{Flow: flow, Grant: grant})
}

// A session whose Done was lost must expire even though the server is
// never idle: the sweep runs by the clock, from the drain loop.
func TestLostDoneExpiresUnderTraffic(t *testing.T) {
	s := newScriptedServer(t)
	const stale, busy = 4000, 4001
	s.conn.push(hello(1), stale)
	s.conn.push(hello(2), busy)
	s.run(t)
	if len(s.sessions) != 2 {
		t.Fatalf("%d sessions, want 2", len(s.sessions))
	}
	// The stale receiver is never heard from again; the busy one pulls
	// once a second for two idle limits.
	for i := 0; i < 2*int(sessionIdle/time.Second); i++ {
		s.clock = s.clock.Add(time.Second)
		s.conn.push(pull(2, uint32(firstGrant+1+i)), busy)
		s.run(t)
		if _, alive := s.sessions[key(stale, 1)]; alive && s.clock.Sub(time.Unix(1_000_000, 0)) > sessionIdle+sweepEvery {
			t.Fatalf("stale session still held %v after its last packet", s.clock.Sub(time.Unix(1_000_000, 0)))
		}
	}
	if len(s.sessions) != 1 {
		t.Fatalf("%d sessions left, want only the busy one", len(s.sessions))
	}
	if _, alive := s.sessions[key(busy, 2)]; !alive {
		t.Fatal("the busy session was swept")
	}
}

// A Hello flood fills the table to its cap and no further; sessions
// already in it keep being served, and room comes back when the flood's
// sessions expire.
func TestSessionTableCap(t *testing.T) {
	s := newScriptedServer(t)
	const first = 2000
	for i := 0; i <= maxSessions; i++ {
		s.conn.push(hello(1), first+i)
	}
	s.run(t)
	if len(s.sessions) != maxSessions {
		t.Fatalf("%d sessions after %d Hellos, want the cap %d", len(s.sessions), maxSessions+1, maxSessions)
	}
	refused := first + maxSessions
	if n := s.conn.sent[refused]; n != 0 {
		t.Fatalf("the Hello over the cap was answered with %d packets", n)
	}
	// A Hello retry inside the table is not a new session, and grants
	// nothing that the first did not.
	before := s.conn.sent[first]
	s.conn.push(hello(1), first)
	s.conn.push(pull(1, firstGrant+3), first)
	s.run(t)
	if got := s.conn.sent[first] - before; got != 1+3 {
		t.Fatalf("existing session got %d packets for the same Hello and a pull granting 3 more, want %d", got, 1+3)
	}
	// The existing session stays active while the rest go idle; once
	// they are swept there is room for the one that was refused.
	s.clock = s.clock.Add(sessionIdle / 2)
	s.conn.push(pull(1, firstGrant+4), first)
	s.run(t)
	s.clock = s.clock.Add(sessionIdle/2 + sweepEvery)
	s.conn.push(hello(1), refused)
	s.run(t)
	if len(s.sessions) != 2 {
		t.Fatalf("%d sessions after the idle limit, want the active one and the newcomer", len(s.sessions))
	}
	if s.conn.sent[refused] != 1+firstGrant {
		t.Fatalf("newcomer got %d packets, want an Announce and a window", s.conn.sent[refused])
	}
}

// A drain's grants are paid out as one burst per session, however many
// pulls brought them: the highest counts, the others are stale. No grant,
// however far ahead, is worth more than maxPullCredits at a time, and
// the next pull that restates it is paid the next lot; a Done in the same
// drain cancels what its session was owed.
func TestServerSumsCreditsPerDrain(t *testing.T) {
	s := newScriptedServer(t)
	s.conn.push(hello(1), 3000)
	s.conn.push(hello(2), 3001)
	s.run(t)
	base0, base1 := s.conn.sent[3000], s.conn.sent[3001]
	tap := &trainTap{t: t}
	s.io.train = tap.send
	// One drain, as the batched reader would deliver it.
	const far = firstGrant + 1<<20
	now := s.clock
	drain := func(ds ...scripted) {
		for _, d := range ds {
			s.handle(d.pkt, addrPortOf(d.from), now)
		}
		s.conn.push(wire.AppendDone(nil, 7), 3002) // any datagram: step pays out what is owed
		s.run(t)
	}
	drain(
		scripted{pull(1, firstGrant+2), peer(3000)}, scripted{pull(2, far), peer(3001)},
		scripted{pull(1, firstGrant+5), peer(3000)}, scripted{pull(2, far), peer(3001)},
		scripted{pull(1, firstGrant+3), peer(3000)}, // overtaken on the way
		scripted{pull(9, 5), peer(3000)},            // no such session
	)
	if got := s.conn.sent[3000] - base0; got != 0 || len(tap.segs) < 1 || tap.segs[0] != 5 {
		t.Fatalf("session 1, granted 2, 5 and 3 more in one drain, was sent %d packets and trains of %v; want one train of 5", got, tap.segs)
	}
	paid := func(trains []int) (n int) {
		for _, segs := range trains {
			n += segs
		}
		return n
	}
	if paid(tap.segs[1:]) != maxPullCredits || s.conn.sent[3001] != base1 {
		t.Fatalf("session 2 was sent %d symbols in trains and %d packets, want the cap %d", paid(tap.segs[1:]), s.conn.sent[3001]-base1, maxPullCredits)
	}
	if st := s.Stats(); st.PullsReceived != 5 || st.SendErrors != 0 {
		t.Fatalf("stats %+v, want 5 pulls received", st)
	}
	for _, sess := range s.sessions {
		if sess.sent != sess.granted {
			t.Fatalf("session %v: sent %d, granted %d after the drain", sess.key, sess.sent, sess.granted)
		}
	}

	// The cap discarded nothing: the receiver's next pull says it again.
	tap.segs = nil
	drain(scripted{pull(2, far), peer(3001)})
	if paid(tap.segs) != maxPullCredits {
		t.Fatalf("the grant restated was paid %d symbols more, want %d", paid(tap.segs), maxPullCredits)
	}

	tap.segs = nil
	drain(scripted{pull(1, firstGrant+9), peer(3000)}, scripted{wire.AppendDone(nil, 1), peer(3000)})
	if len(tap.segs) != 0 || s.conn.sent[3000] != base0 {
		t.Fatalf("a session that said Done was still sent trains of %v", tap.segs)
	}
}

// The counters wrap: a session that has been sent 2^32-10 symbols takes a
// grant of 6 for what it is, 16 more, numbers them through zero, and
// takes the grants from before the wrap as stale.
func TestGrantsWrapAround(t *testing.T) {
	s := newScriptedServer(t)
	s.conn.push(hello(1), 3000)
	s.run(t)
	sess := s.sessions[key(3000, 1)]
	sess.sent, sess.granted = 1<<32-10, 1<<32-10
	s.conn.seqs = nil
	s.conn.push(pull(1, 6), 3000)
	s.conn.push(pull(1, 1<<32-11), 3000)
	s.run(t)
	if len(s.conn.seqs) != 16 || s.conn.seqs[0] != 1<<32-10 || s.conn.seqs[15] != 5 {
		t.Fatalf("sent Seqs %v, want the 16 from 2^32-10 through 5", s.conn.seqs)
	}
	if sess.sent != 6 || sess.granted != 6 {
		t.Fatalf("sent %d, granted %d; want 6 and 6", sess.sent, sess.granted)
	}
}

// A Hello for a session that is far past its grant — a new fetch on the
// socket and flow of one whose Done was lost — is not stale: it counts
// from where the session is, and the symbols say where that is.
func TestHelloOnLeftoverSession(t *testing.T) {
	s := newScriptedServer(t)
	s.conn.push(hello(1), 3000)
	s.conn.push(pull(1, 500), 3000)
	s.run(t)
	s.conn.seqs = nil
	s.conn.push(hello(1), 3000)
	s.run(t)
	if len(s.conn.seqs) != firstGrant || s.conn.seqs[0] != 500 {
		t.Fatalf("a Hello granting %d to a session at 500 was sent Seqs %v", firstGrant, s.conn.seqs)
	}
}

// Send failures are counted on both sides, not dropped on the floor.
func TestSendErrorsCounted(t *testing.T) {
	s := newScriptedServer(t)
	s.conn.failing = true
	s.conn.push(hello(1), 3000)
	s.run(t)
	if st := s.Stats(); st.SendErrors != 1+firstGrant || st.ReadCalls != 1 || st.Datagrams != 1 {
		t.Fatalf("server stats %+v, want %d send errors from 1 datagram", st, 1+firstGrant)
	}

	conn := newScriptConn()
	conn.failing = true
	cfg := DefaultConfig()
	cfg.RetryInterval = time.Millisecond
	cfg.MaxRetries = 2
	_, st, err := FetchMultiSourceStats(context.Background(), conn, []net.Addr{peer(1), peer(2)}, 1, cfg)
	if err == nil {
		t.Fatal("a fetch that could send nothing succeeded")
	}
	// Two Hellos at the start and a Hello to each sender, still unheard,
	// at each re-grant: at most as many as fall due in the time waited, no
	// round trip being timed, so that the first wait is RetryInterval/4,
	// and at least one per sender every two RetryIntervals of it, the
	// backoff's cap and the read that notices it.
	most := 2 * regrantsDue(st.Idle, cfg.RetryInterval/4, cfg.RetryInterval)
	least := 2 * max(1, int(st.Idle/(2*cfg.RetryInterval)))
	if st.SendErrors != 2+st.Regrants || st.Regrants%2 != 0 || st.Regrants < least || st.Regrants > most || st.PullsSent != 0 || st.Retries <= cfg.MaxRetries {
		t.Fatalf("fetch stats %+v, want 2 send errors and one per re-grant, of which %d to %d", st, least, most)
	}
}

// FuzzServerHandle feeds arbitrary datagrams from two peers through the
// server's receive path. Whatever arrives, the server must not panic,
// must keep its table within the cap, must write only well-formed
// Announce and Data packets, no more than maxPullCredits of them for any
// one datagram, and must owe nobody anything when it blocks again.
//
// Input framing: one byte whose low bit picks the peer and whose high
// bits, masked to 0..127, give the datagram's length; then the datagram.
func FuzzServerHandle(f *testing.F) {
	frame := func(pkts ...[]byte) []byte {
		var out []byte
		for i, p := range pkts {
			out = append(out, byte(len(p)<<1|i&1))
			out = append(out, p...)
		}
		return out
	}
	f.Add(frame(hello(1), pull(1, firstGrant+3), wire.AppendDone(nil, 1)))
	f.Add(frame(hello(1), hello(1), pull(1, 1<<31-1), pull(1, 1<<31-1)))
	f.Add(frame(pull(2, 1), wire.AppendDone(nil, 2), hello(2), make([]byte, 100)))
	f.Add(frame(wire.AppendHello(nil, wire.Hello{Flow: 3, SenderIdx: 4, SenderCount: 5, Grant: 40}), pull(3, 80)))
	f.Add([]byte{0xA7, 1, 9, 0})
	f.Add(frame(hello(1), hello(1), pull(1, firstGrant-5), pull(1, 0)))                        // grants behind what was sent
	f.Add(frame(hello(1), hello(1), pull(1, firstGrant+1<<31), pull(1, firstGrant+1<<31-1)))   // half the counter ahead: behind, and the most that is ahead
	f.Add(frame(hello(1), hello(1), pull(1, 1<<32-1), pull(1, 0), pull(1, 1<<32-1)))           // the counter's last value
	f.Add(frame(hello(1), hello(1), []byte{0xA7, 1, byte(wire.MsgPull), 0, 0, 0, 0, 1, 0, 9})) // a version 1 Pull, 9 credits
	f.Add(frame(wire.AppendHello(nil, wire.Hello{Flow: 1, SenderCount: 1, Grant: 1<<32 - 1}), hello(1), hello(1)))
	f.Add(frame(hello(1), hello(1), []byte{0xA7, 2, byte(wire.MsgPull), 0, 0, 0, 0, 1, 0, 0, 0, 90})) // a version 2 Pull, refused
	pullBlocks := func(grant uint32, b wire.Blocks) []byte {
		return wire.AppendPull(nil, wire.Pull{Flow: 1, Grant: grant, Blocks: b})
	}
	f.Add(frame(hello(1), hello(1), pullBlocks(40, wire.Blocks{Above: 1}), pullBlocks(80, wire.Blocks{Low: 1<<32 - 1}))) // block 1 finished, then all
	f.Add(frame(hello(1), hello(1), pullBlocks(90, wire.Blocks{Low: 0, Above: ^uint64(0)}), hello(1), pullBlocks(99, wire.Blocks{})))

	s := newScriptedServer(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		clear(s.sessions)
		s.conn.bad, s.conn.seqs = nil, s.conn.seqs[:0]
		clear(s.conn.sent)
		datagrams := 0
		for len(in) > 0 {
			port, n := 5000+int(in[0]&1), int(in[0]>>1)
			in = in[1:]
			n = min(n, len(in))
			s.conn.push(in[:n], port)
			in = in[n:]
			datagrams++
		}
		s.run(t)
		if len(s.sessions) > maxSessions {
			t.Fatalf("%d sessions", len(s.sessions))
		}
		if len(s.owed) != 0 {
			t.Fatalf("%d sessions left on the owed list", len(s.owed))
		}
		for _, sess := range s.sessions {
			if sess.sent != sess.granted {
				t.Fatalf("session %v sent %d, granted %d", sess.key, sess.sent, sess.granted)
			}
		}
		if len(s.conn.seqs) > datagrams*maxPullCredits {
			t.Fatalf("%d symbols sent for %d datagrams", len(s.conn.seqs), datagrams)
		}
	})
}
