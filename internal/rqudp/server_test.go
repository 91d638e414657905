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
		_, err = wire.ParseData(hdr.Flow, body)
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

func hello(flow uint32) []byte {
	return wire.AppendHello(nil, wire.Hello{Flow: flow, SenderCount: 1})
}

func pull(flow uint32, credits uint16) []byte {
	return wire.AppendPull(nil, wire.Pull{Flow: flow, Credits: credits})
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
		s.conn.push(pull(2, 1), busy)
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
	// A Hello retry inside the table is not a new session.
	before := s.conn.sent[first]
	s.conn.push(hello(1), first)
	s.conn.push(pull(1, 3), first)
	s.run(t)
	if got := s.conn.sent[first] - before; got != 1+s.cfg.InitWindow+3 {
		t.Fatalf("existing session got %d packets for a Hello and a 3-credit pull, want %d", got, 1+s.cfg.InitWindow+3)
	}
	// The existing session stays active while the rest go idle; once
	// they are swept there is room for the one that was refused.
	s.clock = s.clock.Add(sessionIdle / 2)
	s.conn.push(pull(1, 1), first)
	s.run(t)
	s.clock = s.clock.Add(sessionIdle/2 + sweepEvery)
	s.conn.push(hello(1), refused)
	s.run(t)
	if len(s.sessions) != 2 {
		t.Fatalf("%d sessions after the idle limit, want the active one and the newcomer", len(s.sessions))
	}
	if s.conn.sent[refused] != 1+s.cfg.InitWindow {
		t.Fatalf("newcomer got %d packets, want an Announce and a window", s.conn.sent[refused])
	}
}

// Pulls that arrive in one drain are paid out as one burst per session,
// clamped to maxPullCredits however much they ask for; a Done in the
// same drain cancels what its session was owed.
func TestServerSumsCreditsPerDrain(t *testing.T) {
	s := newScriptedServer(t)
	s.conn.push(hello(1), 3000)
	s.conn.push(hello(2), 3001)
	s.run(t)
	base0, base1 := s.conn.sent[3000], s.conn.sent[3001]
	// One drain, as the batched reader would deliver it.
	now := s.clock
	for _, d := range []struct {
		pkt  []byte
		port int
	}{
		{pull(1, 2), 3000}, {pull(2, 65535), 3001}, {pull(1, 3), 3000}, {pull(2, 65535), 3001},
		{pull(9, 5), 3000}, // no such session
	} {
		s.handle(d.pkt, key(d.port, 0).peer, now)
	}
	if len(s.credited) != 2 {
		t.Fatalf("%d sessions on the credited list, want 2", len(s.credited))
	}
	s.conn.push(wire.AppendDone(nil, 7), 3002) // any datagram: step pays the credits out
	s.run(t)
	if got := s.conn.sent[3000] - base0; got != 5 {
		t.Fatalf("session 1 was sent %d symbols for pulls of 2 and 3", got)
	}
	if got := s.conn.sent[3001] - base1; got != maxPullCredits {
		t.Fatalf("session 2 was sent %d symbols, want the clamp %d", got, maxPullCredits)
	}
	if st := s.Stats(); st.PullsReceived != 4 || st.SendErrors != 0 {
		t.Fatalf("stats %+v, want 4 pulls received", st)
	}

	s.handle(pull(1, 4), key(3000, 0).peer, now)
	s.handle(wire.AppendDone(nil, 1), key(3000, 0).peer, now)
	s.conn.push(wire.AppendDone(nil, 7), 3002)
	s.run(t)
	if got := s.conn.sent[3000] - base0; got != 5 {
		t.Fatalf("a session that said Done was still sent %d symbols", got-5)
	}
}

// Send failures are counted on both sides, not dropped on the floor.
func TestSendErrorsCounted(t *testing.T) {
	s := newScriptedServer(t)
	s.conn.failing = true
	s.conn.push(hello(1), 3000)
	s.run(t)
	if st := s.Stats(); st.SendErrors != 1+s.cfg.InitWindow || st.ReadCalls != 1 || st.Datagrams != 1 {
		t.Fatalf("server stats %+v, want %d send errors from 1 datagram", st, 1+s.cfg.InitWindow)
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
	// Two Hellos at the start and two per recovery.
	if want := 2 * (1 + cfg.MaxRetries); st.SendErrors != want || st.PullsSent != 0 {
		t.Fatalf("fetch stats %+v, want %d send errors", st, want)
	}
}

// FuzzServerHandle feeds arbitrary datagrams from two peers through the
// server's receive path. Whatever arrives, the server must not panic,
// must keep its table within the cap, and must write only well-formed
// Announce and Data packets.
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
	f.Add(frame(hello(1), pull(1, 3), wire.AppendDone(nil, 1)))
	f.Add(frame(hello(1), hello(1), pull(1, 65535), pull(1, 65535)))
	f.Add(frame(pull(2, 1), wire.AppendDone(nil, 2), hello(2), make([]byte, 100)))
	f.Add(frame(wire.AppendHello(nil, wire.Hello{Flow: 3, SenderIdx: 4, SenderCount: 5}), pull(3, 40)))
	f.Add([]byte{0xA7, 1, 9, 0})

	s := newScriptedServer(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		clear(s.sessions)
		s.conn.bad = nil
		clear(s.conn.sent)
		for len(in) > 0 {
			port, n := 5000+int(in[0]&1), int(in[0]>>1)
			in = in[1:]
			n = min(n, len(in))
			s.conn.push(in[:n], port)
			in = in[n:]
		}
		s.run(t)
		if len(s.sessions) > maxSessions {
			t.Fatalf("%d sessions", len(s.sessions))
		}
		if len(s.credited) != 0 {
			t.Fatalf("%d sessions left on the credited list", len(s.credited))
		}
	})
}
