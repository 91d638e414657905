package netshim

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"polyraptor/internal/wire"
)

// pipe is a shim with a hand-driven socket at either end. Each end is
// read as packets come, so that no socket buffer has to hold a test's
// worth of them.
type pipe struct {
	t              *testing.T
	shim           *Shim
	client, server *end
}

// end is a socket and the packets that have reached it and have not been
// asked for yet.
type end struct {
	net.PacketConn
	mu   sync.Mutex
	pkts [][]byte
	last time.Time // when the latest came
}

func (e *end) read() {
	buf := make([]byte, 2048)
	for {
		n, _, err := e.ReadFrom(buf)
		if err != nil {
			return
		}
		e.mu.Lock()
		e.pkts, e.last = append(e.pkts, append([]byte(nil), buf[:n]...)), time.Now()
		e.mu.Unlock()
	}
}

// take waits until nothing has come for 40 ms and returns what has.
func (e *end) take() [][]byte {
	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		e.mu.Lock()
		if time.Since(e.last) > 40*time.Millisecond && time.Since(start) > 40*time.Millisecond {
			pkts := e.pkts
			e.pkts = nil
			e.mu.Unlock()
			return pkts
		}
		e.mu.Unlock()
	}
}

func newPipe(t *testing.T, cfg Config) *pipe {
	t.Helper()
	listen := func() *end {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		e := &end{PacketConn: c}
		go e.read()
		return e
	}
	p := &pipe{t: t, client: listen(), server: listen()}
	var err error
	if p.shim, err = New(p.server.LocalAddr(), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.shim.Close() })
	return p
}

// up sends packets from the client and down from the server, each through
// the shim; the shim learns the client's address from the first up.
func (p *pipe) up(pkts ...[]byte)   { p.write(p.client, pkts) }
func (p *pipe) down(pkts ...[]byte) { p.write(p.server, pkts) }

func (p *pipe) write(c net.PacketConn, pkts [][]byte) {
	p.t.Helper()
	for _, pkt := range pkts {
		if _, err := c.WriteTo(pkt, p.shim.Addr()); err != nil {
			p.t.Fatal(err)
		}
	}
}

// seqs waits for what is on its way to e and returns the Seq of each Data
// packet that came (at the server: the grant of each Pull).
func (p *pipe) seqs(e *end) []uint32 {
	p.t.Helper()
	var out []uint32
	for _, pkt := range e.take() {
		hdr, body, err := wire.ParseHeader(pkt)
		if err != nil {
			p.t.Fatalf("the shim forwarded a packet that does not parse: %v", err)
		}
		switch hdr.Type {
		case wire.MsgData:
			d, _ := wire.ParseData(hdr.Flow, body)
			out = append(out, d.Seq)
		case wire.MsgPull:
			pl, _ := wire.ParsePull(hdr.Flow, body)
			out = append(out, pl.Grant)
		}
	}
	return out
}

const flow = 3

func hello(grant uint32) []byte {
	return wire.AppendHello(nil, wire.Hello{Flow: flow, SenderCount: 1, Grant: grant})
}
func pull(grant uint32) []byte { return wire.AppendPull(nil, wire.Pull{Flow: flow, Grant: grant}) }
func data(seq uint32) []byte {
	return wire.AppendData(nil, wire.Data{Flow: flow, SBN: 1, ESI: seq + 7, Seq: seq, Payload: []byte("symbol")})
}

// burst is Data packets lo..hi-1.
func burst(lo, hi uint32) [][]byte {
	var pkts [][]byte
	for s := lo; s < hi; s++ {
		pkts = append(pkts, data(s))
	}
	return pkts
}

// stream sends Data packets lo..hi-1 down, a few hundred at a time so that
// no socket on the way overflows, and returns the Seqs that reached the
// client, in order.
func (p *pipe) stream(lo, hi uint32) []uint32 {
	p.t.Helper()
	var got []uint32
	for ; lo < hi; lo += 250 {
		p.down(burst(lo, min(lo+250, hi))...)
		got = append(got, p.seqs(p.client)...)
	}
	return got
}

// opened is a pipe over which a Hello granting n symbols has passed.
func opened(t *testing.T, cfg Config, n uint32) *pipe {
	t.Helper()
	p := newPipe(t, cfg)
	p.up(hello(n))
	if got := p.seqs(p.server); len(got) != 0 {
		t.Fatalf("the server read %v, want only the Hello", got)
	}
	return p
}

// With nothing asked of it the shim is a wire: everything arrives, once,
// in order, both ways, and the books say what passed.
func TestCleanShimIsAWire(t *testing.T) {
	p := opened(t, Config{Record: true}, 100)
	p.down(burst(0, 100)...)
	got := p.seqs(p.client)
	if len(got) != 100 {
		t.Fatalf("%d of 100 packets arrived", len(got))
	}
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("packet %d carries Seq %d", i, s)
		}
	}
	p.up(pull(130), pull(120), pull(164))
	if got := p.seqs(p.server); len(got) != 3 {
		t.Fatalf("the server read %v, want three pulls", got)
	}
	b := p.shim.Book(flow)
	if b.Hellos != 1 || b.Pulls != 3 || b.Granted != 164 || b.MaxStep != 100 || b.Sent != 100 || b.Missed != 0 {
		t.Fatalf("book %+v", b)
	}
	if len(b.Emitted) != 100 || b.Emitted[5] != [2]uint32{1, 12} {
		t.Fatalf("%d symbols recorded, the sixth %v", len(b.Emitted), b.Emitted[5])
	}
	up, down := p.shim.Counts()
	if (up != Counts{Passed: 4}) || (down != Counts{Passed: 100}) {
		t.Fatalf("counts %+v up, %+v down", up, down)
	}
	// The overtaken pull is the network's doing, not the receiver's.
	if err := p.shim.Err(); err == nil || !strings.Contains(err.Error(), "granted 120 after 130") {
		t.Fatalf("a receiver whose grants went backwards: %v", err)
	}
}

// Independent loss, from a seed: about the share asked for, the same
// packets every time, and other packets from another seed.
func TestLossIsSeeded(t *testing.T) {
	run := func(seed int64) []uint32 {
		p := opened(t, Config{Seed: seed, Down: Faults{Loss: 0.25}}, 2000)
		got := p.stream(0, 2000)
		if _, down := p.shim.Counts(); down.Lost != 2000-len(got) || down.Passed != len(got) {
			t.Fatalf("%d arrived, counts %+v", len(got), down)
		}
		if err := p.shim.Err(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b, c := run(1), run(1), run(2)
	if lost := 2000 - len(a); lost < 400 || lost > 600 {
		t.Fatalf("%d of 2000 lost at 25%%", lost)
	}
	if len(a) != len(b) {
		t.Fatalf("the same seed lost %d, then %d", 2000-len(a), 2000-len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("the same seed let through Seq %d, then %d", a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("another seed lost the same packets")
	}
}

// Burst loss takes packets out in runs, and duplication puts every one
// through twice, next to itself.
func TestBurstsAndDuplicates(t *testing.T) {
	p := opened(t, Config{Seed: 3, Down: Faults{Burst: 0.02, BurstLen: 8}}, 2000)
	got := p.stream(0, 2000)
	gaps := 0
	for i := 1; i < len(got); i++ {
		if gap := got[i] - got[i-1] - 1; gap > 0 && gap < 8 {
			t.Fatalf("%d packets lost between Seq %d and %d: shorter than a burst", gap, got[i-1], got[i])
		} else if gap > 0 {
			gaps++
		}
	}
	if gaps < 10 {
		t.Fatalf("%d bursts in 2000 packets at 2%%", gaps)
	}

	p = opened(t, Config{Down: Faults{Dup: 1}}, 50)
	p.down(burst(0, 50)...)
	got = p.seqs(p.client)
	if len(got) != 100 {
		t.Fatalf("%d packets arrived of 50 sent twice", len(got))
	}
	for i, s := range got {
		if s != uint32(i/2) {
			t.Fatalf("arrival %d carries Seq %d", i, s)
		}
	}
	if _, down := p.shim.Counts(); down.Dups != 50 || down.Passed != 100 {
		t.Fatalf("counts %+v", down)
	}
}

// A held packet arrives when exactly Hold packets sent after it have
// passed it, and otherwise order is kept.
func TestReorderHoldsBack(t *testing.T) {
	const hold = 3
	p := opened(t, Config{Seed: 4, Down: Faults{Reorder: 0.1, Hold: hold}}, 1000)
	got := p.stream(0, 1000)
	_, down := p.shim.Counts()
	if down.Held < 50 || len(got) < 1000-hold || down.Lost != 0 {
		t.Fatalf("%d arrived, counts %+v", len(got), down)
	}
	late := 0
	for i, s := range got {
		passed := 0
		for _, earlier := range got[:i] {
			if earlier > s {
				passed++
			}
		}
		if passed != 0 && passed != hold {
			t.Fatalf("Seq %d arrived after %d packets sent later, want %d or none", s, passed, hold)
		}
		if passed > 0 {
			late++
		}
	}
	if late == 0 || late > down.Held {
		t.Fatalf("%d packets arrived late, %d were held", late, down.Held)
	}
}

// A muted server is silent for the window asked for, then heard again;
// what it said meanwhile is gone. The other direction is untouched.
func TestMuteWindow(t *testing.T) {
	p := opened(t, Config{}, 100)
	p.shim.Mute(0, 150*time.Millisecond)
	p.down(burst(0, 10)...)
	p.up(pull(110))
	if got := p.seqs(p.client); len(got) != 0 {
		t.Fatalf("a muted server was heard: %v", got)
	}
	if got := p.seqs(p.server); len(got) != 1 {
		t.Fatalf("the pull to a muted server: %v", got)
	}
	time.Sleep(100 * time.Millisecond)
	p.down(burst(10, 20)...)
	if got := p.seqs(p.client); len(got) != 10 || got[0] != 10 {
		t.Fatalf("after the mute: %v", got)
	}
	p.shim.Mute(0, 0)
	p.down(burst(20, 30)...)
	if got := p.seqs(p.client); len(got) != 0 {
		t.Fatalf("a server muted for good was heard: %v", got)
	}
}

// A Done gets through whatever the network does to everything else, and
// says so.
func TestDoneIsNeverHarmed(t *testing.T) {
	p := newPipe(t, Config{Up: Faults{Loss: 1}})
	p.up(hello(10), pull(20), wire.AppendDone(nil, flow))
	got := p.server.take()
	if len(got) != 1 {
		t.Fatalf("the server read %d packets, want the Done alone", len(got))
	}
	if hdr, _, err := wire.ParseHeader(got[0]); err != nil || hdr.Type != wire.MsgDone {
		t.Fatalf("the server read %v, %v; want the Done", hdr, err)
	}
	select {
	case <-p.shim.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done() still open")
	}
	if up, _ := p.shim.Counts(); up.Lost != 2 {
		t.Fatalf("counts %+v, want the Hello and the Pull lost", up)
	}
}

// The shim holds the transport to the window's rules: each breach below
// is caught, and what is within them is not.
func TestBreachesAreCaught(t *testing.T) {
	for _, tc := range []struct {
		name string
		play func(p *pipe)
		want string // in the error; "" if there is to be none
	}{
		{"a server within its grants", func(p *pipe) {
			p.down(burst(0, 10)...)
			p.up(pull(15), pull(15), pull(12))
			p.down(burst(10, 15)...)
		}, "after 15"}, // the receiver's fault, that one
		{"a Seq twice", func(p *pipe) { p.down(data(0), data(1), data(1)) }, "Seq 1 after 1"},
		{"a Seq out of order", func(p *pipe) { p.down(data(0), data(2), data(1)) }, "Seq 1 after 2"},
		{"beyond the grant", func(p *pipe) { p.down(burst(0, 11)...) }, "emitted 11 symbols, granted 10"},
		{"a gap is not a breach", func(p *pipe) { p.down(data(0), data(4), data(9)) }, ""},
		{"a repeated Hello counts from where the session is", func(p *pipe) {
			p.up(pull(500))
			p.seqs(p.server)
			p.down(burst(0, 500)...)
			p.up(hello(10))
			p.seqs(p.server)
			p.down(burst(500, 510)...)
		}, ""},
		{"but no further", func(p *pipe) {
			p.up(pull(500))
			p.seqs(p.server)
			p.down(burst(0, 500)...)
			p.up(hello(10))
			p.seqs(p.server)
			p.down(burst(500, 511)...)
		}, "emitted 511 symbols, granted 510"},
		{"a lost pull grants nothing", func(p *pipe) {
			p.shim.mu.Lock()
			p.shim.up.faults.Loss = 1
			p.shim.mu.Unlock()
			p.up(pull(20))
			p.down(burst(0, 11)...)
		}, "emitted 11 symbols, granted 10"},
		{"a symbol of a block a Pull said was finished", func(p *pipe) {
			p.up(wire.AppendPull(nil, wire.Pull{Flow: flow, Grant: 20, Blocks: wire.Blocks{Low: 2}}))
			p.seqs(p.server)
			p.down(burst(0, 11)...) // block 1's; Seqs 0-9 the Hello let out, and may be on their way
		}, "Seq 10 of block 1"},
		{"or emitted before the server read it", func(p *pipe) {
			p.up(wire.AppendPull(nil, wire.Pull{Flow: flow, Grant: 20, Blocks: wire.Blocks{Low: 2}}))
			p.seqs(p.server)
			p.down(burst(0, 10)...)
		}, ""},
		{"a new fetch on the flow starts a new book", func(p *pipe) {
			p.down(burst(0, 10)...)
			p.up(wire.AppendDone(nil, flow), hello(5))
			p.seqs(p.server)
			p.down(burst(0, 5)...)
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := opened(t, Config{}, 10)
			tc.play(p)
			p.seqs(p.client)
			err := p.shim.Err()
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("Err() = %v, want %q", err, tc.want)
			}
		})
	}
}
