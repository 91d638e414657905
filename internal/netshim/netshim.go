// Package netshim is the network between a fetcher and one rqudp server,
// made hostile: a real UDP socket on loopback that forwards what the
// server sends to whoever last wrote to it, and everything else to the
// server, and on the way loses, repeats, holds back and silences packets
// as told, each direction by its own rules, from one seed. Both ends keep
// their own sockets, so whatever the platform gives them (batched reads,
// UDP_SEGMENT trains, UDP_GRO) stays on, which wrapping a net.PacketConn
// turns off; what passes here is single packets whichever way they were
// sent.
//
// The shim also keeps the books, per flow, and holds the transport to its
// own rules for the window: the receiver's pulls never grant less than it
// has granted; the server numbers its Data packets 0, 1, 2, ... and emits
// none twice; it never emits more than it was granted by what reached it;
// and once a Pull that reached it said a block was finished, it emits no
// symbol of that block. Err reports the first breaches. A Done is never
// harmed, so that once one has passed the server has been told.
//
// Not here yet, and wanted by the congestion story over real sockets
// (ROADMAP item 7(a)): a rate limit with a bounded queue, and NDP-style
// trimming (forward the header, drop the payload).
package netshim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"polyraptor/internal/wire"
)

// Faults is what happens to the packets of one direction. The zero value
// forwards everything.
type Faults struct {
	// Loss is the probability that a packet is lost, each on its own.
	Loss float64
	// Burst is the probability that a packet starts a burst loss: it and
	// the BurstLen-1 packets behind it are lost.
	Burst    float64
	BurstLen int
	// Dup is the probability that a packet is forwarded twice.
	Dup float64
	// Reorder is the probability that a packet is held back until Hold
	// later ones have passed it. A held packet waits for traffic: when
	// nothing follows, it is lost until something does.
	Reorder float64
	Hold    int
}

// Config describes a shim. Up is the direction towards the server (Hello,
// Pull), Down the one from it (Announce, Data).
type Config struct {
	Seed     int64
	Up, Down Faults
	// Record keeps the (SBN, ESI) of every Data packet the server emits,
	// in order, in the flow's Book.
	Record bool
}

// Counts is what one direction did to its packets.
type Counts struct {
	Passed, Lost, Dups, Held int
}

// Book is what the shim saw of one flow.
type Book struct {
	// Hellos and Pulls are those that reached the server, and Granted the
	// most it can take itself to have been granted by them. MaxStep is
	// the most one packet raised it by.
	Hellos, Pulls    int
	Granted, MaxStep uint32
	// Sent is how many Data packets the server emitted, going by the last
	// Seq, and Missed how many of those the shim never saw: its own
	// socket overflowed.
	Sent   uint32
	Missed int
	// Emitted is each one's (SBN, ESI), with Config.Record.
	Emitted [][2]uint32

	offered uint32 // the last grant the receiver sent, whether or not it arrived
	done    bool   // a Done has passed: the next Hello opens a new book
	// finished is what the Pulls the server has read said of the blocks,
	// and told, oldest first, what those that reached it and that it may
	// not have read yet said, each with the first Seq it can only have
	// emitted after. (Past eight the oldest is dropped: a later one says
	// more.)
	finished wire.Blocks
	told     [8]told
	ntold    int
}

type told struct {
	from   uint32
	blocks wire.Blocks
}

// Shim is a running shim. Close it to stop.
type Shim struct {
	conn   *net.UDPConn
	server netip.AddrPort
	cfg    Config

	mu       sync.Mutex
	rng      *rand.Rand
	client   netip.AddrPort
	up, down lane
	books    map[uint32]*Book
	breaches []error
	muteFrom time.Time     // Down is silent from here
	muteTo   time.Time     // to here; zero is for good
	done     chan struct{} // closed when a Done has been forwarded
	stopped  chan struct{} // closed when the forwarding goroutine has returned
}

// lane is the state of one direction.
type lane struct {
	faults Faults
	burst  int // packets of the running burst loss still to come
	held   []held
	Counts
}

type held struct {
	pkt  []byte
	left int // packets that have yet to pass it
}

// New starts a shim in front of server. Its Addr is what a fetcher is
// given as the remote.
func New(server net.Addr, cfg Config) (*Shim, error) {
	ap, err := netip.ParseAddrPort(server.String())
	if err != nil {
		return nil, fmt.Errorf("netshim: server %v: %w", server, err)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(1 << 20) // losses here are to be the planned ones
	s := &Shim{
		conn:    conn,
		server:  netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()),
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		up:      lane{faults: cfg.Up},
		down:    lane{faults: cfg.Down},
		books:   map[uint32]*Book{},
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go func() {
		defer close(s.stopped)
		buf := make([]byte, 1<<16)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			s.forward(buf[:n], netip.AddrPortFrom(from.Addr().Unmap(), from.Port()))
		}
	}()
	return s, nil
}

// Addr is the shim's address: the server's, as far as a fetcher can tell.
func (s *Shim) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops the shim: when it returns, nothing more is forwarded.
func (s *Shim) Close() error {
	err := s.conn.Close()
	<-s.stopped
	return err
}

// Done is closed when the first Done has been forwarded.
func (s *Shim) Done() <-chan struct{} { return s.done }

// Mute silences the server: from after from now, for length, nothing it
// sends is forwarded. A length of zero or less is for good.
func (s *Shim) Mute(after, length time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.muteFrom, s.muteTo = time.Now().Add(after), time.Time{}
	if length > 0 {
		s.muteTo = s.muteFrom.Add(length)
	}
}

// Book returns what the shim has seen of a flow so far.
func (s *Shim) Book(flow uint32) Book {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.books[flow]
	if b == nil {
		return Book{}
	}
	c := *b
	c.Emitted = append([][2]uint32(nil), b.Emitted...)
	return c
}

// Counts returns what each direction did to its packets so far.
func (s *Shim) Counts() (up, down Counts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up.Counts, s.down.Counts
}

// Err reports the breaches of the window's rules seen so far, the first
// few in full; nil if there were none.
func (s *Shim) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.breaches) == 0 {
		return nil
	}
	return fmt.Errorf("netshim: %d breaches: %w", len(s.breaches), errors.Join(s.breaches[:min(len(s.breaches), 8)]...))
}

func (s *Shim) breach(format string, args ...any) {
	s.breaches = append(s.breaches, fmt.Errorf(format, args...))
}

// forward is the shim's one step: enter a packet in the books as its
// sender meant it, decide its fate, and pass it on, or not.
func (s *Shim) forward(pkt []byte, from netip.AddrPort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, isDown := &s.up, from == s.server
	if isDown {
		l = &s.down
	} else {
		s.client = from
	}
	hdr, body, err := wire.ParseHeader(pkt)
	if err == nil {
		s.offered(hdr, body, isDown)
	}
	switch f := l.faults; {
	case err == nil && hdr.Type == wire.MsgDone:
		s.deliver(pkt, isDown) // never harmed, and overtakes nothing held: nothing follows it
		return
	case isDown && s.muted(time.Now()):
		l.Lost++
	case l.burst > 0:
		l.burst--
		l.Lost++
	case s.chance(f.Burst):
		l.burst = f.BurstLen - 1
		l.Lost++
	case s.chance(f.Loss):
		l.Lost++
	case f.Hold > 0 && s.chance(f.Reorder):
		l.Held++
		l.held = append(l.held, held{pkt: append([]byte(nil), pkt...), left: f.Hold})
	default:
		s.deliver(pkt, isDown)
		if s.chance(f.Dup) {
			l.Dups++
			s.deliver(pkt, isDown)
		}
		// The packets it passed are one nearer to going; those it was the
		// last for go now, in the order they came.
		keep := l.held[:0]
		for _, h := range l.held {
			if h.left--; h.left > 0 {
				keep = append(keep, h)
			} else {
				s.deliver(h.pkt, isDown)
			}
		}
		l.held = keep
	}
}

func (s *Shim) chance(p float64) bool { return p > 0 && s.rng.Float64() < p }

// muted reports whether the server is silenced at now.
func (s *Shim) muted(now time.Time) bool {
	return !s.muteFrom.IsZero() && !now.Before(s.muteFrom) && (s.muteTo.IsZero() || now.Before(s.muteTo))
}

// offered enters a packet in its flow's book as it was sent, before
// anything happens to it: the receiver's grants, which must not go
// backwards, and the server's Data, which must be numbered in order and
// stay within what the server was granted.
func (s *Shim) offered(hdr wire.Header, body []byte, isDown bool) {
	b := s.books[hdr.Flow]
	switch {
	case isDown:
		d, err := wire.ParseData(hdr.Flow, body)
		if hdr.Type != wire.MsgData || err != nil || b == nil {
			return
		}
		if int32(d.Seq-b.Sent) < 0 {
			s.breach("flow %d: the server emitted Seq %d after %d: twice, or out of order", hdr.Flow, d.Seq, b.Sent-1)
			return
		}
		b.Missed += int(d.Seq - b.Sent)
		b.Sent = d.Seq + 1
		if int32(b.Granted-b.Sent) < 0 {
			s.breach("flow %d: the server emitted %d symbols, granted %d", hdr.Flow, b.Sent, b.Granted)
		}
		n := 0
		for ; n < b.ntold && int32(d.Seq-b.told[n].from) >= 0; n++ {
			b.finished = b.finished.Merge(b.told[n].blocks)
		}
		if b.ntold = copy(b.told[:], b.told[n:b.ntold]); b.finished.Done(d.SBN) {
			s.breach("flow %d: the server emitted Seq %d of block %d, which a Pull it had read said was finished", hdr.Flow, d.Seq, d.SBN)
		}
		if s.cfg.Record {
			b.Emitted = append(b.Emitted, [2]uint32{d.SBN, d.ESI})
		}
	case hdr.Type == wire.MsgHello || hdr.Type == wire.MsgPull:
		g, _, ok := grantOf(hdr, body)
		if !ok {
			return
		}
		if b == nil || b.done && hdr.Type == wire.MsgHello {
			b = &Book{offered: g}
			s.books[hdr.Flow] = b
		}
		if int32(g-b.offered) < 0 && hdr.Type == wire.MsgPull { // a Hello may be a new fetch's
			s.breach("flow %d: the receiver granted %d after %d", hdr.Flow, g, b.offered)
		}
		b.offered = g
	}
}

// grantOf is the grant a Hello or a Pull carries, and the Pull's blocks.
func grantOf(hdr wire.Header, body []byte) (uint32, wire.Blocks, bool) {
	if hdr.Type == wire.MsgHello {
		h, err := wire.ParseHello(hdr.Flow, body)
		return h.Grant, wire.Blocks{}, err == nil
	}
	p, err := wire.ParsePull(hdr.Flow, body)
	return p.Grant, p.Blocks, err == nil
}

// deliver passes a packet on, and enters what reaches the server in the
// book: the server can act only on that.
func (s *Shim) deliver(pkt []byte, isDown bool) {
	to, l := s.server, &s.up
	if isDown {
		to, l = s.client, &s.down
	}
	l.Passed++
	if hdr, body, err := wire.ParseHeader(pkt); err == nil && !isDown {
		s.arrived(hdr, body)
	}
	if to.IsValid() {
		_, _ = s.conn.WriteToUDPAddrPort(pkt, to)
	}
}

// arrived enters a packet that reaches the server in its flow's book.
func (s *Shim) arrived(hdr wire.Header, body []byte) {
	if hdr.Type == wire.MsgDone {
		select {
		case <-s.done:
		default:
			close(s.done)
		}
	}
	b := s.books[hdr.Flow]
	if b == nil {
		return
	}
	switch hdr.Type {
	case wire.MsgDone:
		b.done = true
		return
	case wire.MsgHello:
		b.Hellos++
		b.finished, b.ntold = wire.Blocks{}, 0 // as the server does: a new fetch's blocks are all to do
	case wire.MsgPull:
		b.Pulls++
	default:
		return
	}
	g, blocks, _ := grantOf(hdr, body)
	if hdr.Type == wire.MsgPull {
		// The server may emit up to what it was granted before it reads
		// this; anything beyond, only after.
		if b.ntold == len(b.told) {
			b.ntold = copy(b.told[:], b.told[1:])
		}
		b.told[b.ntold] = told{from: b.Granted, blocks: blocks}
		b.ntold++
	}
	if b.Hellos > 1 && hdr.Type == wire.MsgHello && int32(g-b.Granted) < 0 {
		// A Hello behind what its session was sent counts from there, and
		// that is at most what it was granted.
		g += b.Granted
	}
	if step := g - b.Granted; int32(step) > 0 {
		b.Granted, b.MaxStep = g, max(b.MaxStep, step)
	}
}
