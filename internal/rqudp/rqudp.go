// Package rqudp is the real-network Polyraptor transport: a
// receiver-driven, RaptorQ-coded object transfer protocol over UDP
// (any net.PacketConn). It runs the actual codec from
// internal/raptorq end to end — unlike the protocol simulator, every
// symbol on the wire here carries coded bytes.
//
// The protocol mirrors the paper's design at real-network granularity:
//
//	receiver                            sender
//	   | -- Hello{flow, idx, count,   -->  |   (per sender; idx/count fix
//	   |          grant: w} ------------>  |    the ESI partition)
//	   | <-- Announce{F, T, maxK} ------   |
//	   | <== Data{seq 0..w-1} ==========   |   (source symbols first;
//	   | -- Pull{grant, blocks done} -->   |    <== is one train)
//	   | <== Data{seq w..grant-1} ======   |
//	   | -- Done ---------------------->   |
//
// The sender numbers a session's Data packets as it emits them (Seq), and
// a grant is cumulative: "you may have emitted this many in all". The
// receiver keeps, per sender, hi — one past the highest Seq a fresh symbol
// carried — and after each drain of its socket grants the standing window
// source first (slide), so a lossless fetch is sent exactly its source
// symbols and solves nothing. A lost symbol leaves a gap below hi, and
// that is all: the window has slid over it, and its block lacks a symbol
// nothing covers, which the next grant asks for — what a trimmed header
// tells the paper's receiver. A lost pull is restated by the next; a
// repeated, late or stale one changes nothing, because the sender keeps the
// highest grant, and the finished blocks the latest pull named,
// whose symbols it sends no more. A clock matters only when all a sender
// owed is lost at once. The mechanisms, each with a test that fails
// without it:
//
//   - the sliding grant (TestCoalescedCreditsBounded), of what the receive
//     buffer holds (TestWindowFromGrantedBuffer, TestLossLadder);
//   - source first, repair for what nothing covers (TestFetchAttribution,
//     TestStragglerIdleIsNotSilent); its allowance for the loss measured
//     is pinned by TestFetchAttribution alone: no ladder rung needs it;
//   - the server's block cursor (TestFinishedBlocksSkipped; the network
//     shim's breach check holds every shimmed test to it);
//   - the backoff re-grant (TestSilentSenderRecovered): a sender that owes
//     symbols and is unheard for quiet of waiting is silent — it covers
//     nothing, the others take its share (TestStragglerTakesOver) — and is
//     granted a symbol more, then again after 2q, 4q... up to
//     RetryInterval, until it is heard. An idle sender owes nothing and is
//     not silent, and its wait starts at its next grant
//     (TestIdleSenderWaitsFromItsGrant). q is 4 srtt, 2 ms to
//     RetryInterval/4; no test needs the srtt, kept as 4 srtt measured
//     7.6 ms under loss;
//   - a Hello, not a Pull, until the sender is heard (TestLostHelloRegranted);
//   - the abort after MaxRetries RetryIntervals and one more with nothing
//     fresh, duplicates being no progress (TestFetchStatsStallCounting);
//   - making room for longer symbols (TestFetchLongerSymbolsThanConfigured);
//   - the server's sweep of sessions whose Done was lost, by the clock
//     (TestLostDoneExpiresUnderTraffic), and its cap (TestSessionTableCap).
//
// Both sides read the socket in drains: block until a datagram is
// there, take everything already queued (pktIO), then answer. The sender
// answers a drain's grants with one burst a session: the equal-length
// Data packets are built back to back in one buffer and handed to the
// socket as trains (pktIO.sendTrain: one UDP_SEGMENT sendmsg where the
// kernel takes it, a write per packet elsewhere). For the length of a
// fetch the receiver's socket takes a train as the one message it was
// sent as (pktIO.coalesceReads: UDP_GRO, same condition) and each symbol
// is copied once, from that message to its place in the object the fetch
// returns (raptorq.ObjectDecoder).
//
// The code is systematic, and the sender is too: a source symbol goes
// out from where it lies in the object, and a block is precoded only when
// some receiver is first owed a repair symbol of it. NewServer therefore
// does no codec work, and a fetch that loses nothing costs no precode at
// all.
//
// Multi-source fetches send one Hello per sender with a distinct index;
// senders partition source symbols and use disjoint repair ESI residue
// classes, so an uncoordinated replica set never produces duplicates.
package rqudp

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"polyraptor/internal/raptorq"
	"polyraptor/internal/wire"
)

// Config tunes the transport.
type Config struct {
	// SymbolSize is the payload bytes per symbol (default 1024, which
	// keeps packets under typical MTUs with headroom).
	SymbolSize int
	// MaxBlockK bounds source symbols per block (default 256; larger
	// blocks amortise better but decode slower). A server cuts its object
	// into blocks of at most this many; a fetcher refuses a server that
	// announces larger ones, whose precode and source matrices it would
	// otherwise build and keep for a K of the server's choosing.
	MaxBlockK int
	// RetryInterval is the receiver's stall period, and the longest it
	// waits on a silent sender before granting it again.
	RetryInterval time.Duration
	// MaxRetries bounds consecutive stall periods before the fetch aborts.
	MaxRetries int
	// Workers bounds the receiver's block-parallel decoding. Zero selects
	// the codec default (GOMAXPROCS); 1 forces serial. Output is
	// byte-identical for every worker count — the knob trades decode
	// wall-clock only. A server precodes a block when it first needs a
	// repair symbol of it, on its Serve goroutine, whatever Workers says.
	Workers int
}

// DefaultConfig returns sane defaults for LAN/loopback use.
func DefaultConfig() Config {
	return Config{
		SymbolSize:    1024,
		MaxBlockK:     256,
		RetryInterval: 100 * time.Millisecond,
		MaxRetries:    50,
	}
}

// maxSymbolSize keeps a Data packet inside one UDP datagram. The others
// bound what an Announce may claim: a fetch makes a decoder per block on
// its arrival, and room for the padded object on the first symbol's.
const (
	maxSymbolSize  = 60000
	maxSymbols     = 1 << 22
	maxBlocks      = 1 << 16
	maxObjectBytes = 1 << 32
)

func (c Config) validate() error {
	if c.SymbolSize <= 0 || c.SymbolSize > maxSymbolSize {
		return fmt.Errorf("rqudp: SymbolSize %d out of range", c.SymbolSize)
	}
	if c.MaxBlockK <= 0 || c.MaxBlockK > raptorq.MaxK {
		return fmt.Errorf("rqudp: MaxBlockK %d out of range", c.MaxBlockK)
	}
	if c.RetryInterval <= 0 || c.MaxRetries < 1 {
		return fmt.Errorf("rqudp: RetryInterval and MaxRetries must be positive")
	}
	if c.Workers < 0 {
		return fmt.Errorf("rqudp: Workers %d must be >= 0", c.Workers)
	}
	return nil
}

// Server-side limits. None is configurable: they bound what a peer can
// make the server hold or send, not how a transfer performs.
const (
	// ctlMax is the longest packet a server accepts. Receivers send only
	// Hello, Pull and Done, all under 16 bytes.
	ctlMax = 64
	// maxPullCredits caps the symbols one session is sent per drain,
	// whatever its pulls granted.
	maxPullCredits = 1024
	// trainMax is the most packets one train holds (the kernel's
	// UDP_MAX_SEGMENTS), and trainBytes the most bytes: one UDP payload.
	trainMax   = 64
	trainBytes = 65507
	// maxSessions bounds the session table against a Hello flood.
	maxSessions = 1024
	// sessionIdle is how long a session outlives its last packet: the
	// cleanup for a Done that was lost.
	sessionIdle = time.Minute
	sweepEvery  = sessionIdle / 4
	// serveWake is how long Serve sleeps on an idle socket before it
	// looks at the clock again.
	serveWake = 200 * time.Millisecond
)

// Server serves one object to any number of receivers over a packet
// connection. Create it with NewServer, run Serve in a goroutine, and
// Close to stop.
type Server struct {
	conn net.PacketConn
	cfg  Config
	enc  *raptorq.ObjectEncoder

	closed chan struct{}
	now    func() time.Time // the clock; tests replace it

	// Everything from here to the counters is touched only by the Serve
	// goroutine, so no locking is needed.
	io        *pktIO
	sessions  map[sessionKey]*serveSession
	owed      []*serveSession // sessions this drain's grants put ahead of what they were sent
	lastSweep time.Time

	// train and ctl are reusable scratch buffers for outgoing packets: a
	// burst of Data packets back to back (made by open, so that a server
	// not yet serving holds none) and an Announce.
	train []byte
	ctl   []byte

	readCalls, datagrams, pullsReceived, sendCalls, symbolsSent, sendErrors atomic.Int64
}

// sessionKey identifies a session: the receiver's address and its flow.
type sessionKey struct {
	peer netip.AddrPort
	flow uint32
}

// serveSession tracks one receiver's cursors, the blocks its pulls said it
// has finished, and its window: the next Seq and the highest grant heard,
// which wrap and are equal between drains.
type serveSession struct {
	key           sessionKey
	cursors       []senderCursor
	srcBlock      int // first block whose source symbols are not all sent
	rrBlock       int // round-robin block pointer for repair symbols
	blocks        wire.Blocks
	sent, granted uint32
	lastActive    time.Time
}

// senderCursor is the per-block symbol schedule for one sender in an
// n-way fetch: its slice of the source symbols, then repair ESIs from
// its residue class (K + idx, step n) — the paper's duplicate-free
// partitioning.
type senderCursor struct {
	srcNext, srcEnd int64
	repairNext      int64
	stride          int64
}

// NewServer returns a server ready to Serve object, which it keeps and
// reads but never writes. It builds views of the object's blocks only:
// source symbols are sent from where they lie, and a block is precoded
// the first time a receiver is owed a repair symbol of it, in the middle
// of that burst (ServerStats.Precoded counts them).
func NewServer(conn net.PacketConn, object []byte, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	enc, err := raptorq.NewObjectEncoder(object, cfg.SymbolSize, cfg.MaxBlockK)
	if err != nil {
		return nil, err
	}
	return &Server{
		conn:     conn,
		cfg:      cfg,
		enc:      enc,
		sessions: make(map[sessionKey]*serveSession),
		closed:   make(chan struct{}),
		now:      time.Now,
	}, nil
}

// Addr returns the server's listening address.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops Serve and closes the connection.
func (s *Server) Close() error {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	return s.conn.Close()
}

// ServerStats counts a server's socket I/O since NewServer, and its
// precodes.
type ServerStats struct {
	// ReadCalls is the number of socket reads that returned datagrams
	// and Datagrams how many they returned: Datagrams/ReadCalls is the
	// mean drain.
	ReadCalls, Datagrams int
	// PullsReceived counts valid Pull packets for known sessions.
	PullsReceived int
	// SendCalls is the number of socket writes that carried Data and
	// SymbolsSent how many symbols they carried: SymbolsSent/SendCalls
	// is the mean train.
	SendCalls, SymbolsSent int
	// SendErrors counts packets the socket refused to send.
	SendErrors int
	// Precoded is how many of the object's blocks have been precoded: those
	// some receiver was sent a repair symbol of. Source symbols need none.
	Precoded int
}

// Stats returns a snapshot of the counters; it may be called while
// Serve runs.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Precoded:      s.enc.Precoded(),
		ReadCalls:     int(s.readCalls.Load()),
		Datagrams:     int(s.datagrams.Load()),
		PullsReceived: int(s.pullsReceived.Load()),
		SendCalls:     int(s.sendCalls.Load()),
		SymbolsSent:   int(s.symbolsSent.Load()),
		SendErrors:    int(s.sendErrors.Load()),
	}
}

// Serve processes packets until Close. It is single-goroutine by
// design: the encoder is safe for concurrent use, its lazy precodes
// included, and sessions are private to this loop.
func (s *Server) Serve() error {
	s.open()
	for {
		select {
		case <-s.closed:
			return nil
		default:
		}
		if err := s.step(); err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
	}
}

// open readies the packet I/O and the train buffer: as many Data packets
// as one train may hold.
func (s *Server) open() {
	s.io = newPktIO(s.conn)
	s.io.useTrains()
	s.io.setMaxPacket(ctlMax)
	s.lastSweep = s.now()
	pktLen := s.enc.Layout().T + wire.DataOverhead
	s.train = make([]byte, 0, min(trainMax, trainBytes/pktLen)*pktLen)
}

// step is one wake-up of Serve: take what the socket has queued, handle
// each datagram, then send each session what it is owed as one burst. It
// also expires idle sessions, by the clock rather than on an idle
// socket, which a busy server never has.
func (s *Server) step() error {
	n, err := s.io.read(serveWake)
	if err != nil && !isTimeout(err) {
		return err
	}
	now := s.now()
	if now.Sub(s.lastSweep) >= sweepEvery {
		s.sweep(now)
	}
	if n == 0 {
		return nil
	}
	s.readCalls.Add(1)
	s.datagrams.Add(int64(n))
	for i := 0; i < n; i++ {
		if d := s.io.pkt(i); d.data != nil {
			s.handle(d.data, d.from, now)
		}
	}
	for i, sess := range s.owed {
		s.pay(sess, int(sess.granted-sess.sent))
		s.owed[i] = nil
	}
	s.owed = s.owed[:0]
	// A server whose pulls keep coming never blocks, and the runtime
	// preempts a goroutine only after 10 ms: yield after each burst so
	// that whatever shares the process — other servers, the receiver —
	// is not starved for a whole transfer.
	runtime.Gosched()
	return nil
}

// sweep drops sessions idle for longer than sessionIdle (lost Done
// messages).
func (s *Server) sweep(now time.Time) {
	s.lastSweep = now
	for k, sess := range s.sessions {
		if now.Sub(sess.lastActive) > sessionIdle {
			delete(s.sessions, k)
		}
	}
}

// handle processes one datagram. A Hello is answered with an Announce
// at once; its grant and a Pull's only raise what the session may be
// sent, and step pays the difference out: handle sends no Data.
//
//polyvet:noalloc per-datagram receive path; replies go into the server's scratch buffers and only a new session allocates, in newSession
func (s *Server) handle(pkt []byte, from netip.AddrPort, now time.Time) {
	hdr, body, err := wire.ParseHeader(pkt)
	if err != nil {
		return // not ours; drop
	}
	key := sessionKey{peer: from, flow: hdr.Flow}
	switch hdr.Type {
	case wire.MsgHello:
		hello, err := wire.ParseHello(hdr.Flow, body)
		if err != nil {
			return
		}
		sess := s.sessions[key]
		if sess == nil {
			if len(s.sessions) >= maxSessions {
				return // table full: the receiver's re-grant says Hello again
			}
			sess = s.newSession(key, hello)
			s.sessions[key] = sess
		}
		sess.lastActive = now
		layout := s.enc.Layout()
		s.ctl = wire.AppendAnnounce(s.ctl[:0], wire.Announce{
			Flow:       hdr.Flow,
			ObjectSize: uint64(layout.F),
			SymbolSize: uint32(layout.T),
			MaxK:       uint32(s.cfg.MaxBlockK),
		})
		if s.io.send(s.ctl, from) != nil {
			s.sendErrors.Add(1)
		}
		// A Hello behind what the session was sent comes from a new fetch,
		// the last one's Done lost, or from far back in this one: it
		// counts from here, since anything sent is useful.
		if int32(hello.Grant-sess.sent) < 0 {
			hello.Grant += sess.sent
		}
		sess.blocks = wire.Blocks{} // a new fetch's blocks are all to do
		s.grant(sess, hello.Grant)
	case wire.MsgPull:
		pull, err := wire.ParsePull(hdr.Flow, body)
		if err != nil {
			return
		}
		sess := s.sessions[key]
		if sess == nil {
			return // unknown session: receiver must re-Hello
		}
		s.pullsReceived.Add(1)
		sess.lastActive = now
		if sess.blocks = sess.blocks.Merge(pull.Blocks); int(sess.blocks.Low) >= len(sess.cursors) {
			sess.granted = sess.sent // every block finished: nothing more is owed
			return
		}
		s.grant(sess, pull.Grant)
	case wire.MsgDone:
		if sess := s.sessions[key]; sess != nil {
			sess.granted = sess.sent // it may be on the owed list already
			delete(s.sessions, key)
		}
	}
}

// newSession builds the per-block cursors for one receiver.
func (s *Server) newSession(key sessionKey, h wire.Hello) *serveSession {
	layout := s.enc.Layout()
	sess := &serveSession{key: key, cursors: make([]senderCursor, 0, len(layout.K))}
	n := int64(h.SenderCount)
	idx := int64(h.SenderIdx)
	for _, k := range layout.K {
		start, span := partition(k, int(idx), int(n))
		sess.cursors = append(sess.cursors, senderCursor{
			srcNext:    int64(start),
			srcEnd:     int64(start + span),
			repairNext: int64(k) + idx,
			stride:     n,
		})
	}
	return sess
}

// partition is the slice of a block of k source symbols that sender idx of
// n sends: ESIs start to start+span-1.
func partition(k, idx, n int) (start, span int) {
	il, is, jl, _ := raptorq.Partition(k, n)
	if idx < jl {
		return idx * il, il
	}
	return jl*il + (idx-jl)*is, is
}

// grant lets a session have been sent g symbols in all, to be paid when
// the drain ends. One not ahead of the highest heard, as serial numbers,
// changes nothing, so pulls may be lost, repeated and overtaken; one that
// is counts for maxPullCredits beyond what was sent and no more: the
// receiver's next pull restates the rest.
func (s *Server) grant(sess *serveSession, g uint32) {
	if int32(g-sess.granted) <= 0 {
		return
	}
	if sess.granted == sess.sent {
		s.owed = append(s.owed, sess)
	}
	sess.granted = sess.sent + min(g-sess.sent, maxPullCredits)
}

// next advances the session's schedule by one symbol: the source symbols
// of its partition block by block, then repair symbols round-robin across
// blocks, in both phases passing over the blocks the receiver said it has
// finished, which are never all of them (handle).
func (sess *serveSession) next() (sbn int, esi uint32) {
	for ; sess.srcBlock < len(sess.cursors); sess.srcBlock++ {
		if cur := &sess.cursors[sess.srcBlock]; cur.srcNext < cur.srcEnd && !sess.blocks.Done(uint32(sess.srcBlock)) {
			esi := cur.srcNext
			cur.srcNext++
			return sess.srcBlock, uint32(esi)
		}
	}
	z, low := len(sess.cursors), int(sess.blocks.Low)
	// Block low is unfinished, so this ends within 65 blocks of it.
	for sbn = max(sess.rrBlock%z, low); sess.blocks.Done(uint32(sbn)); sbn = max((sbn+1)%z, low) {
	}
	sess.rrBlock = sbn + 1
	cur := &sess.cursors[sbn]
	repair := cur.repairNext
	cur.repairNext += cur.stride
	return sbn, uint32(repair)
}

// pay sends a session its next n symbols as trains. Each symbol is
// generated in place behind its Data header: no payload is copied.
//
//polyvet:noalloc per-burst send path; every train is built in the server's one train buffer
func (s *Server) pay(sess *serveSession, n int) {
	t := s.enc.Layout().T
	pktLen := t + wire.DataOverhead
	for n > 0 {
		buf := s.train[:0]
		for ; n > 0 && len(buf)+pktLen <= cap(buf); n-- {
			sbn, esi := sess.next()
			buf = wire.AppendDataHeader(buf, wire.Data{Flow: sess.key.flow, SBN: uint32(sbn), ESI: esi, Seq: sess.sent}, t)
			sess.sent++
			buf = s.enc.Block(sbn).AppendSymbol(buf, esi)
		}
		s.symbolsSent.Add(int64(len(buf) / pktLen)) // first: a receiver that has them all may look
		calls, refused := s.io.sendTrain(buf, pktLen, sess.key.peer)
		s.sendCalls.Add(int64(calls))
		s.sendErrors.Add(int64(refused))
	}
}

// FetchStats reports what happened during a fetch.
type FetchStats struct {
	// Symbols is the number of fresh (non-duplicate) symbols received.
	Symbols int
	// Duplicates counts symbols the decoder already held (e.g. what a
	// network that duplicates packets delivered twice).
	Duplicates int
	// PerSender counts fresh symbols contributed by each remote, in
	// the order passed to FetchMultiSource — the observable form of
	// the paper's "each server contributes symbols at its available
	// capacity".
	PerSender []int
	// Lost counts the symbols a window slid over: Seq numbers skipped when
	// a later one arrived first. The next grant pulled their replacements.
	Lost int
	// Regrants counts the times a silent sender was granted another window,
	// and Retries the stall periods: whole RetryIntervals with nothing fresh
	// from anyone.
	Regrants, Retries int
	// Elapsed is the wall-clock fetch duration, Idle the part of it spent
	// blocked on the socket, waiting for the senders, and Decode the part
	// spent solving blocks that symbols were missing from.
	Elapsed, Idle, Decode time.Duration
	// ReadCalls is the number of socket reads that returned datagrams
	// and Datagrams how many they returned: Datagrams/ReadCalls is the
	// mean drain. A datagram is one packet as its sender wrote it: the
	// segments of a train count one each.
	ReadCalls, Datagrams int
	// PullsSent counts Pull packets, re-grants included: one per sender
	// per drain at most, none until a window has slid by a quarter.
	PullsSent int
	// SendErrors counts packets the socket refused to send.
	SendErrors int
}

// FetchMultiSourceStats retrieves one object replicated at every remote,
// pulling from all of them concurrently (the paper's many-to-one pattern),
// and returns transfer statistics alongside it. The senders need no
// coordination: the Hello index fixes each one's disjoint symbol
// schedule. Remotes must be IP addresses with a port.
func FetchMultiSourceStats(ctx context.Context, conn net.PacketConn, remotes []net.Addr, flow uint32, cfg Config) ([]byte, FetchStats, error) {
	start := time.Now()
	f := fetcher{cfg: cfg, flow: flow, now: start, ctl: make([]byte, 0, 32)} // room for any control packet
	f.stats.PerSender = make([]int, len(remotes))
	if err := cfg.validate(); err != nil {
		return nil, f.stats, err
	}
	if len(remotes) == 0 || len(remotes) > 255 {
		return nil, f.stats, fmt.Errorf("rqudp: %d remotes", len(remotes))
	}
	f.senders = make([]sender, len(remotes))
	for i, r := range remotes {
		if f.senders[i].peer = addrPortOf(r); !f.senders[i].peer.IsValid() {
			return nil, f.stats, fmt.Errorf("rqudp: remote %v is not an IP address and port", r)
		}
	}
	f.io = newPktIO(conn)
	f.setWindow(f.io.coalesceReads()) // a train is to arrive as one read, a window to fit the buffer
	defer f.io.restoreReads()
	f.io.setMaxPacket(cfg.SymbolSize + wire.DataOverhead)
	obj, err := f.run(ctx)
	f.stats.Elapsed = time.Since(start)
	return obj, f.stats, err
}

// Receiver-side constants. Like the server's, none is configurable.
const (
	// A fetch keeps in flight over all its senders what its receive buffer
	// holds of symbols that arrive one by one, each charged symbolCharge
	// bytes (a 1 KiB symbol's), maxWindow at most; defaultWindow on a conn
	// whose buffer it cannot learn.
	maxWindow     = 512
	defaultWindow = 128
	symbolCharge  = 2304
	// A sender is silent after quietRTTs smoothed round trips without a
	// fresh symbol, quietFloor at the least.
	quietRTTs  = 4
	quietFloor = 2 * time.Millisecond
)

// fetcher is the state of one fetch.
type fetcher struct {
	io      *pktIO
	cfg     Config
	flow    uint32
	senders []sender // in the caller's order
	stats   FetchStats
	dec     *raptorq.ObjectDecoder // nil until the first Announce

	// window is each sender's share of the standing window. Source grants
	// are multiples of step, a quarter of it: a socket read one datagram at
	// a time asks once per step, and bursts end where source partitions do.
	window, step uint32
	now          time.Time     // when the current drain was read
	srtt         time.Duration // smoothed time from a grant to its first symbol; 0 before the first
	ctl          []byte        // scratch for outgoing control packets

	ks  []int // each block's K, from the Announce on
	low int   // no block below it is unfinished
}

// sender is one remote's window. hi is one past the highest Seq a fresh
// symbol from it carried and granted the last grant sent to it: what lies
// between is in flight, lost, or unsent because the pull was lost, and
// nothing records which. A gap below hi is simply no longer in flight.
// Its Seqs from base, its first, on carry its source symbols, block by
// block, src of them. A silent sender's debt is written off, and it covers
// nothing until it is heard again.
type sender struct {
	peer              netip.AddrPort
	hi, granted, want uint32
	base              uint32
	src               int  // its source symbols, to the block uncovered is at; all, after
	silent, due       bool // due: made silent, or re-granted as such, by this drain
	// A round trip is timed from probeAt (zero: none is), when a grant
	// beyond probe went out, to the first Seq that only it can have let out.
	probe    uint32
	probeAt  time.Time
	heard    time.Duration // stats.Idle at the last fresh symbol from it, or re-grant to it
	regrants int           // re-grants since that symbol: each doubles the wait for the next
}

// from is the first of its Seqs still counted on.
func (s *sender) from() uint32 {
	if s.silent {
		return s.granted
	}
	return s.hi
}

// grantable reports whether the drain's grants are for it: those of a fetch
// with live senders are theirs, and when every sender is silent they go to
// those whose re-grant fell due.
func (s *sender) grantable(live int) bool { return !s.silent || live == 0 && s.due }

// standingWindow is how many symbols a fetch whose socket was granted a
// receive buffer of granted bytes (0: unknown) keeps in flight.
func standingWindow(granted int) int {
	if granted <= 0 {
		return defaultWindow
	}
	return max(1, min(maxWindow, granted/symbolCharge))
}

// setWindow splits the standing window over the senders, in whole trains
// of symbols of the configured size: the Hello's grant is no runt, and
// the Announce makes the step whole trains of the senders' symbols.
func (f *fetcher) setWindow(granted int) {
	f.window = inTrains(uint32(max(1, standingWindow(granted)/len(f.senders))), f.cfg.SymbolSize)
}

// inTrains rounds n symbols of t bytes down to whole trains, if that
// leaves one.
func inTrains(n uint32, t int) uint32 {
	if train := uint32(min(trainMax, trainBytes/(t+wire.DataOverhead))); n >= train {
		n -= n % train
	}
	return n
}

// run is the receive loop: drain the socket into the decoder, then slide
// each sender's window over what arrived.
func (f *fetcher) run(ctx context.Context) ([]byte, error) {
	for i := range f.senders {
		f.grant(i, f.window)
	}
	begin, freshIn, base := f.now, -1, 0 // freshIn: the last RetryInterval with a fresh symbol; base: Retries before it
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		blocked := time.Now()
		n, err := f.io.read(f.quiet())
		f.now = time.Now()
		f.stats.Idle += f.now.Sub(blocked)
		if err != nil && !isTimeout(err) {
			return nil, err
		}
		if err == nil {
			f.stats.ReadCalls++
			f.stats.Datagrams += n
		}
		before := f.stats.Symbols
		for i := 0; i < n; i++ {
			if d := f.io.pkt(i); d.data != nil {
				if err := f.handle(d); err != nil {
					return nil, err
				}
			}
		}
		// Only fresh symbols are progress and reset the stall budget: a
		// sender replaying duplicates must not defeat MaxRetries.
		in := int(f.now.Sub(begin) / f.cfg.RetryInterval)
		if f.stats.Symbols != before {
			freshIn, base = in, f.stats.Retries
			if f.dec.Complete() {
				f.ctl = wire.AppendDone(f.ctl[:0], f.flow)
				for i := range f.senders {
					f.send(f.ctl, f.senders[i].peer)
				}
				return f.dec.Object()
			}
		}
		// Each RetryInterval that passed with nothing fresh from anyone is a
		// stall, and more than MaxRetries in a row end the fetch; asking
		// again is slide's business.
		if stalled := in - freshIn - 1; stalled > 0 {
			if f.stats.Retries = base + stalled; stalled > f.cfg.MaxRetries {
				return nil, fmt.Errorf("rqudp: fetch stalled after %d retries", f.cfg.MaxRetries)
			}
		}
		f.slide()
	}
}

// quiet is how long the fetch waits on a silent socket, and first waits
// for a silent sender. Only time spent waiting counts (stats.Idle is the
// clock): while the fetcher is busy, decoding, say, what a sender sent
// lies in the socket and says nothing about it.
func (f *fetcher) quiet() time.Duration {
	q := f.cfg.RetryInterval / 4
	if f.srtt > 0 {
		q = min(q, max(quietRTTs*f.srtt, quietFloor))
	}
	return q
}

// slide ends a drain. Each sender that owes symbols and was unheard for
// quiet, doubled for each re-grant since it was heard, RetryInterval at
// most, is made silent; the window is shared out; and a silent sender due
// that got no share is granted one more symbol, to find out if it is back.
func (f *fetcher) slide() {
	quiet, live := f.quiet(), 0
	for i := range f.senders {
		s := &f.senders[i]
		wait := quiet
		for r := s.regrants; r > 0 && wait < f.cfg.RetryInterval; r-- {
			wait *= 2
		}
		s.due = (s.silent || int32(s.granted-s.hi) > 0) && f.stats.Idle-s.heard >= min(wait, f.cfg.RetryInterval)
		if s.due {
			f.stats.Regrants++
			s.regrants, s.heard, s.probeAt, s.silent = s.regrants+1, f.stats.Idle, time.Time{}, true
		}
		if !s.silent {
			live++
		}
		s.want = s.granted
	}
	if f.dec != nil { // before the Announce, no symbol moves a window
		f.share(live)
	}
	for i := range f.senders {
		s := &f.senders[i]
		if s.due && s.want == s.granted {
			s.want++
		}
		if int32(s.want-s.granted) > 0 {
			f.grant(i, s.want)
		}
	}
}

// share grants the standing window source first: a sender with source
// symbols still to grant is granted up to a share of the window beyond its
// highest Seq, taking the shares of those past their partitions once it
// has been heard. The one past its partition owing fewest is granted
// repair for what the unfinished blocks lack beyond what is in flight or
// still to come, and as many more as the fetch has lost of those so far,
// up to one sender's window in flight: repair in flight is waste once its
// block completes or the silent sender it stands in for is heard again.
func (f *fetcher) share(live int) {
	gap, nsrc := f.uncovered(live), 0
	for i := range f.senders {
		if s := &f.senders[i]; s.grantable(live) && past(s.base+uint32(s.src), s.granted) > 0 {
			nsrc++
		}
	}
	share, inflight, next := f.window*uint32(len(f.senders))/uint32(max(nsrc, 1)), 0, -1
	for i := range f.senders {
		s := &f.senders[i]
		if !s.grantable(live) {
			continue
		}
		end := s.base + uint32(s.src)
		gap -= max(0, past(s.granted, s.from())-past(end, s.from())) // repair in flight
		if past(end, s.want) > 0 {
			w := s.from() + share
			if f.stats.PerSender[i] == 0 {
				w = s.from() + f.window // not heard yet: no one else's share
			}
			w -= w % f.step
			if past(w, end) > 0 {
				w = end
			}
			if past(w, s.want) > 0 {
				s.want = w
			}
		}
		inflight += past(s.want, s.from())
		if past(end, s.want) == 0 && (next < 0 || past(s.want, s.from()) < past(f.senders[next].want, f.senders[next].from())) {
			next = i // past its partition, and owing the fewest
		}
	}
	if gap > 0 && next >= 0 {
		lost := (gap*f.stats.Lost + f.stats.Symbols - 1) / max(f.stats.Symbols, 1)
		if n := min(gap+lost, int(f.window)-inflight); n > 0 {
			f.senders[next].want += uint32(n)
		}
	}
}

// uncovered is how many symbols the unfinished blocks lack beyond the
// source symbols the grantable senders have still to send, each to its
// block. It counts each sender's src as it goes.
func (f *fetcher) uncovered(live int) int {
	for i := range f.senders {
		f.senders[i].src = 0
	}
	lack := 0
	for b, k := range f.ks {
		need := 0
		if !f.dec.BlockComplete(b) {
			need = max(1, k-f.dec.BlockReceived(b))
		}
		for i := range f.senders {
			s := &f.senders[i]
			_, span := partition(k, i, len(f.senders))
			if s.src += span; s.grantable(live) {
				need -= max(0, s.src-max(past(s.from(), s.base), s.src-span))
			}
		}
		lack += max(0, need)
	}
	return lack
}

// past is how far Seq a is past b, as serial numbers; 0 if it is not.
func past(a, b uint32) int { return max(0, int(int32(a-b))) }

// handle processes one datagram of a drain. It returns an error only
// for an Announce the fetch cannot continue from.
func (f *fetcher) handle(d datagram) error {
	hdr, body, err := wire.ParseHeader(d.data)
	if err != nil || hdr.Flow != f.flow {
		return nil
	}
	switch hdr.Type {
	case wire.MsgAnnounce:
		a, err := wire.ParseAnnounce(hdr.Flow, body)
		if err != nil || f.dec != nil {
			return nil
		}
		if uint64(a.MaxK) > uint64(f.cfg.MaxBlockK) {
			return fmt.Errorf("rqudp: announce of blocks of %d symbols, more than MaxBlockK %d", a.MaxK, f.cfg.MaxBlockK)
		}
		t := uint64(a.SymbolSize)
		kt := a.ObjectSize/t + min(a.ObjectSize%t, 1) // source symbols
		if t > maxSymbolSize || kt >= maxSymbols || kt/uint64(a.MaxK) >= maxBlocks || kt*t > maxObjectBytes {
			return fmt.Errorf("rqudp: bad announce: %d bytes in symbols of %d, blocks of %d", a.ObjectSize, a.SymbolSize, a.MaxK)
		}
		layout, err := raptorq.NewBlockLayout(int64(a.ObjectSize), int(a.SymbolSize), int(a.MaxK))
		if err != nil {
			return fmt.Errorf("rqudp: bad announce: %w", err)
		}
		if f.dec, err = raptorq.NewObjectDecoder(layout); err != nil {
			return err
		}
		f.dec.SetWorkers(f.cfg.Workers)
		f.ks = layout.K
		f.step = max(1, inTrains(f.window/4, layout.T))
		if layout.T > f.cfg.SymbolSize {
			// The sender's symbols are longer than this side was configured
			// for: make room. A silent sender's re-grant asks again for what
			// the ring dropped meanwhile.
			f.io.setMaxPacket(layout.T + wire.DataOverhead)
		}
	case wire.MsgData:
		data, err := wire.ParseData(hdr.Flow, body)
		if err != nil || f.dec == nil {
			return nil
		}
		fresh, err := f.dec.AddSymbol(int(data.SBN), data.ESI, data.Payload)
		if err != nil {
			return nil // e.g. geometry mismatch; ignore packet
		}
		if !fresh {
			// A duplicate moves no window, whatever its Seq: clocking
			// pulls off duplicates would let a replaying sender sustain a
			// data->pull->data ping-pong that starves the stall clock and
			// defeats MaxRetries. It goes quiet instead, and is counted out.
			f.stats.Duplicates++
			return nil
		}
		f.stats.Symbols++
		// Decode a block the moment it can be, not at the end of the
		// drain: what the drain still holds for it then costs no intake
		// memory.
		if f.dec.BlockReady(int(data.SBN)) {
			t0 := time.Now()
			f.dec.TryDecode()
			f.stats.Decode += time.Since(t0)
		}
		// Receiver-driven clocking: the window of the sender that
		// delivered slides up to this symbol (its path has capacity).
		for i := range f.senders {
			s := &f.senders[i]
			if s.peer != d.from {
				continue
			}
			if f.stats.PerSender[i]++; f.stats.PerSender[i] == 1 {
				// Its first symbol says where the sender counts from: not
				// from 0 on a session left over from an earlier fetch.
				s.hi, s.granted, s.base = data.Seq, s.granted+data.Seq, data.Seq
			}
			s.heard, s.regrants, s.silent = f.stats.Idle, 0, false
			if !s.probeAt.IsZero() && int32(data.Seq-s.probe) >= 0 {
				if rtt := f.now.Sub(s.probeAt); f.srtt == 0 {
					f.srtt = rtt
				} else {
					f.srtt += (rtt - f.srtt) / 8
				}
				s.probeAt = time.Time{}
			}
			if gap := int32(data.Seq - s.hi); gap >= 0 {
				f.stats.Lost += int(gap)
				s.hi = data.Seq + 1
			}
			return nil
		}
		// Not from an address the fetch was given (a multi-homed sender,
		// say): slide its window there, statelessly; it keeps the highest.
		f.sendPull(d.from, data.Seq+1+f.window)
	}
	return nil
}

// grant tells sender i that it may have emitted `to` symbols in all: with
// a Hello until it has been heard from, which says what a Pull does and
// opens the session if none did yet, then with a Pull.
func (f *fetcher) grant(i int, to uint32) {
	s := &f.senders[i]
	if s.probeAt.IsZero() {
		s.probe, s.probeAt = s.granted, f.now
	}
	if int32(s.granted-s.hi) <= 0 {
		s.heard = f.stats.Idle // an idle sender's wait starts now
	}
	s.granted = to
	if f.stats.PerSender[i] > 0 {
		f.sendPull(s.peer, to)
		return
	}
	f.ctl = wire.AppendHello(f.ctl[:0], wire.Hello{
		Flow:        f.flow,
		SenderIdx:   uint8(i),
		SenderCount: uint8(len(f.senders)),
		Grant:       to,
	})
	f.send(f.ctl, s.peer)
}

func (f *fetcher) sendPull(to netip.AddrPort, grant uint32) {
	f.ctl = wire.AppendPull(f.ctl[:0], wire.Pull{Flow: f.flow, Grant: grant, Blocks: f.blocks()})
	f.send(f.ctl, to)
	f.stats.PullsSent++
}

// blocks is the fetch's block state as a Pull tells it.
func (f *fetcher) blocks() (b wire.Blocks) {
	for f.low < len(f.ks) && f.dec.BlockComplete(f.low) {
		f.low++
	}
	for i := 0; i < 64 && f.low+1+i < len(f.ks); i++ {
		if f.dec.BlockComplete(f.low + 1 + i) {
			b.Above |= 1 << i
		}
	}
	b.Low = uint32(f.low)
	return b
}

// send writes one packet and counts a refusal.
func (f *fetcher) send(pkt []byte, to netip.AddrPort) {
	if err := f.io.send(pkt, to); err != nil {
		f.stats.SendErrors++
	}
}
