// Package rqudp is the real-network Polyraptor transport: a
// receiver-driven, RaptorQ-coded object transfer protocol over UDP
// (any net.PacketConn). It runs the actual codec from
// internal/raptorq end to end — unlike the protocol simulator, every
// symbol on the wire here carries coded bytes.
//
// The protocol mirrors the paper's design at real-network granularity:
//
//	receiver                            sender
//	   | -- Hello{flow, idx, count} -->   |   (per sender; idx/count
//	   |                                  |    fix the ESI partition)
//	   | <-- Announce{F, T, maxK} ------  |
//	   | <== Data x InitWindow =========  |   (source symbols first;
//	   | -- Pull{credits: n} ---------->  |    one per drain: n fresh
//	   | <== Data x n ==================  |    arrivals from this sender;
//	   | -- Done ---------------------->  |    <== is one train)
//
// Both sides read the socket in drains: block until a datagram is
// there, take everything already queued (pktIO), then answer. The
// receiver credits every fresh arrival exactly once, before it blocks
// again — n is 1 when arrivals are spaced out and grows only when the
// receiver is the slower side — and the sender sums the credits a drain
// brought for each session before it answers them with one burst: the
// n equal-length Data packets are built back to back in one buffer and
// handed to the socket as a train (pktIO.sendTrain: one UDP_SEGMENT
// sendmsg where the kernel takes it, a write per packet elsewhere). For
// the length of a fetch the receiver's socket takes a train as the one
// message it was sent as (pktIO.coalesceReads: UDP_GRO, same condition)
// and each symbol is copied once, from that message to its place in the
// object the fetch returns (raptorq.ObjectDecoder).
//
// Lost symbols are never re-requested: a pull elicits the next fresh
// symbol, which contributes equally to decoding. Multi-source fetches
// send one Hello per sender with a distinct index; senders partition
// source symbols and use disjoint repair ESI residue classes, so an
// uncoordinated replica set never produces duplicate symbols.
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
	// blocks amortise better but decode slower).
	MaxBlockK int
	// InitWindow is the number of symbols a sender blasts after Hello.
	InitWindow int
	// PullBatch is the credit count in recovery pulls issued by the
	// stall guard.
	PullBatch int
	// RetryInterval is the receiver's stall guard period.
	RetryInterval time.Duration
	// MaxRetries bounds consecutive stall recoveries before the fetch
	// aborts.
	MaxRetries int
	// Workers bounds the block-parallel codec work: server-side object
	// encoding (per-block precode solves) and receiver-side block
	// decoding. Zero selects the codec default (GOMAXPROCS); 1 forces
	// serial. Output is byte-identical for every worker count — the
	// knob trades construction/decode wall-clock only.
	Workers int
}

// DefaultConfig returns sane defaults for LAN/loopback use.
func DefaultConfig() Config {
	return Config{
		SymbolSize:    1024,
		MaxBlockK:     256,
		InitWindow:    16,
		PullBatch:     16,
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
	if c.InitWindow < 1 || c.PullBatch < 1 {
		return fmt.Errorf("rqudp: InitWindow and PullBatch must be >= 1")
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
	// whatever its pulls asked for.
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
	credited  []*serveSession // sessions this drain's pulls gave credits
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

// serveSession tracks one receiver's cursors.
type serveSession struct {
	key        sessionKey
	cursors    []senderCursor
	srcBlock   int // first block whose source symbols are not all sent
	rrBlock    int // round-robin block pointer for repair symbols
	credits    int // symbols owed for the pulls of the current drain
	lastActive time.Time
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

// NewServer builds the object encoders (the expensive part) and
// returns a server ready to Serve.
func NewServer(conn net.PacketConn, object []byte, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	enc, err := raptorq.NewObjectEncoderWorkers(object, cfg.SymbolSize, cfg.MaxBlockK, cfg.Workers)
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

// ServerStats counts a server's socket I/O since NewServer.
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
}

// Stats returns a snapshot of the counters; it may be called while
// Serve runs.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		ReadCalls:     int(s.readCalls.Load()),
		Datagrams:     int(s.datagrams.Load()),
		PullsReceived: int(s.pullsReceived.Load()),
		SendCalls:     int(s.sendCalls.Load()),
		SymbolsSent:   int(s.symbolsSent.Load()),
		SendErrors:    int(s.sendErrors.Load()),
	}
}

// Serve processes packets until Close. It is single-goroutine by
// design: the encoder is immutable after construction and sessions are
// private to this loop.
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
// each datagram, then answer each session's pulls with one burst. It
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
	for i, sess := range s.credited {
		s.pay(sess, min(sess.credits, maxPullCredits))
		sess.credits = 0
		s.credited[i] = nil
	}
	s.credited = s.credited[:0]
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
// at once; its initial window and a Pull's symbols are only credited to
// the session, and step pays them out: handle sends no Data.
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
				return // table full: the receiver's stall guard says Hello again
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
		// Initial window (fresh symbols even on Hello retry: with a
		// rateless code anything we send is useful).
		s.credit(sess, s.cfg.InitWindow)
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
		s.credit(sess, int(pull.Credits))
	case wire.MsgDone:
		if sess := s.sessions[key]; sess != nil {
			sess.credits = 0 // it may be on the credited list already
			delete(s.sessions, key)
		}
	}
}

// newSession builds the per-block cursors for one receiver.
func (s *Server) newSession(key sessionKey, h wire.Hello) *serveSession {
	layout := s.enc.Layout()
	sess := &serveSession{key: key}
	n := int64(h.SenderCount)
	idx := int64(h.SenderIdx)
	for _, k := range layout.K {
		kk := int64(k)
		il, is, jl, _ := raptorq.Partition(k, int(n))
		var start int64
		span := int64(is)
		if idx < int64(jl) {
			span = int64(il)
			start = idx * int64(il)
		} else {
			start = int64(jl)*int64(il) + (idx-int64(jl))*int64(is)
		}
		sess.cursors = append(sess.cursors, senderCursor{
			srcNext:    start,
			srcEnd:     start + span,
			repairNext: kk + idx,
			stride:     n,
		})
	}
	return sess
}

// credit owes a session n more symbols, to be paid when the drain ends.
func (s *Server) credit(sess *serveSession, n int) {
	if sess.credits == 0 && n > 0 {
		s.credited = append(s.credited, sess)
	}
	sess.credits += n
}

// next advances the session's schedule by one symbol: the source symbols
// of its partition block by block, then repair symbols round-robin
// across blocks.
func (sess *serveSession) next() (sbn int, esi uint32) {
	for ; sess.srcBlock < len(sess.cursors); sess.srcBlock++ {
		if cur := &sess.cursors[sess.srcBlock]; cur.srcNext < cur.srcEnd {
			esi := cur.srcNext
			cur.srcNext++
			return sess.srcBlock, uint32(esi)
		}
	}
	sbn = sess.rrBlock % len(sess.cursors)
	sess.rrBlock++
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
			buf = wire.AppendDataHeader(buf, wire.Data{Flow: sess.key.flow, SBN: uint32(sbn), ESI: esi}, t)
			buf = s.enc.Block(sbn).AppendSymbol(buf, esi)
		}
		calls, refused := s.io.sendTrain(buf, pktLen, sess.key.peer)
		s.sendCalls.Add(int64(calls))
		s.symbolsSent.Add(int64(len(buf) / pktLen))
		s.sendErrors.Add(int64(refused))
	}
}

// FetchStats reports what happened during a fetch.
type FetchStats struct {
	// Symbols is the number of fresh (non-duplicate) symbols received.
	Symbols int
	// Duplicates counts symbols the decoder already held (e.g. after a
	// Hello retry re-triggered an initial window).
	Duplicates int
	// PerSender counts fresh symbols contributed by each remote, in
	// the order passed to FetchMultiSource — the observable form of
	// the paper's "each server contributes symbols at its available
	// capacity".
	PerSender []int
	// Retries is the number of stall recoveries performed.
	Retries int
	// Elapsed is the wall-clock fetch duration.
	Elapsed time.Duration
	// ReadCalls is the number of socket reads that returned datagrams
	// and Datagrams how many they returned: Datagrams/ReadCalls is the
	// mean drain. A datagram is one packet as its sender wrote it: the
	// segments of a train count one each.
	ReadCalls, Datagrams int
	// PullsSent counts Pull packets, the stall guard's included.
	// PullsSent/Symbols is how far per-drain crediting coalesced them;
	// 1 is a pull per symbol.
	PullsSent int
	// SendErrors counts packets the socket refused to send.
	SendErrors int
}

// Fetch retrieves the object served at remote over conn (unicast).
func Fetch(ctx context.Context, conn net.PacketConn, remote net.Addr, flow uint32, cfg Config) ([]byte, error) {
	data, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{remote}, flow, cfg)
	return data, err
}

// FetchMultiSource retrieves one object replicated at every remote,
// pulling from all of them concurrently (the paper's many-to-one
// pattern). The senders need no coordination: the Hello index fixes
// each one's disjoint symbol schedule.
func FetchMultiSource(ctx context.Context, conn net.PacketConn, remotes []net.Addr, flow uint32, cfg Config) ([]byte, error) {
	data, _, err := FetchMultiSourceStats(ctx, conn, remotes, flow, cfg)
	return data, err
}

// FetchMultiSourceStats is FetchMultiSource returning transfer
// statistics alongside the object. Remotes must be IP addresses with a
// port.
func FetchMultiSourceStats(ctx context.Context, conn net.PacketConn, remotes []net.Addr, flow uint32, cfg Config) ([]byte, FetchStats, error) {
	start := time.Now()
	f := fetcher{cfg: cfg, flow: flow}
	f.stats.PerSender = make([]int, len(remotes))
	if err := cfg.validate(); err != nil {
		return nil, f.stats, err
	}
	if len(remotes) == 0 || len(remotes) > 255 {
		return nil, f.stats, fmt.Errorf("rqudp: %d remotes", len(remotes))
	}
	for _, r := range remotes {
		peer := addrPortOf(r)
		if !peer.IsValid() {
			return nil, f.stats, fmt.Errorf("rqudp: remote %v is not an IP address and port", r)
		}
		f.peers = append(f.peers, peer)
	}
	f.credits = make([]uint16, len(remotes))
	f.io = newPktIO(conn)
	f.io.coalesceReads() // a sender's train is to arrive as one read
	defer f.io.restoreReads()
	f.io.setMaxPacket(cfg.SymbolSize + wire.DataOverhead)
	obj, err := f.run(ctx)
	f.stats.Elapsed = time.Since(start)
	return obj, f.stats, err
}

// fetcher is the state of one fetch.
type fetcher struct {
	io    *pktIO
	cfg   Config
	flow  uint32
	peers []netip.AddrPort // the senders, in the caller's order
	stats FetchStats
	dec   *raptorq.ObjectDecoder // nil until the first Announce

	// credits[i] counts the current drain's fresh symbols from sender i;
	// sendPulls turns them into pulls.
	credits []uint16
	ctl     []byte // scratch for outgoing control packets
}

// run is the receive loop: drain the socket into the decoder, then
// credit each sender for what it delivered.
func (f *fetcher) run(ctx context.Context) ([]byte, error) {
	f.sendHello()
	var (
		retries  = 0
		progress = false // any new symbol since last stall check
		lastTick = time.Now()
	)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, err := f.io.read(f.cfg.RetryInterval / 4)
		if err != nil {
			if !isTimeout(err) {
				return nil, err
			}
			// Stall guard: on timeout with no progress, re-prime.
			if time.Since(lastTick) >= f.cfg.RetryInterval {
				lastTick = time.Now()
				if !progress {
					retries++
					f.stats.Retries++
					if retries > f.cfg.MaxRetries {
						return nil, fmt.Errorf("rqudp: fetch stalled after %d retries", retries-1)
					}
					if f.dec == nil {
						f.sendHello()
					} else {
						for i := range f.credits {
							f.credits[i] = uint16(f.cfg.PullBatch)
						}
						f.sendPulls()
					}
				}
				progress = false
			}
			continue
		}
		f.stats.ReadCalls++
		f.stats.Datagrams += n
		before := f.stats.Symbols
		for i := 0; i < n; i++ {
			if d := f.io.pkt(i); d.data != nil {
				if err := f.handle(d); err != nil {
					return nil, err
				}
			}
		}
		if f.stats.Symbols == before {
			continue
		}
		// Only fresh symbols are progress and reset the stall budget: a
		// sender replaying duplicates must not defeat MaxRetries (the
		// fetch would stall forever instead of aborting).
		progress = true
		retries = 0
		if f.dec.Complete() {
			f.ctl = wire.AppendDone(f.ctl[:0], f.flow)
			for _, peer := range f.peers {
				f.send(f.ctl, peer)
			}
			return f.dec.Object()
		}
		f.sendPulls()
	}
}

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
		if layout.T > f.cfg.SymbolSize {
			// The sender's symbols are longer than this side was
			// configured for: the ring dropped the initial window, so
			// make room and ask for another.
			f.io.setMaxPacket(layout.T + wire.DataOverhead)
			f.sendHello()
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
			// No credit for a duplicate: clocking pulls off duplicates
			// would let a replaying sender sustain a data->pull->data
			// ping-pong that keeps the socket warm and starves the stall
			// guard, defeating MaxRetries. The sender goes quiet instead
			// and the stall guard takes over.
			f.stats.Duplicates++
			return nil
		}
		f.stats.Symbols++
		// Decode a block the moment it can be, not at the end of the
		// drain: what the drain still holds for it then costs no intake
		// memory.
		if f.dec.BlockReady(int(data.SBN)) {
			f.dec.TryDecode()
		}
		// Receiver-driven clocking: one credit per fresh arrival, to the
		// sender that delivered (its path has capacity).
		for i, peer := range f.peers {
			if peer == d.from {
				f.stats.PerSender[i]++
				f.credits[i]++
				return nil
			}
		}
		// Not from an address the fetch was given (a multi-homed
		// sender, say): credit it where it came from.
		f.sendPull(d.from, 1)
	}
	return nil
}

func (f *fetcher) sendHello() {
	for i, peer := range f.peers {
		f.ctl = wire.AppendHello(f.ctl[:0], wire.Hello{
			Flow:        f.flow,
			SenderIdx:   uint8(i),
			SenderCount: uint8(len(f.peers)),
		})
		f.send(f.ctl, peer)
	}
}

// sendPulls sends each sender one Pull for the credits it has earned,
// and clears them.
func (f *fetcher) sendPulls() {
	for i, c := range f.credits {
		if c > 0 {
			f.credits[i] = 0
			f.sendPull(f.peers[i], c)
		}
	}
}

func (f *fetcher) sendPull(to netip.AddrPort, credits uint16) {
	f.ctl = wire.AppendPull(f.ctl[:0], wire.Pull{Flow: f.flow, Credits: credits})
	f.send(f.ctl, to)
	f.stats.PullsSent++
}

// send writes one packet and counts a refusal.
func (f *fetcher) send(pkt []byte, to netip.AddrPort) {
	if err := f.io.send(pkt, to); err != nil {
		f.stats.SendErrors++
	}
}
