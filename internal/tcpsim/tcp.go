// Package tcpsim implements the paper's comparison baseline: a
// packet-level TCP NewReno model (slow start, congestion avoidance,
// fast retransmit/recovery with NewReno partial-ACK handling, and
// exponential-backoff retransmission timeouts) running over netsim
// with per-flow ECMP hashing and drop-tail switch queues.
//
// The paper emulates one-to-many transfer with TCP by multi-unicasting
// (n independent flows from the writer) and many-to-one by letting
// each replica server send a distinct 1/n of the block without
// coordination; helpers for both patterns live in the harness.
package tcpsim

import (
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/sim"
	"polyraptor/internal/telemetry"
)

// Config holds TCP parameters.
type Config struct {
	// SegPayload is the payload bytes per segment (wire size is
	// SegPayload + header; we transmit netsim.DataSize on the wire).
	SegPayload int
	// InitCwnd is the initial congestion window in segments (RFC 6928
	// style IW10).
	InitCwnd float64
	// RTOMin clamps the retransmission timeout. The paper's baseline
	// is *standard* TCP, whose 200 ms minimum RTO dwarfs data-centre
	// transfer times — the root cause of Incast collapse (Vasudevan et
	// al., SIGCOMM 2009). Set to ~1 ms to model a DC-tuned stack.
	RTOMin sim.Time
	// MaxBackoff caps exponential RTO backoff doublings.
	MaxBackoff int
	// DCTCP enables DCTCP congestion control (Alizadeh et al., SIGCOMM
	// 2010): segments are sent ECN-capable, receivers echo CE marks,
	// and the sender scales cwnd by the smoothed mark fraction once
	// per window instead of halving. Requires switches configured with
	// netsim.Config.ECNThreshold. Loss handling stays NewReno.
	DCTCP bool
	// DCTCPGain is the EWMA gain g for the mark-fraction estimate
	// (canonical 1/16).
	DCTCPGain float64
}

// DefaultConfig returns the paper's baseline: standard TCP.
func DefaultConfig() Config {
	return Config{
		SegPayload: netsim.PayloadSize,
		InitCwnd:   10,
		RTOMin:     200 * time.Millisecond,
		MaxBackoff: 6,
	}
}

// TunedConfig returns a data-centre-tuned stack (RTOmin lowered to
// 1 ms), used by mechanism tests and the RTOmin sensitivity ablation.
func TunedConfig() Config {
	cfg := DefaultConfig()
	cfg.RTOMin = time.Millisecond
	return cfg
}

// DCTCPConfig returns a DCTCP stack (DC-tuned RTOmin, ECN-driven
// window control). Pair it with netsim.Config.ECNThreshold ≈ 20.
func DCTCPConfig() Config {
	cfg := TunedConfig()
	cfg.DCTCP = true
	cfg.DCTCPGain = 1.0 / 16
	return cfg
}

// FlowResult reports one completed flow.
type FlowResult struct {
	Flow        int32
	Src, Dst    int
	Bytes       int64
	Start, End  sim.Time
	Retransmits int64
	Timeouts    int64
}

// GoodputGbps returns application goodput in Gbit/s.
func (r FlowResult) GoodputGbps() float64 {
	d := (r.End - r.Start).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.Bytes*8) / d / 1e9
}

// System attaches a TCP agent to every host.
type System struct {
	Net    *netsim.Network
	Cfg    Config
	Agents []*Agent
	// flows is indexed by flow id, which StartFlow hands out densely. A
	// slot is cleared when its flow finishes, so what the table keeps per
	// finished flow is two nil pointers.
	flows []flowSlot
	open  int // senders in flows
}

// flowSlot holds the two endpoints of one flow: ACKs go to snd at the
// source host, segments to rcv at the destination.
type flowSlot struct {
	snd *tcpSender
	rcv *tcpReceiver
}

// NewSystem wires an agent onto every host of the network.
func NewSystem(net *netsim.Network, cfg Config) *System {
	if cfg.SegPayload <= 0 {
		panic("tcpsim: SegPayload must be positive")
	}
	s := &System{Net: net, Cfg: cfg}
	for _, h := range net.Hosts {
		s.Agents = append(s.Agents, newAgent(s, h))
	}
	return s
}

// proto names the configured stack for traces.
func (s *System) proto() string {
	if s.Cfg.DCTCP {
		return "dctcp"
	}
	return "tcp"
}

// OpenFlows counts the live sender sessions — the open-session gauge
// sampled by PolyScope timeline probes.
func (s *System) OpenFlows() int { return s.open }

// StartFlow begins a TCP transfer of `bytes` from src to dst. onDone
// fires at the sender when the final segment is cumulatively acked.
func (s *System) StartFlow(src, dst int, bytes int64, onDone func(FlowResult)) int32 {
	flow := int32(len(s.flows))
	s.Net.Rec.OpenFlow(s.Net.Now(), flow, s.proto(),
		s.Agents[src].host.ID, s.Agents[dst].host.ID, bytes, 1)
	segs := (bytes + int64(s.Cfg.SegPayload) - 1) / int64(s.Cfg.SegPayload)
	if segs < 1 {
		segs = 1
	}
	snd := &tcpSender{
		sys:      s,
		flow:     flow,
		src:      src,
		dst:      dst,
		bytes:    bytes,
		total:    segs,
		cwnd:     s.Cfg.InitCwnd,
		ssthresh: 1 << 30,
		sent:     newSentTable(segs),
		start:    s.Net.Now(),
		onDone:   onDone,
	}
	snd.rtoFn = snd.onRTO
	s.flows = append(s.flows, flowSlot{snd: snd})
	s.open++
	snd.trySend()
	return flow
}

// Agent is the per-host TCP endpoint: it hands segments and ACKs to
// the flow's endpoints in the system's table. Receiver state is
// created on first data arrival.
type Agent struct {
	sys  *System
	host *netsim.Host
}

func newAgent(sys *System, host *netsim.Host) *Agent {
	a := &Agent{sys: sys, host: host}
	host.Deliver = a.deliver
	return a
}

func (a *Agent) deliver(pkt *netsim.Packet) {
	slot := &a.sys.flows[pkt.Flow]
	switch pkt.Kind {
	case netsim.KindData:
		if slot.rcv == nil {
			slot.rcv = &tcpReceiver{agent: a, flow: pkt.Flow, peer: pkt.Src}
		}
		slot.rcv.onData(pkt)
	case netsim.KindAck:
		if slot.snd != nil {
			slot.snd.onAck(pkt.Seq, pkt.ECNEcho)
		}
	}
	// Handlers read fields synchronously and never retain the pointer;
	// recycle the packet once dispatch returns.
	a.sys.Net.FreePacket(pkt)
}

// tcpReceiver acknowledges every arriving segment with the cumulative
// next-expected sequence number, buffering out-of-order arrivals.
type tcpReceiver struct {
	agent    *Agent
	flow     int32
	peer     int32
	expected int64
	// ooo is the set of segments buffered above expected: bit i stands
	// for segment oooBase+i. It is rebased whenever it empties, so it
	// grows to the widest reordering window, not with the flow.
	ooo     []uint64
	oooBase int64
	oooHeld int
}

// held reports whether segment seq is buffered out of order.
func (r *tcpReceiver) held(seq int64) bool {
	i := uint64(seq - r.oooBase)
	return i>>6 < uint64(len(r.ooo)) && r.ooo[i>>6]>>(i&63)&1 != 0
}

// release moves expected past the segments held right above it.
func (r *tcpReceiver) release() {
	for r.held(r.expected) {
		i := uint64(r.expected - r.oooBase)
		r.ooo[i>>6] &^= 1 << (i & 63)
		r.oooHeld--
		r.expected++
	}
}

// hold buffers segment seq, which is above expected and not held.
func (r *tcpReceiver) hold(seq int64) {
	if r.oooHeld == 0 {
		r.oooBase, r.ooo = r.expected&^63, r.ooo[:0]
	}
	i := uint64(seq - r.oooBase)
	for i>>6 >= uint64(len(r.ooo)) {
		r.ooo = append(r.ooo, 0)
	}
	r.ooo[i>>6] |= 1 << (i & 63)
	r.oooHeld++
}

func (r *tcpReceiver) onData(pkt *netsim.Packet) {
	seq := pkt.Seq
	switch {
	case seq == r.expected:
		r.expected++
		r.release()
		r.agent.sys.Net.Rec.Record(r.agent.sys.Net.Now(), r.flow, telemetry.EvSymbol, r.agent.host.ID, seq)
	case seq > r.expected:
		if !r.held(seq) {
			r.agent.sys.Net.Rec.Record(r.agent.sys.Net.Now(), r.flow, telemetry.EvSymbol, r.agent.host.ID, seq)
			r.hold(seq)
		}
	default:
		// Below the cumulative point: a spurious retransmission.
		r.agent.sys.Net.Rec.Record(r.agent.sys.Net.Now(), r.flow, telemetry.EvDup, r.agent.host.ID, seq)
	}
	// Exact per-packet CE echo: we acknowledge every segment, so the
	// sender sees precisely which arrivals were marked (stronger than
	// RFC 3168's sticky ECE, matching DCTCP's intent).
	ack := r.agent.sys.Net.AllocPacket()
	ack.Flow = r.flow
	ack.Kind = netsim.KindAck
	ack.Size = netsim.HeaderSize
	ack.Src = r.agent.host.ID
	ack.Dst = r.peer
	ack.Group = -1
	ack.Seq = r.expected
	ack.ECNEcho = pkt.ECNMarked
	r.agent.host.Send(ack)
}

// tcpSender implements NewReno.
type tcpSender struct {
	sys    *System
	flow   int32
	src    int
	dst    int
	bytes  int64
	total  int64 // segments
	onDone func(FlowResult)
	start  sim.Time

	nextSeq  int64 // next new segment
	highAck  int64 // cumulative ack point
	cwnd     float64
	ssthresh float64
	dupAcks  int

	inRecovery bool
	recover    int64

	srtt, rttvar sim.Time
	backoff      int
	rtoTimer     sim.Timer
	rtoArmed     bool
	sent         sentTable
	// rtoFn is s.onRTO bound once: armRTO runs per ACK, and evaluating
	// the method value there would allocate a closure each time.
	rtoFn func()

	// DCTCP state: smoothed mark fraction and per-window accounting.
	alpha       float64
	ackedInWin  int64
	markedInWin int64
	winEnd      int64

	retransmits int64
	timeouts    int64
	done        bool
}

// inflight is the NewReno estimate of outstanding segments.
func (s *tcpSender) inflight() int64 { return s.nextSeq - s.highAck }

// trySend transmits new segments while the window allows.
func (s *tcpSender) trySend() {
	for !s.done && s.nextSeq < s.total && float64(s.inflight()) < s.cwnd {
		s.transmit(s.nextSeq, true)
		s.nextSeq++
	}
	if !s.done && s.inflight() > 0 {
		s.armRTO()
	}
}

func (s *tcpSender) transmit(seq int64, first bool) {
	if first {
		s.sent.first(seq, s.sys.Net.Now())
	} else {
		s.sent.clear(seq) // Karn: never time retransmitted segments
		s.retransmits++
		s.sys.Net.Rec.Record(s.sys.Net.Now(), s.flow, telemetry.EvRetransmit, s.sys.Agents[s.src].host.ID, seq)
	}
	seg := s.sys.Net.AllocPacket()
	seg.Flow = s.flow
	seg.Kind = netsim.KindData
	seg.Size = netsim.DataSize
	seg.Src = s.sys.Agents[s.src].host.ID
	seg.Dst = s.sys.Agents[s.dst].host.ID
	seg.Group = -1
	seg.Seq = seq
	seg.ECNCapable = s.sys.Cfg.DCTCP
	s.sys.Agents[s.src].host.Send(seg)
}

// rto returns the current retransmission timeout with backoff.
func (s *tcpSender) rto() sim.Time {
	base := s.srtt + 4*s.rttvar
	if base < s.sys.Cfg.RTOMin {
		base = s.sys.Cfg.RTOMin
	}
	return base << uint(s.backoff)
}

func (s *tcpSender) armRTO() {
	if s.rtoArmed {
		s.rtoTimer.Cancel()
	}
	s.rtoArmed = true
	s.rtoTimer = s.sys.Net.Eng.After(s.rto(), s.rtoFn)
}

func (s *tcpSender) disarmRTO() {
	if s.rtoArmed {
		s.rtoTimer.Cancel()
		s.rtoArmed = false
	}
}

func (s *tcpSender) onRTO() {
	if s.done {
		return
	}
	s.timeouts++
	s.ssthresh = maxf(float64(s.inflight())/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inRecovery = false
	s.nextSeq = s.highAck // go-back-N from the ack point
	if s.backoff < s.sys.Cfg.MaxBackoff {
		s.backoff++
	}
	now := s.sys.Net.Now()
	host := s.sys.Agents[s.src].host.ID
	s.sys.Net.Rec.Record(now, s.flow, telemetry.EvTimeout, host, int64(s.backoff))
	s.sys.Net.Rec.Record(now, s.flow, telemetry.EvCwnd, host, int64(s.cwnd*1000))
	s.trySend()
}

// sentTable holds the first-transmission time of every segment still
// to be timed (Karn), indexed by segment number.
type sentTable struct {
	at  []sim.Time // unsent where there is nothing to time
	low int64      // every entry below low is unsent
}

const unsent sim.Time = -1

func newSentTable(segs int64) sentTable {
	t := sentTable{at: make([]sim.Time, segs)}
	for i := range t.at {
		t.at[i] = unsent
	}
	return t
}

// first records a first transmission of seq. After an RTO's go-back-N a
// late ACK can leave nextSeq below the ACK point, and trySend then sends
// from there as first transmissions, so seq may be below low.
func (t *sentTable) first(seq int64, now sim.Time) {
	t.at[seq] = now
	t.low = min(t.low, seq)
}

func (t *sentTable) clear(seq int64) { t.at[seq] = unsent }

// take clears every entry below ack and returns the earliest segment's
// time among them, unsent if there is none — one sample per ACK, whatever
// it covers.
func (t *sentTable) take(ack int64) sim.Time {
	at := unsent
	for seq := t.low; seq < ack; seq++ {
		if t.at[seq] != unsent {
			if at == unsent {
				at = t.at[seq]
			}
			t.at[seq] = unsent
		}
	}
	t.low = max(t.low, ack)
	return at
}

func (s *tcpSender) sampleRTT(ack int64, now sim.Time) {
	at := s.sent.take(ack)
	if at == unsent {
		return
	}
	rtt := now - at
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		delta := s.srtt - rtt
		if delta < 0 {
			delta = -delta
		}
		s.rttvar = (3*s.rttvar + delta) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
}

func (s *tcpSender) onAck(ack int64, ecnEcho bool) {
	if s.done {
		return
	}
	if ack > s.highAck {
		newly := ack - s.highAck
		s.highAck = ack
		s.dupAcks = 0
		s.backoff = 0
		s.sampleRTT(ack, s.sys.Net.Now())
		if s.sys.Cfg.DCTCP {
			s.dctcpOnAck(newly, ecnEcho)
		}
		if s.inRecovery {
			if ack >= s.recover {
				// Full recovery: deflate to ssthresh.
				s.inRecovery = false
				s.cwnd = s.ssthresh
				s.sys.Net.Rec.Record(s.sys.Net.Now(), s.flow, telemetry.EvCwnd,
					s.sys.Agents[s.src].host.ID, int64(s.cwnd*1000))
			} else {
				// Partial ack (NewReno): retransmit the next hole,
				// deflate by the amount acked, allow one new segment.
				s.transmit(s.highAck, false)
				s.cwnd = maxf(s.cwnd-float64(newly)+1, 1)
			}
		} else if s.cwnd < s.ssthresh {
			s.cwnd += float64(newly) // slow start
		} else {
			s.cwnd += float64(newly) / s.cwnd // congestion avoidance
		}
		if s.highAck >= s.total {
			s.finish()
			return
		}
		s.armRTO()
		s.trySend()
		return
	}
	// Duplicate ack.
	s.dupAcks++
	if s.inRecovery {
		s.cwnd++ // inflation
	} else if s.dupAcks == 3 {
		s.ssthresh = maxf(float64(s.inflight())/2, 2)
		s.cwnd = s.ssthresh + 3
		s.inRecovery = true
		s.recover = s.nextSeq
		s.sys.Net.Rec.Record(s.sys.Net.Now(), s.flow, telemetry.EvCwnd,
			s.sys.Agents[s.src].host.ID, int64(s.cwnd*1000))
		s.transmit(s.highAck, false) // fast retransmit
	}
	s.trySend()
}

// dctcpOnAck maintains the smoothed mark fraction alpha and applies
// the proportional once-per-window reduction cwnd *= 1 - alpha/2
// (Alizadeh et al. §3.3). Growth between reductions is standard slow
// start / congestion avoidance, handled by the caller.
func (s *tcpSender) dctcpOnAck(newly int64, ecnEcho bool) {
	s.ackedInWin += newly
	if ecnEcho {
		s.markedInWin += newly
	}
	if s.highAck < s.winEnd {
		return
	}
	// One observation window (~RTT of data) has been acknowledged.
	if s.ackedInWin > 0 {
		f := float64(s.markedInWin) / float64(s.ackedInWin)
		g := s.sys.Cfg.DCTCPGain
		s.alpha = (1-g)*s.alpha + g*f
		if s.markedInWin > 0 {
			s.cwnd = maxf(s.cwnd*(1-s.alpha/2), 1)
			// Marks end slow start like a conventional congestion
			// signal would.
			s.ssthresh = s.cwnd
		}
	}
	s.ackedInWin, s.markedInWin = 0, 0
	s.winEnd = s.nextSeq
}

func (s *tcpSender) finish() {
	s.done = true
	s.disarmRTO()
	s.sys.Net.Rec.CloseFlow(s.sys.Net.Now(), s.flow, s.sys.Agents[s.dst].host.ID)
	s.sys.flows[s.flow] = flowSlot{}
	s.sys.open--
	if s.onDone != nil {
		s.onDone(FlowResult{
			Flow:        s.flow,
			Src:         s.src,
			Dst:         s.dst,
			Bytes:       s.bytes,
			Start:       s.start,
			End:         s.sys.Net.Now(),
			Retransmits: s.retransmits,
			Timeouts:    s.timeouts,
		})
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
