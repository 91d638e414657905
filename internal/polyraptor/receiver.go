package polyraptor

import (
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/sim"
	"polyraptor/internal/telemetry"
)

// doneRetryFallback paces completion-ctrl retransmission when the
// stall guard (Config.PullTimeout) is disabled.
const doneRetryFallback = 2 * time.Millisecond

// receiverSession is the receiving half of a Polyraptor session at one
// host. It counts distinct full symbols, issues one pull per arrival
// through the host's shared pacer, and completes once enough symbols
// for a successful decode (K + sampled overhead) have arrived.
type receiverSession struct {
	sys      *System
	flow     int32
	receiver int
	bytes    int64
	k        int
	need     int
	senders  []int
	onDone   func(CompletionEvent)

	start       sim.Time
	distinct    int
	trims       int
	lastArrival sim.Time
	done        bool
	detached    bool
	// guardRR rotates the stall guard's round-robin start across
	// firings so every sender eventually receives re-primed pulls
	// even when the burst is clamped below the sender count.
	guardRR int

	// seen tracks distinct ESIs; allocated only when duplicates are
	// possible (RandomESI ablation), since the partitioning scheme
	// makes duplicates structurally impossible.
	seen map[int64]struct{}

	timeout sim.Timer

	// pendingDone holds the sender hosts that have not yet acknowledged
	// our completion ctrl. The ctrl is a single unreliable packet; were
	// it simply fired and forgotten, a trimmed-queue drop would leave a
	// multicast sender waiting on this receiver's pulls forever (its
	// round can never complete), so complete() retransmits the ctrl on
	// a timer until every sender has acked and only then tears the
	// session down.
	pendingDone map[int32]struct{}
	doneRetry   sim.Timer
}

// onData processes an arriving symbol packet (full or trimmed).
func (rs *receiverSession) onData(pkt *netsim.Packet) {
	if rs.done {
		return
	}
	if rs.detached && pkt.Group >= 0 {
		// We left the multicast group; in-flight copies delivered
		// before the tree prune took effect are ignored (the private
		// unicast tail is our only feed now).
		return
	}
	rs.lastArrival = rs.sys.Net.Now()
	if pkt.Trimmed {
		// The payload was cut by a congested queue. Never re-request:
		// just pull the next fresh symbol (rateless recovery).
		rs.trims++
		rs.sys.Net.Rec.Record(rs.lastArrival, rs.flow, telemetry.EvTrim, int32(rs.receiver), pkt.Seq)
		rs.pullFrom(pkt)
		return
	}
	if rs.seen != nil {
		if _, dup := rs.seen[pkt.Seq]; dup {
			// Duplicate (possible only in the RandomESI ablation):
			// wasted capacity, still pull replacement.
			rs.sys.Net.Rec.Record(rs.lastArrival, rs.flow, telemetry.EvDup, int32(rs.receiver), pkt.Seq)
			rs.pullFrom(pkt)
			return
		}
		rs.seen[pkt.Seq] = struct{}{}
	}
	rs.distinct++
	rs.sys.Net.Rec.Record(rs.lastArrival, rs.flow, telemetry.EvSymbol, int32(rs.receiver), pkt.Seq)
	if rs.distinct >= rs.need {
		rs.complete()
		return
	}
	rs.pullFrom(pkt)
}

// pullFrom enqueues one pull credit addressed to the sender of the
// packet that just arrived. Arrival-clocking the pull target is the
// paper's "natural load balancing": a sender on a congested path
// delivers fewer symbols, hence receives fewer pulls, contributing
// exactly its available capacity.
func (rs *receiverSession) pullFrom(pkt *netsim.Packet) {
	dst := pkt.Src
	rs.sys.Agents[rs.receiver].enqueuePull(rs.flow, dst)
}

// armTimeout schedules the stall guard.
func (rs *receiverSession) armTimeout() {
	d := rs.sys.Cfg.PullTimeout
	if d <= 0 {
		return
	}
	rs.lastArrival = rs.sys.Net.Now()
	var fire func()
	fire = func() {
		if rs.done {
			return
		}
		now := rs.sys.Net.Now()
		if now-rs.lastArrival >= d {
			// Session stalled: every in-flight pull or symbol was
			// dropped. Re-prime up to a full window of pulls, sized by
			// the known symbol deficit and spread round-robin across
			// senders. The deficit-aware burst is what lets a session
			// ride through a path blackhole (chaos runs): with fraction
			// f of sprayed packets blackholed, a single re-primed pull
			// chain dies after ~1/f symbols, while a window of W
			// independent chains sustains ~W(1-f)² arrivals per
			// timeout. Over-pulling is harmless — every elicited symbol
			// is fresh (rateless), so the only cost is capacity the
			// stalled session wasn't using anyway. lastArrival is
			// deliberately NOT updated here — only a data arrival
			// (onData) moves it — so if the re-primed pulls or their
			// symbols are lost too, now-lastArrival still exceeds d at
			// the next firing and the guard keeps re-firing every d
			// until a symbol actually lands. Pinned by
			// TestStallGuardRefiresEveryPullTimeout.
			deficit := rs.need - rs.distinct
			if deficit < len(rs.senders) {
				deficit = len(rs.senders)
			}
			if w := rs.sys.Cfg.InitWindow; deficit > w {
				deficit = w
			}
			// Rotate the round-robin start across firings: with more
			// senders than the clamped burst, a fixed start would
			// starve the senders past the window forever (fatal when
			// the early senders are the unreachable ones).
			rs.sys.Net.Rec.Record(now, rs.flow, telemetry.EvStall, int32(rs.receiver), int64(deficit))
			rs.sys.StallHist.Record((now - rs.lastArrival).Seconds())
			start := rs.guardRR
			for i := 0; i < deficit; i++ {
				s := rs.senders[(start+i)%len(rs.senders)]
				rs.sys.Agents[rs.receiver].enqueuePull(rs.flow, rs.sys.Agents[s].host.ID)
			}
			rs.guardRR = (start + deficit) % len(rs.senders)
		}
		rs.timeout = rs.sys.Net.Eng.After(d, fire)
	}
	rs.timeout = rs.sys.Net.Eng.After(d, fire)
}

// complete finishes the session at this receiver: it notifies every
// sender with a control packet (freeing multicast aggregation from
// waiting on us) and reports the completion event. The ctrl is
// retransmitted until each sender acknowledges it (see pendingDone);
// the session object itself is released by onDoneAck once the last
// ack arrives, so the agent map holds no finished sessions at rest.
func (rs *receiverSession) complete() {
	rs.done = true
	rs.timeout.Cancel()
	end := rs.sys.Net.Now()
	if dl := rs.sys.Cfg.DecodeLatency; dl != nil {
		end += dl(rs.k)
	}
	rs.pendingDone = make(map[int32]struct{}, len(rs.senders))
	for _, s := range rs.senders {
		rs.pendingDone[rs.sys.Agents[s].host.ID] = struct{}{}
	}
	rs.sys.Net.Rec.CloseFlow(end, rs.flow, int32(rs.receiver))
	rs.sendDoneCtrl()
	rs.armDoneRetry()
	if rs.onDone != nil {
		ev := CompletionEvent{
			Flow:     rs.flow,
			Receiver: rs.receiver,
			Start:    rs.start,
			End:      end,
			Bytes:    rs.bytes,
			Symbols:  rs.distinct,
			Trims:    rs.trims,
			Detached: rs.detached,
		}
		rs.onDone(ev)
	}
}

// sendDoneCtrl sends one completion ctrl to every sender that has not
// acked yet. Iteration follows the senders slice (not the pending map)
// so packet emission order is deterministic per seed.
func (rs *receiverSession) sendDoneCtrl() {
	for _, s := range rs.senders {
		dst := rs.sys.Agents[s].host.ID
		if _, waiting := rs.pendingDone[dst]; !waiting {
			continue
		}
		rs.sys.Net.Rec.Record(rs.sys.Net.Now(), rs.flow, telemetry.EvCtrl, int32(rs.receiver), int64(dst))
		ctrl := rs.sys.Net.AllocPacket()
		ctrl.Flow = rs.flow
		ctrl.Kind = netsim.KindCtrl
		ctrl.Size = netsim.HeaderSize
		ctrl.Src = int32(rs.receiver)
		ctrl.Dst = dst
		ctrl.Group = -1
		ctrl.Spray = true
		rs.sys.Agents[rs.receiver].host.Send(ctrl)
	}
}

// armDoneRetry schedules the next ctrl retransmission. The cadence
// reuses PullTimeout (the stall guard's clock); with the guard
// disabled a fixed fallback keeps the handshake live — an unacked
// completion must never be able to wedge the group.
func (rs *receiverSession) armDoneRetry() {
	d := rs.sys.Cfg.PullTimeout
	if d <= 0 {
		d = doneRetryFallback
	}
	rs.doneRetry = rs.sys.Net.Eng.After(d, func() {
		if len(rs.pendingDone) == 0 {
			return
		}
		rs.sendDoneCtrl()
		rs.armDoneRetry()
	})
}

// onDoneAck records one sender's acknowledgement of our completion
// ctrl. Once every sender has acked, the session is removed from the
// agent — the other half of the lifecycle contract asserted by
// System.OpenSessions.
func (rs *receiverSession) onDoneAck(from int32) {
	if !rs.done {
		return // stray ack for a live session; ignore
	}
	if _, waiting := rs.pendingDone[from]; !waiting {
		return // duplicate ack (our retransmit crossed their ack)
	}
	rs.sys.Net.Rec.Record(rs.sys.Net.Now(), rs.flow, telemetry.EvCtrlAck, int32(rs.receiver), int64(from))
	delete(rs.pendingDone, from)
	if len(rs.pendingDone) == 0 {
		rs.doneRetry.Cancel()
		rs.sys.Agents[rs.receiver].flows.dropReceiver(rs.flow)
	}
}
