package polyraptor

import (
	"math/rand"
	"slices"

	"polyraptor/internal/netsim"
)

// senderSession is one sender's half of a Polyraptor session. A
// unicast or multi-source sender serves exactly one receiver; a
// multicast sender serves a receiver set with pull aggregation.
type senderSession struct {
	sys  *System
	flow int32
	src  int // this sender's host ID
	k    int

	// Symbol generation cursors. Source symbols [srcNext, srcEnd) are
	// sent first (systematic), then repair ESIs repairNext, +stride, …
	// Multi-source senders get disjoint source partitions and disjoint
	// repair residue classes, which guarantees duplicate-free delivery
	// without coordination.
	srcNext, srcEnd int64
	repairNext      int64
	stride          int64
	senderIdx       int32
	randESI         *rand.Rand // ablation: independent random repair ESIs

	// Unicast / multi-source target.
	dst int32

	// Multicast state.
	group     int32 // -1 for unicast
	receivers []int32
	pulls     []credit // attached receivers in host order
	doneRecv  int      // receivers that reported completion
	detached  map[int32]*detachedTail
	// emitted counts symbols sent; the straggler detector compares its
	// growth against the link's symbol rate.
	emitted int64
	// graceArmed guards the single outstanding rate-measurement timer;
	// emittedAtArm is the emission count when it was armed.
	graceArmed   bool
	emittedAtArm int64

	finished bool
}

// credit is one attached receiver's outstanding pull credits. A group
// has a handful of receivers, so a pull walks a slice, not a map.
type credit struct {
	host int32
	n    int
}

// attached returns host's index in pulls, or -1 when it is not attached.
func (ss *senderSession) attached(host int32) int {
	for i := range ss.pulls {
		if ss.pulls[i].host == host {
			return i
		}
	}
	return -1
}

// creditRange returns the fewest and most credits a receiver holds.
func (ss *senderSession) creditRange() (lo, hi int) {
	lo = int(^uint(0) >> 1)
	for _, c := range ss.pulls {
		lo, hi = min(lo, c.n), max(hi, c.n)
	}
	return lo, hi
}

// detachedTail serves a straggler receiver privately after detachment:
// every pull from it yields one fresh unicast repair symbol.
type detachedTail struct {
	served int
}

// nextESI advances the symbol cursor: source partition first, then
// repair symbols.
func (ss *senderSession) nextESI() int64 {
	if ss.srcNext < ss.srcEnd {
		esi := ss.srcNext
		ss.srcNext++
		return esi
	}
	if ss.randESI != nil {
		// Ablation A3: independent random repair ESI (collisions across
		// senders possible and wasted).
		return int64(ss.k) + int64(ss.randESI.Int63n(int64(ss.k)*8+1024))
	}
	esi := ss.repairNext
	ss.repairNext += ss.stride
	return esi
}

// sendInitialWindow blasts the first window unsolicited at line rate
// (the host NIC serializes back-to-back), covering the first RTT
// before receiver pulls take over.
func (ss *senderSession) sendInitialWindow() {
	n := ss.sys.Cfg.InitWindow
	for i := 0; i < n; i++ {
		ss.emit(ss.nextESI(), -1)
	}
}

// emit sends one symbol: multicast over the group, or unicast to a
// specific receiver (to >= 0 overrides the default destination, used
// for straggler tails).
func (ss *senderSession) emit(esi int64, to int32) {
	ss.emitted++
	pkt := ss.sys.Net.AllocPacket()
	pkt.Flow = ss.flow
	pkt.Kind = netsim.KindData
	pkt.Size = netsim.DataSize
	pkt.Src = ss.sys.Agents[ss.src].host.ID
	pkt.Group = -1
	pkt.Spray = true
	pkt.Seq = esi
	pkt.Sender = ss.senderIdx
	switch {
	case to >= 0:
		pkt.Dst = to
	case ss.group >= 0:
		pkt.Group = ss.group
	default:
		pkt.Dst = ss.dst
	}
	ss.sys.Agents[ss.src].host.Send(pkt)
}

// onPull handles one pull credit from a receiver.
func (ss *senderSession) onPull(pkt *netsim.Packet) {
	if ss.finished {
		return
	}
	if ss.group < 0 {
		// Unicast / multi-source: one pull, one fresh symbol.
		ss.emit(ss.nextESI(), -1)
		return
	}
	from := pkt.Src
	if tail, ok := ss.detached[from]; ok {
		// Straggler tail: serve privately.
		tail.served++
		ss.emit(ss.nextESI(), from)
		return
	}
	if i := ss.attached(from); i >= 0 { // else a completed receiver's stale pull
		ss.pulls[i].n++
		ss.pump()
	}
}

// pump multicasts one new symbol for every full round of pulls (one
// from each attached receiver), and applies straggler detachment when
// enabled.
func (ss *senderSession) pump() {
	for {
		if len(ss.pulls) == 0 {
			return
		}
		minP, maxP := ss.creditRange()
		if ss.sys.Cfg.StragglerDetach && len(ss.pulls) > 1 &&
			maxP-minP > ss.sys.Cfg.StragglerThreshold {
			// A deficit exists. It may be a harmless leftover of a past
			// transient (banked credits never drain under one-for-one
			// round consumption), so arm a rate measurement: only if
			// the group's emission rate over the grace window stays far
			// below link rate is someone *persistently* throttling the
			// group — then detach (see armGraceCheck).
			ss.armGraceCheck()
		}
		if minP < 1 {
			return
		}
		for i := range ss.pulls {
			ss.pulls[i].n--
		}
		ss.emit(ss.nextESI(), -1)
	}
}

// armGraceCheck measures the group's emission rate over one grace
// window. If, at expiry, a pull deficit still exists AND the group
// emitted at under half the link's symbol rate, the minimum-credit
// receivers are persistent stragglers: prune them from the tree and
// serve them over private unicast tails. A transient (burst-delayed)
// receiver passes the check because emission returns to line rate as
// soon as its queue drains.
func (ss *senderSession) armGraceCheck() {
	if ss.graceArmed {
		return
	}
	ss.graceArmed = true
	ss.emittedAtArm = ss.emitted
	ss.sys.Net.Eng.After(ss.sys.Cfg.StragglerGrace, func() {
		ss.graceArmed = false
		if ss.finished || len(ss.pulls) <= 1 {
			return
		}
		minP, maxP := ss.creditRange()
		if maxP-minP <= ss.sys.Cfg.StragglerThreshold {
			return
		}
		// Symbols a full-rate group would have emitted in the window.
		linkSymbolsPerSec := float64(ss.sys.Net.Cfg.LinkRate) / (8 * float64(netsim.DataSize))
		expected := linkSymbolsPerSec * ss.sys.Cfg.StragglerGrace.Seconds()
		if float64(ss.emitted-ss.emittedAtArm) >= expected/2 {
			return // group is healthy; deficit is historical
		}
		// Detach in receiver-ID order (pulls is kept in it): each
		// detachment draws sequential ESIs via emit, so when several
		// receivers tie at minP the emission order decides which ESI
		// serves which tail.
		kept := ss.pulls[:0]
		for _, c := range ss.pulls {
			if c.n != minP {
				kept = append(kept, c)
				continue
			}
			ss.detached[c.host] = &detachedTail{}
			ss.sys.detachReceiver(ss.flow, ss.group, c.host)
			// Honour its already-banked credits privately.
			for i := 0; i < c.n; i++ {
				ss.emit(ss.nextESI(), c.host)
			}
		}
		ss.pulls = kept
		ss.pump()
	})
}

// onReceiverDone removes a completed receiver from pull aggregation so
// the group is never throttled by a receiver that no longer pulls.
// Completion ctrls are retransmitted until acked, so duplicates are
// routine here: a receiver already absent from both pulls and detached
// has been counted and must not be counted again.
func (ss *senderSession) onReceiverDone(host int32) {
	if ss.finished {
		return
	}
	if ss.group < 0 {
		ss.finished = true
		ss.finish()
		return
	}
	if i := ss.attached(host); i >= 0 {
		ss.pulls = slices.Delete(ss.pulls, i, i+1)
	} else if _, tailed := ss.detached[host]; !tailed {
		return // duplicate ctrl from an already-counted receiver
	}
	delete(ss.detached, host)
	ss.doneRecv++
	if ss.doneRecv >= len(ss.receivers) {
		ss.finished = true
		ss.finish()
		return
	}
	// Remaining receivers may have a banked round ready.
	ss.pump()
}

// finish releases the completed session from its agent's map. Without
// this, every flow in a long run leaked a senderSession (plus its
// pulls/detached maps): onReceiverDone used to set finished and stop,
// and nothing ever deleted the entry.
func (ss *senderSession) finish() {
	delete(ss.sys.Agents[ss.src].sendSess, ss.flow)
}
