package tcpsim

import (
	"testing"

	"polyraptor/internal/netsim"
)

// TestLateAckAfterRTOSendsBelowAckPoint pins a flaw of the model that is
// known and, for now, kept (ROADMAP item 6): after an RTO's go-back-N, a
// cumulative ACK for the original flight moves highAck past nextSeq,
// inflight() goes negative, and trySend walks nextSeq up from below the
// ACK point, sending segments the receiver already has as fresh first
// transmissions (timed by Karn's rule, not counted as retransmits).
//
// The script, on two hosts: segment 0 is lost twice, as sent and as
// fast-retransmitted; 1..19 reach the receiver out of order, each
// duplicate ACK clocking out a new segment; everything from 20 up is lost
// until the ACK clock has run dry and the RTO fires. The RTO resends 0,
// the ACK for it says 20, and the sender resends 1..19.
//
// The fix is one line in onAck — nextSeq = max(nextSeq, highAck) on a new
// ACK — and moves every TCP and DCTCP figure, so it gets its own PR and
// its own table. When it lands, below must read 0.
func TestLateAckAfterRTOSendsBelowAckPoint(t *testing.T) {
	st := tcpNet(2)
	sys := NewSystem(st.Net, TunedConfig())
	const segs, held = 400, 20
	var res FlowResult
	sys.StartFlow(0, 1, segs*int64(sys.Cfg.SegPayload), func(r FlowResult) { res = r })
	snd := sys.flows[0].snd

	route := st.SW.Route
	zeroLosses := 2
	st.SW.Route = func(pkt *netsim.Packet) []int {
		if pkt.Kind == netsim.KindData && snd.timeouts == 0 {
			if pkt.Seq >= held {
				return nil
			}
			if pkt.Seq == 0 && zeroLosses > 0 {
				zeroLosses--
				return nil
			}
		}
		return route(pkt)
	}
	// trySend is the only thing that moves nextSeq up, so what an event
	// sent below the ACK point is the part of nextSeq's walk that the
	// event's own highAck had already passed.
	below := int64(0)
	for !snd.done {
		next := snd.nextSeq
		if !st.Net.Eng.Step() {
			break
		}
		if snd.highAck > next && snd.nextSeq > next {
			below += min(snd.nextSeq, snd.highAck) - next
		}
	}
	st.Net.Eng.Run()
	if res.Bytes == 0 || res.Timeouts != 1 {
		t.Fatalf("flow finished with %+v, want a completion after 1 timeout", res)
	}
	if below == 0 {
		t.Fatal("nothing was sent below the ACK point: the late-ACK behaviour is gone; update this test and ROADMAP item 6")
	}
	if below != held-1 {
		t.Fatalf("%d first transmissions below the ACK point, want %d (1..%d, resent after the ACK for %d)", below, held-1, held-1, held)
	}
	assertAtRest(t, sys)
}
