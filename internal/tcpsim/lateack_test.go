package tcpsim

import (
	"testing"

	"polyraptor/internal/netsim"
)

// firstSendsBelowAck counts the first transmissions the event just fired
// made below the ACK point: segments that event stamped in the sent table
// (a first transmission stamps its segment with the time it was sent, a
// retransmission clears it) and that lie below highAck. An event moves
// highAck before it sends, so highAck after the event is what it was when
// the segment went out. next and high are nextSeq and highAck before the
// event: its first transmissions start at nextSeq, or at highAck after an
// RTO's rewind.
func firstSendsBelowAck(s *tcpSender, next, high int64) int64 {
	now := s.sys.Net.Now()
	n := int64(0)
	for seq := min(next, high); seq < min(s.nextSeq, s.highAck); seq++ {
		if s.sent.at[seq] == now {
			n++
		}
	}
	return n
}

// TestLateAckAfterRTOSendsNothingBelowAckPoint scripts the late ACK that
// follows an RTO's go-back-N and checks that the sender does not resend
// what the ACK covers as first transmissions.
//
// The script, on two hosts: segment 0 is lost twice, as sent and as
// fast-retransmitted; 1..19 reach the receiver out of order, each
// duplicate ACK clocking out a new segment; everything from 20 up is lost
// until the ACK clock has run dry and the RTO fires. The RTO resends 0,
// and the ACK for it says 20. A sender that left nextSeq below that ACK
// would send 1..19 again as fresh first transmissions; a new ACK lifts
// nextSeq to 20 instead.
func TestLateAckAfterRTOSendsNothingBelowAckPoint(t *testing.T) {
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
	below, lateAcks := int64(0), 0
	for !snd.done {
		next, high := snd.nextSeq, snd.highAck
		if !st.Net.Eng.Step() {
			break
		}
		if snd.highAck > next {
			lateAcks++
		}
		below += firstSendsBelowAck(snd, next, high)
	}
	st.Net.Eng.Run()
	if res.Bytes == 0 || res.Timeouts != 1 {
		t.Fatalf("flow finished with %+v, want a completion after 1 timeout", res)
	}
	if lateAcks != 1 {
		t.Fatalf("%d ACKs landed above nextSeq, want the 1 the script sets up", lateAcks)
	}
	if below != 0 {
		t.Fatalf("%d first transmissions below the ACK point, want 0 (1..%d are covered by the ACK for %d)", below, held-1, held)
	}
	assertAtRest(t, sys)
}
