package tcpsim

import (
	"testing"

	"polyraptor/internal/sim"
)

// mapSender is the sender's RTT bookkeeping as it was before the sent
// table: first-transmission times in a map, and a sampleRTT that visits
// every outstanding entry on every ACK. It is the reference the table is
// held to.
type mapSender struct {
	sent         map[int64]sim.Time
	srtt, rttvar sim.Time
}

func (s *mapSender) sampleRTT(ackSeq int64, now sim.Time) {
	earliest := int64(-1)
	var at sim.Time
	for seq, t := range s.sent {
		if seq < ackSeq {
			if earliest < 0 || seq < earliest {
				earliest, at = seq, t
			}
			delete(s.sent, seq)
		}
	}
	if earliest < 0 {
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

// runSentProgram drives a sentTable and the map reference through the
// same sequence of sender steps, two bytes a step: first transmissions at
// nextSeq, retransmissions, cumulative ACKs up to the highest segment ever
// sent, and RTO rewinds. After an RTO's rewind an ACK can land above
// nextSeq; as in onAck, it lifts nextSeq to the ACK point, so a first
// transmission is never below it.
func runSentProgram(t *testing.T, total int64, prog []byte) {
	t.Helper()
	tbl := &tcpSender{sent: newSentTable(total)}
	ref := &mapSender{sent: map[int64]sim.Time{}}
	var now sim.Time
	var nextSeq, maxSent int64
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%6, int64(prog[i+1])
		now += sim.Time(arg)*1000 + 1
		switch op {
		case 0, 1, 2: // first transmission
			if nextSeq >= total {
				continue
			}
			if nextSeq < tbl.highAck {
				t.Fatalf("step %d: first transmission of %d below the ACK point %d", i/2, nextSeq, tbl.highAck)
			}
			tbl.sent.first(nextSeq, now)
			ref.sent[nextSeq] = now
			nextSeq++
			maxSent = max(maxSent, nextSeq)
		case 3: // retransmission of anything sent so far
			if maxSent == 0 {
				continue
			}
			seq := arg % maxSent
			tbl.sent.clear(seq)
			delete(ref.sent, seq)
		case 4: // new cumulative ACK
			if maxSent == tbl.highAck {
				continue
			}
			ack := tbl.highAck + 1 + arg%(maxSent-tbl.highAck)
			tbl.sampleRTT(ack, now)
			tbl.highAck = ack
			nextSeq = max(nextSeq, ack)
			ref.sampleRTT(ack, now)
		case 5: // RTO: go back to the ACK point
			nextSeq = tbl.highAck
		}
		if tbl.srtt != ref.srtt || tbl.rttvar != ref.rttvar {
			t.Fatalf("step %d (op %d): table srtt/rttvar = %v/%v, map %v/%v", i/2, op, tbl.srtt, tbl.rttvar, ref.srtt, ref.rttvar)
		}
		for seq, at := range tbl.sent.at {
			want, ok := ref.sent[int64(seq)]
			if !ok {
				want = unsent
			}
			if at != want {
				t.Fatalf("step %d (op %d): segment %d timed %v in the table, %v in the map", i/2, op, seq, at, want)
			}
			if int64(seq) < tbl.highAck && at != unsent {
				t.Fatalf("step %d (op %d): segment %d is set below the ACK point %d", i/2, op, seq, tbl.highAck)
			}
		}
	}
}

func TestSentTableMatchesMap(t *testing.T) {
	rng := sim.RNG(22, "sent-table")
	for round := 0; round < 200; round++ {
		prog := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(prog)
		runSentProgram(t, int64(1+rng.Intn(300)), prog)
	}
}

func FuzzSentTable(f *testing.F) {
	// Three segments out, an RTO, a late ACK for all three (which lifts
	// nextSeq past them), four sends, then an ACK that must sample the
	// first of those.
	f.Add(uint16(40), []byte{0, 1, 0, 1, 0, 1, 5, 0, 4, 2, 0, 7, 0, 7, 0, 7, 0, 7, 4, 0})
	f.Add(uint16(1), []byte{0, 0, 4, 0})
	f.Add(uint16(300), []byte{1, 2, 3, 4, 4, 0, 5, 5, 2, 9, 4, 200})
	f.Fuzz(func(t *testing.T, total uint16, prog []byte) {
		runSentProgram(t, int64(total%512)+1, prog) // every step compares the whole table
	})
}

// TestOutOfOrderSetMatchesMap holds the receiver's rebased bit set to the
// map[int64]bool it replaced, over arrivals that reorder within a window,
// repeat, and now and then jump far ahead.
func TestOutOfOrderSetMatchesMap(t *testing.T) {
	rng := sim.RNG(23, "ooo-set")
	for round := 0; round < 50; round++ {
		r := &tcpReceiver{}
		ref := map[int64]bool{}
		expected := int64(0)
		window := int64(1 + rng.Intn(300))
		for step := 0; step < 5000; step++ {
			seq := expected + rng.Int63n(window) - window/8
			switch {
			case rng.Intn(3) == 0:
				seq = expected
			case rng.Intn(200) == 0:
				seq = expected + 10000
			}
			switch {
			case seq == expected:
				expected++
				for ref[expected] {
					delete(ref, expected)
					expected++
				}
				r.expected++
				r.release()
			case seq > expected:
				if r.held(seq) != ref[seq] {
					t.Fatalf("round %d step %d: held(%d) = %v, map says %v", round, step, seq, r.held(seq), ref[seq])
				}
				if !ref[seq] {
					ref[seq] = true
					r.hold(seq)
				}
			}
			if r.expected != expected || r.oooHeld != len(ref) {
				t.Fatalf("round %d step %d: expected %d holding %d, map %d holding %d", round, step, r.expected, r.oooHeld, expected, len(ref))
			}
		}
	}
}
