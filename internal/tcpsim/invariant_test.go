package tcpsim

import (
	"testing"

	"polyraptor/internal/netsim"
	"polyraptor/internal/sim"
	"polyraptor/internal/topology"
)

// TestSequenceInvariantUnderLoss runs several flows through one
// bottleneck while the switch drops data segments at random, under the
// standard and the DCTCP stack, and checks after every event that each
// live sender holds highAck <= nextSeq and that the event sent no first
// transmission below the ACK point. The run must see ACKs land above
// nextSeq (late ACKs after an RTO's go-back-N), or it checked nothing.
func TestSequenceInvariantUnderLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ecn  int
	}{
		{"tcp", DefaultConfig(), 0},
		{"dctcp", DCTCPConfig(), 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const flows = 6
			cfg := netsim.DefaultConfig()
			cfg.Trimming = false
			cfg.DropTailCap = 24
			cfg.ECNThreshold = tc.ecn
			st := topology.NewStar(flows+1, cfg)
			sys := NewSystem(st.Net, tc.cfg)
			rng := sim.RNG(50, "tcpsim-invariant")
			route := st.SW.Route
			st.SW.Route = func(pkt *netsim.Packet) []int {
				if pkt.Kind == netsim.KindData && rng.Intn(30) == 0 {
					return nil
				}
				return route(pkt)
			}
			done := 0
			for s := 1; s <= flows; s++ {
				sys.StartFlow(s, 0, 512<<10, func(FlowResult) { done++ })
			}
			var next, high [flows]int64
			lateAcks := 0
			for {
				for f, slot := range sys.flows {
					if slot.snd != nil {
						next[f], high[f] = slot.snd.nextSeq, slot.snd.highAck
					}
				}
				if !st.Net.Eng.Step() {
					break
				}
				for f, slot := range sys.flows {
					s := slot.snd
					if s == nil {
						continue
					}
					if s.highAck > s.nextSeq {
						t.Fatalf("flow %d at %v: highAck %d above nextSeq %d", f, st.Net.Now(), s.highAck, s.nextSeq)
					}
					if s.highAck > next[f] {
						lateAcks++
					}
					if n := firstSendsBelowAck(s, next[f], high[f]); n != 0 {
						t.Fatalf("flow %d at %v: %d first transmissions below the ACK point %d", f, st.Net.Now(), n, s.highAck)
					}
				}
			}
			if done != flows {
				t.Fatalf("%d of %d flows completed", done, flows)
			}
			if lateAcks == 0 {
				t.Fatal("no ACK landed above nextSeq: the run never exercised the late-ACK case")
			}
			t.Logf("%d late ACKs", lateAcks)
			assertAtRest(t, sys)
		})
	}
}
