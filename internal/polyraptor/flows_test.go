package polyraptor

import (
	"testing"

	"polyraptor/internal/netsim"
	"polyraptor/internal/topology"
)

// A packet for a flow that an agent does not hold (never opened,
// finished, or finished with its table slot since taken by a later
// flow) is freed and ignored: no session sees it, no pull leaves, and
// nothing is outstanding once the fabric drains.
func TestStrayPacketsFreedAndIgnored(t *testing.T) {
	st := topology.NewStar(3, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 9)
	done := 0
	count := func(CompletionEvent) { done++ }
	// Flows 0..15 open and finish; flow 16 then lands in flow 0's slot
	// of both agents' 16-slot tables and stays open while strays arrive.
	for i := 0; i < 16; i++ {
		sys.StartUnicast(0, 1, 16<<10, count)
	}
	drain(t, sys)
	live := sys.StartUnicast(0, 1, 1<<20, count)
	if live != 16 || sys.Agents[1].flows.ends.Len() != 16 {
		t.Fatalf("flow %d in a %d-slot table, want flow 16 sharing flow 0's slot", live, sys.Agents[1].flows.ends.Len())
	}
	st.Net.Eng.RunFor(200e3) // mid-transfer
	rs := sys.Agents[1].flows.receiver(live)
	distinct, pulls := rs.distinct, len(sys.Agents[1].pullQ)
	for _, flow := range []int32{0, 15, 7777} { // finished, finished, never opened
		for _, kind := range []netsim.Kind{netsim.KindData, netsim.KindPull, netsim.KindCtrl, netsim.KindAck} {
			for _, to := range []int{0, 1} {
				p := sys.Net.AllocPacket()
				p.Flow, p.Kind, p.Size, p.Src, p.Dst, p.Group = flow, kind, netsim.HeaderSize, int32(2), int32(to), -1
				sys.Agents[to].deliver(p)
			}
		}
	}
	if rs.distinct != distinct || len(sys.Agents[1].pullQ) != pulls {
		t.Fatalf("a stray reached flow %d: %d symbols and %d queued pulls, want %d and %d",
			live, rs.distinct, len(sys.Agents[1].pullQ), distinct, pulls)
	}
	drain(t, sys)
	if done != 17 {
		t.Fatalf("%d completions, want 17", done)
	}
	assertNoOpenSessions(t, sys)
}

// A pull still queued when its session finishes, or queued for a flow
// the agent never held, is skipped: it takes no pacing slot and no pull
// packet leaves the host.
func TestStalePullSkipped(t *testing.T) {
	st := topology.NewStar(2, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 10)
	flow := sys.StartUnicast(0, 1, 16<<10, nil)
	drain(t, sys)
	nic := st.Hosts[1].NIC
	sent := nic.TxPackets
	a := sys.Agents[1]
	a.enqueuePull(flow, 0)
	a.enqueuePull(4242, 0)
	if a.pacing || len(a.pullQ) != 0 {
		t.Fatalf("pacer left running (%v) with %d queued pulls after skipping both", a.pacing, len(a.pullQ))
	}
	drain(t, sys)
	if nic.TxPackets != sent {
		t.Fatalf("host sent %d packets for stale pulls", nic.TxPackets-sent)
	}
	assertNoOpenSessions(t, sys)
}
