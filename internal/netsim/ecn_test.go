package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

// switchPort returns the switch egress port that twoHosts' Connect
// built facing host B, with its queue discipline as cfg configures it.
func switchPort(cfg Config) *Port {
	_, _, _, sw := twoHosts(cfg)
	return sw.Ports[1]
}

// ecnPort is switchPort on drop-tail switches that mark at markK.
func ecnPort(capacity, markK int) *Port {
	cfg := DefaultConfig()
	cfg.Trimming = false
	cfg.DropTailCap = capacity
	cfg.ECNThreshold = markK
	return switchPort(cfg)
}

func TestECNMarkingThreshold(t *testing.T) {
	q := ecnPort(10, 3)
	// First three packets enqueue below the threshold: no marks.
	for i := 0; i < 3; i++ {
		p := &Packet{Kind: KindData, Size: DataSize, ECNCapable: true}
		if !q.enqueue(p) || p.ECNMarked {
			t.Fatalf("packet %d marked below threshold", i)
		}
	}
	// Subsequent packets see occupancy >= 3: marked.
	p := &Packet{Kind: KindData, Size: DataSize, ECNCapable: true}
	q.enqueue(p)
	if !p.ECNMarked {
		t.Fatal("packet at threshold not marked")
	}
	if q.QueueStats().Marked != 1 {
		t.Fatalf("Marked = %d", q.QueueStats().Marked)
	}
}

func TestECNIgnoresNonCapable(t *testing.T) {
	q := ecnPort(10, 1)
	q.enqueue(&Packet{Kind: KindData, Size: DataSize})
	p := &Packet{Kind: KindData, Size: DataSize} // not ECN-capable
	q.enqueue(p)
	if p.ECNMarked || q.QueueStats().Marked != 0 {
		t.Fatal("non-capable packet marked")
	}
}

func TestECNStillDropsAtCapacity(t *testing.T) {
	q := ecnPort(2, 1)
	for i := 0; i < 5; i++ {
		q.enqueue(&Packet{Kind: KindData, Size: DataSize, ECNCapable: true})
	}
	if q.QueueStats().Dropped != 3 || q.QueueLen() != 2 {
		t.Fatalf("Dropped = %d with %d queued, want 3 and 2", q.QueueStats().Dropped, q.QueueLen())
	}
}

func TestPlainDropTailNeverMarks(t *testing.T) {
	q := ecnPort(2, 0)
	p := &Packet{Kind: KindData, Size: DataSize, ECNCapable: true}
	q.enqueue(&Packet{Kind: KindData, Size: DataSize, ECNCapable: true})
	q.enqueue(p)
	if p.ECNMarked {
		t.Fatal("plain drop-tail marked a packet")
	}
}

// A host NIC is drop-tail at HostQueueCap whatever the switches do: it
// neither trims nor marks.
func TestHostNICIsPlainDropTail(t *testing.T) {
	for _, trimming := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Trimming = trimming
		cfg.ECNThreshold = 1
		cfg.HostQueueCap = 3
		_, a, _, _ := twoHosts(cfg)
		var ps []*Packet
		for i := 0; i < 5; i++ {
			p := &Packet{Kind: KindData, Size: DataSize, ECNCapable: true}
			ps = append(ps, p)
			a.NIC.enqueue(p)
		}
		st := a.NIC.QueueStats()
		if st.Enqueued != 3 || st.Dropped != 2 || st.Trimmed != 0 || st.Marked != 0 {
			t.Fatalf("trimming=%v: NIC counted %+v, want 3 enqueued and 2 dropped", trimming, st)
		}
		for i, p := range ps {
			if p.ECNMarked || p.Trimmed {
				t.Fatalf("trimming=%v: NIC marked or trimmed packet %d", trimming, i)
			}
		}
	}
}

func TestSetRateChangesSerialization(t *testing.T) {
	cfg := DefaultConfig()
	n, a, b, sw := twoHosts(cfg)
	var at time.Duration
	b.Deliver = func(p *Packet) { at = n.Now() }
	// Degrade the switch->b port to 100 Mbps: its serialization grows
	// from 12 µs to 120 µs; total = host ser 12 + sw ser 120 + 2x10 prop.
	sw.Ports[1].SetRate(1e8)
	if sw.Ports[1].Rate() != 1e8 {
		t.Fatal("Rate not updated")
	}
	a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1})
	n.Eng.Run()
	want := 12*time.Microsecond + 120*time.Microsecond + 20*time.Microsecond
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestSetRateRejectsNonPositive(t *testing.T) {
	cfg := DefaultConfig()
	_, _, _, sw := twoHosts(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRate(0) did not panic")
		}
	}()
	sw.Ports[0].SetRate(0)
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindData: "data", KindPull: "pull", KindAck: "ack", KindCtrl: "ctrl",
		Kind(99): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestPortCounters(t *testing.T) {
	cfg := DefaultConfig()
	n, a, b, sw := twoHosts(cfg)
	b.Deliver = func(p *Packet) {}
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Kind: KindData, Size: DataSize, Src: 0, Dst: 1, Group: -1})
	}
	n.Eng.Run()
	out := sw.Ports[1]
	if out.TxPackets != 5 || out.TxBytes != 5*DataSize {
		t.Fatalf("port counters: %d pkts / %d bytes", out.TxPackets, out.TxBytes)
	}
}

func TestTrimQueuePropertyNeverExceedsCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataQueueCap, cfg.HeaderQueueCap = 4, 6
	f := func(ops []uint8) bool {
		q := switchPort(cfg)
		for _, op := range ops {
			if op%3 == 0 {
				q.dequeue()
				continue
			}
			pkt := &Packet{Kind: KindData, Size: DataSize}
			if op%3 == 2 {
				pkt.Kind = KindPull
				pkt.Size = HeaderSize
			}
			q.enqueue(pkt)
			if h := q.hot(); h.data.len() > 4 || h.header.len() > 6 {
				return false
			}
		}
		st := q.stats
		return st.Enqueued >= 0 && st.Dropped >= 0 && st.Trimmed >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
