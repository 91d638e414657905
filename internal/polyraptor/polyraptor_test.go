package polyraptor

import (
	"slices"
	"testing"
	"time"

	"polyraptor/internal/netsim"
	"polyraptor/internal/topology"
)

// collect returns a callback that appends completion events.
func collect(events *[]CompletionEvent) func(CompletionEvent) {
	return func(ev CompletionEvent) { *events = append(*events, ev) }
}

func TestUnicastTransferCompletes(t *testing.T) {
	st := topology.NewStar(2, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 1)
	var evs []CompletionEvent
	sys.StartUnicast(0, 1, 1<<20, collect(&evs)) // 1 MB
	drain(t, sys)
	if len(evs) != 1 {
		t.Fatalf("completions = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Receiver != 1 || ev.Bytes != 1<<20 {
		t.Fatalf("bad event: %+v", ev)
	}
	k := sys.numSymbols(1 << 20)
	if ev.Symbols < k {
		t.Fatalf("completed with %d < K=%d symbols", ev.Symbols, k)
	}
	// Uncontended 1 MB at 1 Gbps with 95.7% payload efficiency should
	// achieve > 0.8 Gbps goodput.
	if g := ev.GoodputGbps(); g < 0.8 || g > 1.0 {
		t.Fatalf("unicast goodput = %.3f Gbps, want ~0.9", g)
	}
}

func TestUnicastShortFlowLowLatency(t *testing.T) {
	// A flow within the initial window completes in about one RTT plus
	// serialization: the systematic first-RTT blast needs no pulls.
	st := topology.NewStar(2, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 1)
	var evs []CompletionEvent
	bytes := int64(4 * netsim.PayloadSize) // 4 symbols < InitWindow
	sys.StartUnicast(0, 1, bytes, collect(&evs))
	drain(t, sys)
	if len(evs) != 1 {
		t.Fatal("no completion")
	}
	d := evs[0].End - evs[0].Start
	// 4 packets x 12 µs serialization x 2 hops + 20 µs propagation,
	// plus pacing slack: anything under 150 µs proves no pull round
	// trips were needed.
	if d > 150*time.Microsecond {
		t.Fatalf("short flow took %v; initial window should cover it", d)
	}
}

func TestIncastNoCollapse(t *testing.T) {
	// The paper's headline property (Fig 1c): N synchronized senders
	// into one receiver must sustain near-line-rate aggregate goodput
	// because the shared pull queue paces all sessions jointly and
	// overload only trims.
	for _, n := range []int{4, 16, 48} {
		st := topology.NewStar(n+1, netsim.DefaultConfig())
		sys := NewSystem(st.Net, DefaultConfig(), 2)
		var evs []CompletionEvent
		per := int64(256 << 10) // 256 KB each
		for s := 1; s <= n; s++ {
			sys.StartUnicast(s, 0, per, collect(&evs))
		}
		drain(t, sys)
		if len(evs) != n {
			t.Fatalf("n=%d: %d completions", n, len(evs))
		}
		var last time.Duration
		for _, ev := range evs {
			if ev.End > last {
				last = ev.End
			}
		}
		agg := float64(per*int64(n)*8) / last.Seconds() / 1e9
		if agg < 0.75 {
			t.Fatalf("n=%d: aggregate incast goodput %.3f Gbps — collapse!", n, agg)
		}
	}
}

func TestMulticastAllReceiversComplete(t *testing.T) {
	ft, err := topology.NewFatTree(4, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(ft.Net, DefaultConfig(), 3)
	receivers := []int{5, 10, 15} // outside host 0's rack
	g := ft.InstallMulticastGroup(0, receivers)
	var evs []CompletionEvent
	sys.StartMulticast(0, receivers, g, 1<<20, collect(&evs))
	drain(t, sys)
	if len(evs) != 3 {
		t.Fatalf("completions = %d, want 3", len(evs))
	}
	for _, ev := range evs {
		if g := ev.GoodputGbps(); g < 0.6 {
			t.Fatalf("receiver %d multicast goodput %.3f Gbps too low", ev.Receiver, g)
		}
	}
}

func TestMulticastGoodputMatchesUnicast(t *testing.T) {
	// Replicating to 3 servers over multicast should cost roughly the
	// same time as a single unicast copy (the paper's Fig 1a claim),
	// because only one stream leaves the sender.
	ft, _ := topology.NewFatTree(4, netsim.DefaultConfig())
	sys := NewSystem(ft.Net, DefaultConfig(), 4)
	var uni []CompletionEvent
	sys.StartUnicast(0, 5, 1<<20, collect(&uni))
	drain(t, sys)

	ft2, _ := topology.NewFatTree(4, netsim.DefaultConfig())
	sys2 := NewSystem(ft2.Net, DefaultConfig(), 4)
	receivers := []int{5, 10, 15}
	g := ft2.InstallMulticastGroup(0, receivers)
	var mc []CompletionEvent
	sys2.StartMulticast(0, receivers, g, 1<<20, collect(&mc))
	drain(t, sys2)

	var worst time.Duration
	for _, ev := range mc {
		if d := ev.End - ev.Start; d > worst {
			worst = d
		}
	}
	uniD := uni[0].End - uni[0].Start
	if worst > uniD*3/2 {
		t.Fatalf("3-receiver multicast %v vs unicast %v: more than 50%% slower", worst, uniD)
	}
}

func TestMultiSourceCompletesAndBalances(t *testing.T) {
	st := topology.NewStar(4, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 5)
	var evs []CompletionEvent
	sys.StartMultiSource([]int{1, 2, 3}, 0, 3<<20, collect(&evs))
	drain(t, sys)
	if len(evs) != 1 {
		t.Fatalf("completions = %d", len(evs))
	}
	ev := evs[0]
	// Aggregate from 3 senders into a 1 Gbps downlink: goodput is
	// bounded by the receiver link but must be close to it.
	if g := ev.GoodputGbps(); g < 0.75 {
		t.Fatalf("multi-source goodput %.3f Gbps", g)
	}
	// All three senders must have contributed (load balancing): check
	// transmit counters.
	for s := 1; s <= 3; s++ {
		if st.Hosts[s].NIC.TxPackets == 0 {
			t.Fatalf("sender %d contributed nothing", s)
		}
	}
}

func TestMultiSourcePartitioningNoDuplicates(t *testing.T) {
	// With partitioned ESIs the receiver must never see a duplicate:
	// distinct count equals delivered full symbols.
	st := topology.NewStar(4, netsim.DefaultConfig())
	cfg := DefaultConfig()
	sys := NewSystem(st.Net, cfg, 6)
	// Shadow-track ESIs delivered to host 0.
	seen := map[int64]int{}
	base := st.Hosts[0].Deliver
	st.Hosts[0].Deliver = func(p *netsim.Packet) {
		if p.Kind == netsim.KindData && !p.Trimmed {
			seen[p.Seq]++
		}
		base(p)
	}
	var evs []CompletionEvent
	sys.StartMultiSource([]int{1, 2, 3}, 0, 2<<20, collect(&evs))
	drain(t, sys)
	if len(evs) != 1 {
		t.Fatal("no completion")
	}
	for esi, c := range seen {
		if c > 1 {
			t.Fatalf("ESI %d delivered %d times despite partitioning", esi, c)
		}
	}
}

func TestRandomESIAblationProducesDuplicates(t *testing.T) {
	// Ablation A3: independent random repair seeding must eventually
	// collide; the session still completes (duplicates are ignored).
	st := topology.NewStar(5, netsim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.RandomESI = true
	cfg.InitWindow = 1 // push most traffic through random repair ESIs
	sys := NewSystem(st.Net, cfg, 7)
	var evs []CompletionEvent
	sys.StartMultiSource([]int{1, 2, 3, 4}, 0, 512<<10, collect(&evs))
	drain(t, sys)
	if len(evs) != 1 {
		t.Fatal("random-ESI session did not complete")
	}
}

func TestPullPacingLimitsAggregateRate(t *testing.T) {
	// Even with 20 concurrent inbound sessions the receiver's data
	// arrival rate must not exceed link capacity for long: measure
	// total delivery time of 20 x 128 KB = 2.5 MB; at 1 Gbps that is
	// ~21 ms minimum. Finishing earlier would mean pacing is broken.
	n := 20
	st := topology.NewStar(n+1, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 8)
	var evs []CompletionEvent
	per := int64(128 << 10)
	for s := 1; s <= n; s++ {
		sys.StartUnicast(s, 0, per, collect(&evs))
	}
	drain(t, sys)
	var last time.Duration
	for _, ev := range evs {
		if ev.End > last {
			last = ev.End
		}
	}
	wire := float64(per*int64(n)) * float64(netsim.DataSize) / float64(netsim.PayloadSize)
	minTime := time.Duration(wire * 8)
	if last < minTime*95/100 {
		t.Fatalf("20 sessions finished in %v < line-rate floor %v: pacer exceeded capacity", last, minTime)
	}
}

func TestStragglerDetachment(t *testing.T) {
	// One multicast receiver is crushed by background incast; with
	// detachment enabled the two healthy receivers finish early and
	// the straggler is served on a private tail.
	cfg := netsim.DefaultConfig()
	st := topology.NewStar(8, cfg)
	pcfg := DefaultConfig()
	pcfg.StragglerDetach = true
	sys := NewSystem(st.Net, pcfg, 9)
	sys.PruneGroup = st.PruneMulticastLeaf

	// Background load onto receiver 3 (the straggler-to-be).
	var bg []CompletionEvent
	for s := 4; s <= 7; s++ {
		sys.StartUnicast(s, 3, 4<<20, collect(&bg))
	}
	receivers := []int{1, 2, 3}
	g := st.InstallMulticastGroup(0, receivers)
	var evs []CompletionEvent
	sys.StartMulticast(0, receivers, g, 2<<20, collect(&evs))
	drain(t, sys)
	if len(evs) != 3 {
		t.Fatalf("completions = %d, want 3", len(evs))
	}
	byRecv := map[int]CompletionEvent{}
	for _, ev := range evs {
		byRecv[ev.Receiver] = ev
	}
	if !byRecv[3].Detached {
		t.Fatal("loaded receiver was not detached")
	}
	healthy := byRecv[1].End
	if byRecv[2].End > healthy {
		healthy = byRecv[2].End
	}
	if byRecv[3].End <= healthy {
		t.Fatal("straggler somehow finished before healthy receivers")
	}
	// Healthy receivers must be much faster than the straggler's
	// background-limited pace.
	if h := byRecv[1].GoodputGbps(); h < 0.5 {
		t.Fatalf("healthy receiver goodput %.3f Gbps despite detachment", h)
	}
}

// Two multicast receivers, passed in descending host order, are crushed
// by the same background load and tie at the minimum credit when the
// grace check fires. They are detached together in ascending host
// order, so the lower host's tail draws the first ESI of each pair: the
// pinned values below.
func TestTiedStragglersDetachInHostOrder(t *testing.T) {
	st := topology.NewStar(9, netsim.DefaultConfig())
	pcfg := DefaultConfig()
	pcfg.StragglerDetach = true
	sys := NewSystem(st.Net, pcfg, 9)
	var detached []int
	var detachedAt []time.Duration
	sys.PruneGroup = func(g int32, r int) {
		detached = append(detached, r)
		detachedAt = append(detachedAt, st.Net.Now())
		st.PruneMulticastLeaf(g, r)
	}
	var bg []CompletionEvent
	for s := 5; s <= 8; s++ {
		sys.StartUnicast(s, 3+(s-5)/2, 4<<20, collect(&bg)) // 5, 6 -> 3; 7, 8 -> 4
	}
	receivers := []int{4, 3, 2, 1}
	g := st.InstallMulticastGroup(0, receivers)
	flow := int32(-1)
	tails := map[int][]int64{}
	for _, r := range receivers {
		base := st.Hosts[r].Deliver
		st.Hosts[r].Deliver = func(p *netsim.Packet) {
			if p.Flow == flow && p.Kind == netsim.KindData && p.Group < 0 && !p.Trimmed {
				tails[r] = append(tails[r], p.Seq)
			}
			base(p)
		}
	}
	var evs []CompletionEvent
	flow = sys.StartMulticast(0, receivers, g, 2<<20, collect(&evs))
	drain(t, sys)
	if len(evs) != len(receivers) {
		t.Fatalf("completions = %d, want %d", len(evs), len(receivers))
	}
	if len(detached) != 2 || detached[0] != 3 || detached[1] != 4 || detachedAt[0] != detachedAt[1] {
		t.Fatalf("detached %v at %v, want 3 then 4 in one grace check", detached, detachedAt)
	}
	for r, want := range map[int]struct {
		n     int
		sum   int64
		first []int64
	}{
		3: {1382, 3612553, []int64{130, 133, 137, 142, 147, 152}},
		4: {1382, 3614654, []int64{131, 134, 138, 143, 148, 153}},
	} {
		got := tails[r]
		sum := int64(0)
		for _, esi := range got {
			sum += esi
		}
		if len(got) != want.n || sum != want.sum || !slices.Equal(got[:len(want.first)], want.first) {
			t.Fatalf("tail %d served %d ESIs summing to %d, first %v; want %d summing to %d, first %v",
				r, len(got), sum, got[:min(len(got), len(want.first))], want.n, want.sum, want.first)
		}
	}
}

func TestWithoutDetachmentGroupIsThrottled(t *testing.T) {
	// Control for the detachment test: with detachment disabled, the
	// healthy receivers are dragged down to the straggler's pace.
	cfg := netsim.DefaultConfig()
	st := topology.NewStar(8, cfg)
	pcfg := DefaultConfig()
	pcfg.StragglerDetach = false
	sys := NewSystem(st.Net, pcfg, 9)
	var bg []CompletionEvent
	for s := 4; s <= 7; s++ {
		sys.StartUnicast(s, 3, 4<<20, collect(&bg))
	}
	receivers := []int{1, 2, 3}
	g := st.InstallMulticastGroup(0, receivers)
	var evs []CompletionEvent
	sys.StartMulticast(0, receivers, g, 2<<20, collect(&evs))
	drain(t, sys)
	byRecv := map[int]CompletionEvent{}
	for _, ev := range evs {
		byRecv[ev.Receiver] = ev
	}
	if g1 := byRecv[1].GoodputGbps(); g1 > 0.6 {
		t.Fatalf("healthy receiver reached %.3f Gbps without detachment; expected throttling by straggler", g1)
	}
}

func TestCompletionEventGoodput(t *testing.T) {
	ev := CompletionEvent{Bytes: 1e9 / 8, Start: 0, End: time.Second}
	if g := ev.GoodputGbps(); g < 0.99 || g > 1.01 {
		t.Fatalf("GoodputGbps = %v, want 1.0", g)
	}
	zero := CompletionEvent{Bytes: 100, Start: 5, End: 5}
	if zero.GoodputGbps() != 0 {
		t.Fatal("zero-duration goodput must be 0")
	}
}

func TestManySessionsSameHostPairInterleave(t *testing.T) {
	// Two concurrent sessions between the same pair must both finish
	// and share the link roughly fairly through the shared pull queue.
	st := topology.NewStar(2, netsim.DefaultConfig())
	sys := NewSystem(st.Net, DefaultConfig(), 10)
	var evs []CompletionEvent
	sys.StartUnicast(0, 1, 1<<20, collect(&evs))
	sys.StartUnicast(0, 1, 1<<20, collect(&evs))
	drain(t, sys)
	if len(evs) != 2 {
		t.Fatalf("completions = %d", len(evs))
	}
	d0 := evs[0].End - evs[0].Start
	d1 := evs[1].End - evs[1].Start
	if d0 > 2*d1 && d1 > 2*d0 {
		t.Fatalf("unfair sharing: %v vs %v", d0, d1)
	}
}
