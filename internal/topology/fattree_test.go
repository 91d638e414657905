package topology

import (
	"slices"
	"testing"

	"polyraptor/internal/netsim"
)

func TestFatTreeDimensions(t *testing.T) {
	for _, k := range []int{2, 4, 6, 10} {
		ft, err := NewFatTree(k, netsim.DefaultConfig())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got, want := ft.NumHosts(), k*k*k/4; got != want {
			t.Fatalf("k=%d: hosts=%d, want %d", k, got, want)
		}
		if got, want := len(ft.edges), k*k/2; got != want {
			t.Fatalf("k=%d: edges=%d, want %d", k, got, want)
		}
		if got, want := len(ft.aggs), k*k/2; got != want {
			t.Fatalf("k=%d: aggs=%d, want %d", k, got, want)
		}
		if got, want := len(ft.cores), k*k/4; got != want {
			t.Fatalf("k=%d: cores=%d, want %d", k, got, want)
		}
	}
}

// TestRackHelpers checks the storage-placement view of the tree:
// rack count, rack membership, and agreement with RackOf/SameRack.
func TestRackHelpers(t *testing.T) {
	for _, k := range []int{4, 6} {
		ft, err := NewFatTree(k, netsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ft.NumRacks(), k*k/2; got != want {
			t.Fatalf("k=%d: NumRacks=%d, want %d", k, got, want)
		}
		if got, want := ft.HostsPerRack(), k/2; got != want {
			t.Fatalf("k=%d: HostsPerRack=%d, want %d", k, got, want)
		}
		seen := map[int]bool{}
		for r := 0; r < ft.NumRacks(); r++ {
			hosts := ft.RackHosts(r)
			if len(hosts) != ft.HostsPerRack() {
				t.Fatalf("k=%d rack %d: %d hosts, want %d", k, r, len(hosts), ft.HostsPerRack())
			}
			for _, h := range hosts {
				if seen[h] {
					t.Fatalf("k=%d: host %d in two racks", k, h)
				}
				seen[h] = true
				if ft.RackOf(h) != r {
					t.Fatalf("k=%d: RackOf(%d)=%d, want %d", k, h, ft.RackOf(h), r)
				}
				if !ft.SameRack(h, hosts[0]) {
					t.Fatalf("k=%d: hosts %d and %d in rack %d not SameRack", k, h, hosts[0], r)
				}
			}
		}
		if len(seen) != ft.NumHosts() {
			t.Fatalf("k=%d: racks cover %d hosts, want %d", k, len(seen), ft.NumHosts())
		}
	}
}

func TestFatTree250Servers(t *testing.T) {
	// The paper's fabric: k=10 -> 250 servers.
	ft, err := NewFatTree(10, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ft.NumHosts() != 250 {
		t.Fatalf("k=10 fat-tree has %d hosts, want 250", ft.NumHosts())
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	for _, k := range []int{1, 3, 0, -2} {
		if _, err := NewFatTree(k, netsim.DefaultConfig()); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
	}
}

func TestSameRack(t *testing.T) {
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	// k=4: 2 hosts per edge. Hosts 0,1 share a rack; 2,3 the next.
	if !ft.SameRack(0, 1) {
		t.Fatal("hosts 0 and 1 must share a rack")
	}
	if ft.SameRack(1, 2) {
		t.Fatal("hosts 1 and 2 must not share a rack")
	}
	if ft.RackOf(0) != ft.RackOf(1) || ft.RackOf(0) == ft.RackOf(2) {
		t.Fatal("RackOf inconsistent with SameRack")
	}
}

func TestPodIndex(t *testing.T) {
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	// k=4: 4 hosts per pod.
	if ft.Pod(0) != 0 || ft.Pod(3) != 0 || ft.Pod(4) != 1 || ft.Pod(15) != 3 {
		t.Fatalf("Pod indices wrong: %d %d %d %d", ft.Pod(0), ft.Pod(3), ft.Pod(4), ft.Pod(15))
	}
}

// deliverOne sends a unicast packet and runs to quiescence, returning
// whether it arrived.
func deliverOne(ft *FatTree, src, dst int, spray bool) bool {
	arrived := false
	ft.Hosts[dst].Deliver = func(p *netsim.Packet) {
		if p.Src == int32(src) {
			arrived = true
		}
	}
	defer func() { ft.Hosts[dst].Deliver = nil }()
	ft.Hosts[src].Send(&netsim.Packet{
		Kind: netsim.KindData, Size: netsim.DataSize,
		Src: int32(src), Dst: int32(dst), Group: -1, Spray: spray,
	})
	ft.Net.Eng.Run()
	return true == arrived
}

func TestUnicastAllPairsSmall(t *testing.T) {
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	n := ft.NumHosts()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if !deliverOne(ft, s, d, false) {
				t.Fatalf("packet %d->%d not delivered (ECMP)", s, d)
			}
			if !deliverOne(ft, s, d, true) {
				t.Fatalf("packet %d->%d not delivered (spray)", s, d)
			}
		}
	}
}

func TestSprayUsesAllCorePaths(t *testing.T) {
	// Between hosts in different pods of a k=4 tree there are 4
	// equal-cost paths through 4 distinct cores; spraying many packets
	// must light up every core.
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	ft.Hosts[15].Deliver = func(p *netsim.Packet) {}
	for i := 0; i < 400; i++ {
		ft.Hosts[0].Send(&netsim.Packet{
			Kind: netsim.KindData, Size: netsim.HeaderSize,
			Src: 0, Dst: 15, Group: -1, Spray: true, Seq: int64(i),
		})
	}
	ft.Net.Eng.Run()
	for c, core := range ft.cores {
		crossed := int64(0)
		for _, p := range core.Ports {
			crossed += p.TxPackets
		}
		if crossed == 0 {
			t.Fatalf("core %d never used by spraying", c)
		}
	}
}

func TestPerFlowECMPPinsOnePath(t *testing.T) {
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	ft.Hosts[15].Deliver = func(p *netsim.Packet) {}
	for i := 0; i < 100; i++ {
		ft.Hosts[0].Send(&netsim.Packet{
			Flow: 77, Kind: netsim.KindData, Size: netsim.HeaderSize,
			Src: 0, Dst: 15, Group: -1, Spray: false, Seq: int64(i),
		})
	}
	ft.Net.Eng.Run()
	used := 0
	for _, core := range ft.cores {
		crossed := int64(0)
		for _, p := range core.Ports {
			crossed += p.TxPackets
		}
		if crossed > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("per-flow ECMP used %d cores, want exactly 1", used)
	}
}

func TestMulticastReachesAllReceivers(t *testing.T) {
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	// Receivers spread across: same rack (1), same pod (2), remote pods
	// (5, 10, 15).
	receivers := []int{1, 2, 5, 10, 15}
	got := map[int]int{}
	for _, r := range receivers {
		r := r
		ft.Hosts[r].Deliver = func(p *netsim.Packet) { got[r]++ }
	}
	g := ft.InstallMulticastGroup(0, receivers)
	for i := 0; i < 3; i++ {
		ft.Hosts[0].Send(&netsim.Packet{
			Kind: netsim.KindData, Size: netsim.DataSize,
			Src: 0, Group: g, Seq: int64(i),
		})
	}
	ft.Net.Eng.Run()
	for _, r := range receivers {
		if got[r] != 3 {
			t.Fatalf("receiver %d got %d/3 multicast packets", r, got[r])
		}
	}
}

func TestMulticastIsATreeNotAFlood(t *testing.T) {
	// Total link transmissions for one multicast packet must be far
	// below receivers * path-length (unicast duplication): shared tree
	// segments are traversed once.
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	receivers := []int{4, 5, 6, 7} // one remote pod, two racks
	for _, r := range receivers {
		ft.Hosts[r].Deliver = func(p *netsim.Packet) {}
	}
	g := ft.InstallMulticastGroup(0, receivers)
	ft.Hosts[0].Send(&netsim.Packet{Kind: netsim.KindData, Size: netsim.DataSize, Src: 0, Group: g})
	ft.Net.Eng.Run()
	tx := int64(0)
	for _, sw := range append(append(append([]*netsim.Switch{}, ft.edges...), ft.aggs...), ft.cores...) {
		for _, p := range sw.Ports {
			tx += p.TxPackets
		}
	}
	// Tree: edge0->agg, agg->core, core->pod1 agg, agg->2 edges,
	// 2 edges -> 4 hosts = 1+1+1+2+4 = 9 switch transmissions.
	// Multi-unicast would use 4 paths x 5 switch hops = 20.
	if tx > 12 {
		t.Fatalf("multicast used %d switch transmissions; tree should use ~9", tx)
	}
}

func TestRemoveMulticastGroup(t *testing.T) {
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	g := ft.InstallMulticastGroup(0, []int{5, 10})
	ft.RemoveMulticastGroup(g)
	for _, sw := range append(append(append([]*netsim.Switch{}, ft.edges...), ft.aggs...), ft.cores...) {
		if len(sw.Mcast[g]) != 0 {
			t.Fatalf("switch %s still has group state", sw.Name)
		}
	}
	// Sending to a removed group must not crash and not deliver.
	delivered := false
	ft.Hosts[5].Deliver = func(p *netsim.Packet) { delivered = true }
	ft.Hosts[0].Send(&netsim.Packet{Kind: netsim.KindData, Size: netsim.DataSize, Src: 0, Group: g})
	ft.Net.Eng.Run()
	if delivered {
		t.Fatal("removed group still forwards")
	}
}

func TestOversubscribe(t *testing.T) {
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	ft.Oversubscribe(4)
	half := ft.K / 2
	for _, edge := range ft.edges {
		for up := half; up < ft.K; up++ {
			if r := edge.Ports[up].Rate(); r != 1e9/4 {
				t.Fatalf("edge uplink rate %d, want %d", r, int64(1e9/4))
			}
		}
		for down := 0; down < half; down++ {
			if r := edge.Ports[down].Rate(); r != 1e9 {
				t.Fatalf("host-facing rate changed: %d", r)
			}
		}
	}
	// Reverse (agg->edge) direction degraded too.
	for _, agg := range ft.aggs {
		for down := 0; down < half; down++ {
			if r := agg.Ports[down].Rate(); r != 1e9/4 {
				t.Fatalf("agg downlink rate %d", r)
			}
		}
	}
	// Cross-pod transfer still works, just slower.
	if !deliverOne(ft, 0, 15, true) {
		t.Fatal("oversubscribed fabric lost a packet outright")
	}
}

func TestOversubscribeValidation(t *testing.T) {
	ft, _ := NewFatTree(4, netsim.DefaultConfig())
	ft.Oversubscribe(1) // no-op
	defer func() {
		if recover() == nil {
			t.Fatal("ratio 0 accepted")
		}
	}()
	ft.Oversubscribe(0)
}

func TestStarTopology(t *testing.T) {
	st := NewStar(5, netsim.DefaultConfig())
	got := 0
	st.Hosts[4].Deliver = func(p *netsim.Packet) { got++ }
	st.Hosts[0].Send(&netsim.Packet{Kind: netsim.KindData, Size: netsim.DataSize, Src: 0, Dst: 4, Group: -1})
	st.Net.Eng.Run()
	if got != 1 {
		t.Fatalf("star unicast delivered %d", got)
	}
	g := st.InstallMulticastGroup(0, []int{1, 2, 3})
	count := 0
	for _, h := range st.Hosts[1:4] {
		h.Deliver = func(p *netsim.Packet) { count++ }
	}
	st.Hosts[0].Send(&netsim.Packet{Kind: netsim.KindData, Size: netsim.DataSize, Src: 0, Group: g})
	st.Net.Eng.Run()
	if count != 3 {
		t.Fatalf("star multicast delivered %d/3", count)
	}
}

// TestRouteTablesMatchArithmetic holds the installed routes, which read
// per-host coordinate tables, to the edgeOf/Pod arithmetic they replaced:
// every switch, every destination.
func TestRouteTablesMatchArithmetic(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16} {
		ft, err := NewFatTree(k, netsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		half := k / 2
		var up []int
		for p := half; p < k; p++ {
			up = append(up, p)
		}
		check := func(sw *netsim.Switch, dst int, want []int) {
			t.Helper()
			got := sw.Route(&netsim.Packet{Dst: int32(dst)})
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d %s -> host %d: route %v, arithmetic %v", k, sw.Name, dst, got, want)
			}
		}
		for dst := range ft.Hosts {
			dp, de, dpos := ft.edgeOf(dst)
			for p := 0; p < k; p++ {
				for i := 0; i < half; i++ {
					want := up
					if dp == p && de == i {
						want = []int{dpos}
					}
					check(ft.edge(p, i), dst, want)
					want = up
					if dp == p {
						want = []int{de}
					}
					check(ft.agg(p, i), dst, want)
				}
			}
			for _, core := range ft.cores {
				check(core, dst, []int{ft.Pod(dst)})
			}
		}
	}
}
