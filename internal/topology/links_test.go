package topology

import (
	"testing"

	"polyraptor/internal/netsim"
)

func mustTree(t *testing.T, k int) *FatTree {
	t.Helper()
	ft, err := NewFatTree(k, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestLinkEnumerationCounts(t *testing.T) {
	for _, k := range []int{4, 6} {
		ft := mustTree(t, k)
		want := k * k * k / 4
		if got := len(ft.CoreLinks()); got != want {
			t.Fatalf("k=%d: CoreLinks = %d, want %d", k, got, want)
		}
		if got := len(ft.AggLinks()); got != want {
			t.Fatalf("k=%d: AggLinks = %d, want %d", k, got, want)
		}
		if got := len(ft.HostLinks()); got != want {
			t.Fatalf("k=%d: HostLinks = %d, want %d", k, got, want)
		}
		if got := len(ft.CoreSwitches()); got != k*k/4 {
			t.Fatalf("k=%d: CoreSwitches = %d, want %d", k, got, k*k/4)
		}
		if got := len(ft.AggSwitches()); got != k*k/2 {
			t.Fatalf("k=%d: AggSwitches = %d, want %d", k, got, k*k/2)
		}
		if got := len(ft.EdgeSwitches()); got != k*k/2 {
			t.Fatalf("k=%d: EdgeSwitches = %d, want %d", k, got, k*k/2)
		}
	}
}

func TestLinkDirectionsAreReverses(t *testing.T) {
	ft := mustTree(t, 4)
	for _, l := range ft.CoreLinks() {
		aggOwner := l.B.Peer()
		coreOwner := l.A.Peer()
		if _, ok := coreOwner.(*netsim.Switch); !ok {
			t.Fatalf("link %s: A does not face a switch", l.Name)
		}
		if _, ok := aggOwner.(*netsim.Switch); !ok {
			t.Fatalf("link %s: B does not face a switch", l.Name)
		}
	}
	// SetUp must affect both directions.
	l := ft.CoreLinks()[0]
	l.SetUp(false)
	if l.A.Up() || l.B.Up() {
		t.Fatal("Link.SetUp(false) left a direction up")
	}
	l.SetUp(true)
	if !l.A.Up() || !l.B.Up() {
		t.Fatal("Link.SetUp(true) left a direction down")
	}
}

func TestPickLinksDeterministicExactCount(t *testing.T) {
	ft := mustTree(t, 4)
	links := ft.CoreLinks()
	a := PickLinks(links, 0.25, 7)
	b := PickLinks(links, 0.25, 7)
	if len(a) != PickCount(len(links), 0.25) {
		t.Fatalf("picked %d links, want %d", len(a), PickCount(len(links), 0.25))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("selection not deterministic: %s vs %s at %d", a[i].Name, b[i].Name, i)
		}
	}
	c := PickLinks(links, 0.25, 8)
	same := len(c) == len(a)
	if same {
		for i := range a {
			same = same && a[i].Name == c[i].Name
		}
	}
	if same {
		t.Fatal("different seeds picked identical link sets (suspicious)")
	}
	if got := len(PickLinks(links, 0, 1)); got != 0 {
		t.Fatalf("frac 0 picked %d links", got)
	}
	if got := len(PickLinks(links, 1, 1)); got != len(links) {
		t.Fatalf("frac 1 picked %d/%d links", got, len(links))
	}
}

func TestPickSwitchesDeterministic(t *testing.T) {
	ft := mustTree(t, 4)
	a := PickSwitches(ft.CoreSwitches(), 0.5, 3)
	b := PickSwitches(ft.CoreSwitches(), 0.5, 3)
	if len(a) != 2 { // (k/2)^2 = 4 cores, half of them
		t.Fatalf("picked %d switches, want 2", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("switch selection not deterministic")
		}
	}
}

// TestDegradeCoreLinksDeterministic pins the retargeted hotspot
// helper: same inputs always degrade the same links, the returned
// count is the exact seeded fraction, and both directions slow down.
func TestDegradeCoreLinksDeterministic(t *testing.T) {
	snapshot := func(seed int64) (int, []int64) {
		ft := mustTree(t, 4)
		n := ft.DegradeCoreLinks(0.25, 4, seed)
		rates := make([]int64, 0, 2*len(ft.CoreLinks()))
		for _, l := range ft.CoreLinks() {
			rates = append(rates, l.A.Rate(), l.B.Rate())
		}
		return n, rates
	}
	n1, r1 := snapshot(5)
	n2, r2 := snapshot(5)
	if n1 != n2 {
		t.Fatalf("counts differ across identical runs: %d vs %d", n1, n2)
	}
	want := PickCount(4*4*4/4, 0.25) // k=4: 16 core links -> 4
	if n1 != want {
		t.Fatalf("degraded %d links, want %d", n1, want)
	}
	degradedDirs := 0
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rate pattern differs at %d: %d vs %d", i, r1[i], r2[i])
		}
		if r1[i] == netsim.DefaultConfig().LinkRate/4 {
			degradedDirs++
		}
	}
	if degradedDirs != 2*want {
		t.Fatalf("%d degraded directions, want %d (both directions per link)", degradedDirs, 2*want)
	}
	// A different seed hits a different set.
	_, r3 := snapshot(6)
	same := true
	for i := range r1 {
		same = same && r1[i] == r3[i]
	}
	if same {
		t.Fatal("different seeds degraded identical link sets (suspicious)")
	}
}

func TestDegradeCoreLinksValidation(t *testing.T) {
	ft := mustTree(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("divisor 0 did not panic")
		}
	}()
	ft.DegradeCoreLinks(0.5, 0, 1)
}

// TestReachableFollowsRoutes applies the cut that a chaos sweep drew on
// its fourth sub-seed (SubSeed(1, 3)): every core path out of pod 1
// leaves through cores 1 and 3, every one into pod 3 through cores 0
// and 2. The routes then join no pair across pods 1 and 3, in either
// direction, although a valley through pod 0's aggregation switch
// (core-1, agg-0-0, core-0) still joins them in the graph.
func TestReachableFollowsRoutes(t *testing.T) {
	ft := mustTree(t, 4)
	n := ft.NumHosts()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && !ft.Net.Reachable(a, b) {
				t.Fatalf("healthy fabric: host %d cannot reach host %d", a, b)
			}
		}
	}
	cut := map[string]bool{
		"agg-1-0<->core-0": true, "agg-1-1<->core-2": true,
		"agg-3-0<->core-1": true, "agg-3-1<->core-3": true,
	}
	for _, l := range ft.CoreLinks() {
		if cut[l.Name] {
			l.SetUp(false)
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			pods := [2]int{ft.Pod(a), ft.Pod(b)}
			severed := pods == [2]int{1, 3} || pods == [2]int{3, 1}
			if got := ft.Net.Reachable(a, b); got == severed {
				t.Fatalf("host %d (pod %d) -> host %d (pod %d): reachable %v, want %v",
					a, pods[0], b, pods[1], got, !severed)
			}
		}
	}
	if !graphConnected(ft, 14, 6) {
		t.Fatal("the cut also severs the graph; the test no longer tells routes from links")
	}
}

// graphConnected is the search Reachable must not be: any live link,
// in any direction, whether or not a route would take it.
func graphConnected(ft *FatTree, src, dst int) bool {
	seen := map[netsim.Node]bool{}
	queue := []netsim.Node{ft.Hosts[src]}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if node == netsim.Node(ft.Hosts[dst]) {
			return true
		}
		var ports []*netsim.Port
		switch x := node.(type) {
		case *netsim.Host:
			ports = []*netsim.Port{x.NIC}
		case *netsim.Switch:
			ports = x.Ports
		}
		for _, p := range ports {
			if p.Up() && !seen[p.Peer()] {
				seen[p.Peer()] = true
				queue = append(queue, p.Peer())
			}
		}
	}
	return false
}
