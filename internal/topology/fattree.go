// Package topology builds simulated data-centre fabrics on top of
// netsim: the k-ary FatTree used throughout the paper's evaluation
// (k=10 gives the 250-server fabric of Figure 1) plus a single-switch
// star for focused protocol tests. It installs ECMP routing closures
// on every switch and constructs directed multicast trees per
// (sender, receiver-set) group, the "native support for multicasting
// in data centres" Polyraptor exploits.
package topology

import (
	"fmt"

	"polyraptor/internal/netsim"
)

// FatTree is a k-ary fat-tree: k pods of k/2 edge and k/2 aggregation
// switches, (k/2)^2 cores, and k^3/4 hosts, all with uniform link
// rate. Every inter-pod host pair has (k/2)^2 equal-cost paths.
type FatTree struct {
	K     int
	Net   *netsim.Network
	Hosts []*netsim.Host

	edges []*netsim.Switch // pod-major: pod*k/2 + edgeInPod
	aggs  []*netsim.Switch // pod-major: pod*k/2 + aggInPod
	cores []*netsim.Switch // index c connects agg c/(k/2) of each pod

	nextGroup    int32
	groupTouched map[int32][]*netsim.Switch
}

// hostCoord is where a host hangs in the tree: what edgeOf computes,
// kept per host so that the route closures index instead of dividing.
type hostCoord struct{ pod, edge, pos int32 }

// NewFatTree builds a k-ary fat-tree (k even, >= 2) over a fresh
// network with the given config.
func NewFatTree(k int, cfg netsim.Config) (*FatTree, error) {
	if err := CheckArity(k); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	ft := &FatTree{K: k, Net: netsim.New(cfg), groupTouched: map[int32][]*netsim.Switch{}}
	half := k / 2
	nPods := k
	nHosts := HostsFor(k)

	for i := 0; i < nHosts; i++ {
		ft.Hosts = append(ft.Hosts, ft.Net.AddHost())
	}
	for p := 0; p < nPods; p++ {
		for e := 0; e < half; e++ {
			ft.edges = append(ft.edges, ft.Net.AddSwitch(fmt.Sprintf("edge-%d-%d", p, e)))
		}
	}
	for p := 0; p < nPods; p++ {
		for a := 0; a < half; a++ {
			ft.aggs = append(ft.aggs, ft.Net.AddSwitch(fmt.Sprintf("agg-%d-%d", p, a)))
		}
	}
	for c := 0; c < half*half; c++ {
		ft.cores = append(ft.cores, ft.Net.AddSwitch(fmt.Sprintf("core-%d", c)))
	}

	// Wire hosts to edges: edge ports 0..half-1 are down ports in host
	// order.
	for p := 0; p < nPods; p++ {
		for e := 0; e < half; e++ {
			edge := ft.edge(p, e)
			for h := 0; h < half; h++ {
				host := ft.Hosts[p*half*half+e*half+h]
				ft.Net.Connect(host, edge)
			}
		}
	}
	// Wire edges to aggs: edge ports half..k-1 are up ports in agg
	// order; agg ports 0..half-1 are down ports in edge order.
	for p := 0; p < nPods; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				ft.Net.Connect(ft.edge(p, e), ft.agg(p, a))
			}
		}
	}
	// Wire aggs to cores: agg ports half..k-1 are up ports; core port
	// p faces pod p. Core c attaches to agg c/half in every pod.
	for p := 0; p < nPods; p++ {
		for a := 0; a < half; a++ {
			for m := 0; m < half; m++ {
				ft.Net.Connect(ft.agg(p, a), ft.cores[a*half+m])
			}
		}
	}

	ft.installRoutes()
	return ft, nil
}

func (ft *FatTree) edge(pod, e int) *netsim.Switch { return ft.edges[pod*ft.K/2+e] }
func (ft *FatTree) agg(pod, a int) *netsim.Switch  { return ft.aggs[pod*ft.K/2+a] }

// NumHosts returns k^3/4.
func (ft *FatTree) NumHosts() int { return len(ft.Hosts) }

// Pod returns the pod index of host h.
func (ft *FatTree) Pod(h int) int { return h / (ft.K * ft.K / 4) }

// edgeOf returns (pod, edgeInPod, posInEdge) for host h.
func (ft *FatTree) edgeOf(h int) (pod, e, pos int) {
	half := ft.K / 2
	pod = h / (half * half)
	e = (h % (half * half)) / half
	pos = h % half
	return pod, e, pos
}

// SameRack reports whether hosts a and b share an edge (ToR) switch.
func (ft *FatTree) SameRack(a, b int) bool {
	pa, ea, _ := ft.edgeOf(a)
	pb, eb, _ := ft.edgeOf(b)
	return pa == pb && ea == eb
}

// RackOf returns the global edge-switch index of host h, usable as a
// rack identifier.
func (ft *FatTree) RackOf(h int) int {
	pod, e, _ := ft.edgeOf(h)
	return pod*ft.K/2 + e
}

// NumRacks returns the number of racks (edge switches): k^2/2.
func (ft *FatTree) NumRacks() int { return ft.K * ft.K / 2 }

// HostsFor returns the host count of a k-ary fat-tree (k^3/4) without
// building the fabric — the one place the formula lives, so capacity
// validators cannot drift from the constructor.
func HostsFor(k int) int { return k * k * k / 4 }

// OutOfRackHosts returns how many hosts of a k-ary fat-tree sit
// outside any one rack: k^3/4 - k/2 — the eligibility bound for
// out-of-rack peer pickers, computable before the fabric is built.
func OutOfRackHosts(k int) int { return HostsFor(k) - k/2 }

// CheckArity validates a fat-tree arity without building the fabric —
// the shared up-front check behind every CLI's -k flag.
func CheckArity(k int) error {
	if k < 2 || k%2 != 0 {
		return fmt.Errorf("fat-tree arity k=%d must be even and >= 2", k)
	}
	return nil
}

// CheckFanout validates that n out-of-rack peers (noun: "senders",
// "replicas", ...) fit a k-ary fabric; out-of-rack pickers spin
// forever on an oversized fan-out, so CLIs call this before building
// anything.
func CheckFanout(k, n int, noun string) error {
	if n < 1 || n > OutOfRackHosts(k) {
		return fmt.Errorf("needs 1 <= %s <= %d out-of-rack hosts on a k=%d fabric, got %d",
			noun, OutOfRackHosts(k), k, n)
	}
	return nil
}

// HostsPerRack returns the number of hosts under each edge switch: k/2.
func (ft *FatTree) HostsPerRack() int { return ft.K / 2 }

// RackHosts returns the host IDs under edge switch `rack`, in port
// order. Storage placement and whole-rack failure injection use it.
func (ft *FatTree) RackHosts(rack int) []int {
	half := ft.K / 2
	out := make([]int, half)
	for i := range out {
		out[i] = rack*half + i
	}
	return out
}

// portTable returns [0, 1, ..., n-1]. Route closures answer a single
// downward port d as the one-element sub-slice t[d:d+1:d+1] of this
// table instead of a fresh literal per packet per hop; candidate slices
// are never mutated (netsim's liveCands copies before filtering).
func portTable(n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = i
	}
	return t
}

// installRoutes sets the unicast forwarding closures. Edge and agg
// switches return all uplinks as equal-cost candidates for non-local
// destinations, which is what per-packet spraying and per-flow ECMP
// choose among.
func (ft *FatTree) installRoutes() {
	half := ft.K / 2
	ports := portTable(ft.K)
	upPorts := ports[half:]
	at := make([]hostCoord, len(ft.Hosts))
	for h := range at {
		pod, e, pos := ft.edgeOf(h)
		at[h] = hostCoord{int32(pod), int32(e), int32(pos)}
	}
	for p := 0; p < ft.K; p++ {
		for e := 0; e < half; e++ {
			pod, eIdx := int32(p), int32(e)
			sw := ft.edge(p, e)
			sw.Route = func(pkt *netsim.Packet) []int {
				d := at[pkt.Dst]
				if d.pod == pod && d.edge == eIdx {
					return ports[d.pos : d.pos+1 : d.pos+1]
				}
				return upPorts
			}
		}
		for a := 0; a < half; a++ {
			pod := int32(p)
			sw := ft.agg(p, a)
			sw.Route = func(pkt *netsim.Packet) []int {
				d := at[pkt.Dst]
				if d.pod == pod {
					return ports[d.edge : d.edge+1 : d.edge+1]
				}
				return upPorts
			}
		}
	}
	for c := range ft.cores {
		sw := ft.cores[c]
		sw.Route = func(pkt *netsim.Packet) []int {
			pod := at[pkt.Dst].pod
			return ports[pod : pod+1 : pod+1]
		}
	}
}

// InstallMulticastGroup builds a directed multicast tree from sender
// to the receiver set and installs per-switch forwarding state. The
// tree follows the DCCast-style single-rendezvous construction: a core
// switch chosen by group hash, with early branching for receivers in
// the sender's pod or rack. It returns the group ID to stamp on
// packets.
func (ft *FatTree) InstallMulticastGroup(sender int, receivers []int) int32 {
	g := ft.nextGroup
	ft.nextGroup++
	half := ft.K / 2
	core := int(uint32(g)*2654435761>>7) % (half * half)
	aggJ := core / half // agg index carrying this core, in every pod
	coreUp := half + core%half

	add := func(sw *netsim.Switch, port int) {
		if len(sw.McastPorts(g)) == 0 {
			ft.groupTouched[g] = append(ft.groupTouched[g], sw)
		}
		sw.AddMcastPort(g, port)
	}

	sPod, sEdge, _ := ft.edgeOf(sender)
	for _, r := range receivers {
		if r == sender {
			continue
		}
		rPod, rEdge, rPos := ft.edgeOf(r)
		switch {
		case rPod == sPod && rEdge == sEdge:
			add(ft.edge(sPod, sEdge), rPos)
		case rPod == sPod:
			add(ft.edge(sPod, sEdge), half+aggJ)
			add(ft.agg(sPod, aggJ), rEdge)
			add(ft.edge(rPod, rEdge), rPos)
		default:
			add(ft.edge(sPod, sEdge), half+aggJ)
			add(ft.agg(sPod, aggJ), coreUp)
			add(ft.cores[core], rPod)
			add(ft.agg(rPod, aggJ), rEdge)
			add(ft.edge(rPod, rEdge), rPos)
		}
	}
	return g
}

// Oversubscribe models a cost-reduced fabric: every edge<->agg link
// (both directions) runs at 1/ratio of the host link rate, giving the
// common "ratio:1" oversubscription at the ToR uplink level. ratio=1
// is a no-op (full bisection bandwidth).
func (ft *FatTree) Oversubscribe(ratio int64) {
	if ratio < 1 {
		panic("topology: oversubscription ratio must be >= 1")
	}
	if ratio == 1 {
		return
	}
	half := ft.K / 2
	for _, edge := range ft.edges {
		for up := half; up < ft.K; up++ {
			p := edge.Ports[up]
			p.SetRate(p.Rate() / ratio)
			agg := p.Peer().(*netsim.Switch)
			for _, ap := range agg.Ports {
				if ap.Peer() == netsim.Node(edge) {
					ap.SetRate(ap.Rate() / ratio)
					break
				}
			}
		}
	}
}

// DegradeCoreLinks models network hotspots (the paper's "current
// work" scenario): a seeded fraction of agg<->core links in both
// directions has its rate divided by `divisor`. It returns the number
// of degraded links — exactly PickCount(len(CoreLinks()), frac), the
// same deterministic selection primitive the chaos engine uses.
// Traffic sprayed across all equal-cost paths (Polyraptor) flows
// around the hotspots; hash-pinned flows (TCP) that land on one are
// stuck with it.
func (ft *FatTree) DegradeCoreLinks(frac float64, divisor int64, seed int64) int {
	if divisor < 1 {
		panic("topology: divisor must be >= 1")
	}
	picked := PickLinks(ft.CoreLinks(), frac, seed)
	for _, l := range picked {
		l.DivideRate(divisor)
	}
	return len(picked)
}

// PruneMulticastLeaf removes one receiver's leaf port from a group's
// tree (straggler detachment). Interior tree state is left in place;
// it only carries traffic toward remaining leaves.
func (ft *FatTree) PruneMulticastLeaf(g int32, receiver int) {
	pod, e, pos := ft.edgeOf(receiver)
	ft.edge(pod, e).RemoveMcastPort(g, pos)
}

// RemoveMulticastGroup tears down a group's forwarding state.
func (ft *FatTree) RemoveMulticastGroup(g int32) {
	for _, sw := range ft.groupTouched[g] {
		sw.RemoveMcastGroup(g)
	}
	delete(ft.groupTouched, g)
}

// Star is a single-switch topology with n hosts — the minimal fabric
// for focused transport tests (incast converges on one egress port).
type Star struct {
	Net   *netsim.Network
	Hosts []*netsim.Host
	SW    *netsim.Switch

	nextGroup int32
}

// NewStar builds an n-host single-switch network.
func NewStar(n int, cfg netsim.Config) *Star {
	st := &Star{Net: netsim.New(cfg)}
	st.SW = st.Net.AddSwitch("star")
	for i := 0; i < n; i++ {
		h := st.Net.AddHost()
		st.Net.Connect(h, st.SW) // switch port i faces host i
		st.Hosts = append(st.Hosts, h)
	}
	ports := portTable(n)
	st.SW.Route = func(pkt *netsim.Packet) []int {
		if d := int(pkt.Dst); d < n {
			return ports[d : d+1 : d+1]
		}
		return nil
	}
	return st
}

// InstallMulticastGroup installs a star multicast group and returns
// its ID.
func (st *Star) InstallMulticastGroup(sender int, receivers []int) int32 {
	g := st.nextGroup
	st.nextGroup++
	var ports []int
	for _, r := range receivers {
		if r != sender {
			ports = append(ports, r)
		}
	}
	st.SW.SetMcastPorts(g, ports)
	return g
}

// PruneMulticastLeaf removes one receiver from a star group.
func (st *Star) PruneMulticastLeaf(g int32, receiver int) {
	st.SW.RemoveMcastPort(g, receiver)
}
