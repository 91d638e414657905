package store

import (
	"fmt"
	"strings"

	"polyraptor/internal/netsim"
	"polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/tcpsim"
)

// BackendKind selects the transport under the store.
type BackendKind int

const (
	// BackendPolyraptor maps PUTs to one-to-many multicast and GETs to
	// many-to-one multi-source fetches over NDP trimming switches.
	BackendPolyraptor BackendKind = iota
	// BackendTCP is the paper's baseline: PUTs multi-unicast R full
	// copies, GETs fetch uncoordinated 1/R shares, over drop-tail.
	BackendTCP
	// BackendDCTCP is BackendTCP with DCTCP congestion control and
	// ECN-marking switches.
	BackendDCTCP
)

// String returns the CLI/report name of the backend.
func (k BackendKind) String() string {
	switch k {
	case BackendPolyraptor:
		return "polyraptor"
	case BackendTCP:
		return "tcp"
	case BackendDCTCP:
		return "dctcp"
	}
	return "unknown"
}

// ParseBackend maps a CLI name to a BackendKind.
func ParseBackend(name string) (BackendKind, bool) {
	switch name {
	case "polyraptor", "rq":
		return BackendPolyraptor, true
	case "tcp":
		return BackendTCP, true
	case "dctcp":
		return BackendDCTCP, true
	}
	return 0, false
}

// ParseBackends expands a CLI backend list ("all" or a comma list of
// ParseBackend names) — the shared implementation behind every
// -backend/-backends flag.
func ParseBackends(arg string) ([]BackendKind, error) {
	if arg == "all" {
		return []BackendKind{BackendPolyraptor, BackendTCP, BackendDCTCP}, nil
	}
	var out []BackendKind
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		kind, ok := ParseBackend(name)
		if !ok {
			return nil, fmt.Errorf("unknown backend %q", name)
		}
		out = append(out, kind)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backends selected")
	}
	return out, nil
}

// NetConfig returns the switch configuration each backend assumes:
// trimming for Polyraptor, plain drop-tail for TCP, ECN-marking
// drop-tail for DCTCP.
func (k BackendKind) NetConfig(seed int64) netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.Seed = seed
	switch k {
	case BackendTCP:
		cfg.Trimming = false
	case BackendDCTCP:
		cfg.Trimming = false
		cfg.ECNThreshold = 20
	}
	return cfg
}

// GroupFabric is the multicast surface the adapter needs from a
// fabric — the part topology.FatTree and topology.Star share.
type GroupFabric interface {
	InstallMulticastGroup(sender int, receivers []int) int32
	PruneMulticastLeaf(g int32, receiver int)
}

// Completion reports one finished flow (TCP/DCTCP) or receiver session
// (Polyraptor) of a pattern call.
type Completion struct {
	// Bytes is what this flow or receiver moved: the whole object,
	// except for a TCP multi-source share.
	Bytes      int64
	Start, End sim.Time
	// Left counts the call's flows still outstanding; 0 marks the
	// whole transfer complete (completions arrive in time order, so
	// that one's End is the transfer's).
	Left int
	// RQ or TCP is the transport's raw event, for per-flow reporting;
	// the other is zero.
	RQ  polyraptor.CompletionEvent
	TCP tcpsim.FlowResult
}

// Transport is the one adapter between the paper's transfer patterns
// and the transports under test: Polyraptor runs each pattern
// natively, TCP and DCTCP emulate it the way the paper's baseline does
// (multi-unicast replication, uncoordinated 1/R partial fetches, one
// flow per shuffle pair). Every pattern call takes an optional each
// callback that fires once per finished flow or receiver.
type Transport struct {
	// RQ is the Polyraptor system (nil on the TCP backends), exposed
	// for instrumentation such as System.StallHist.
	RQ *polyraptor.System

	tcp    *tcpsim.System
	net    *netsim.Network
	fabric GroupFabric
}

// NewTransport attaches the backend's transport to every host of net.
// fabric installs multicast groups (and prunes detached stragglers);
// rq, when non-nil, overrides polyraptor.DefaultConfig — the ablation
// and straggler-detachment hook.
func NewTransport(kind BackendKind, net *netsim.Network, fabric GroupFabric, seed int64, rq *polyraptor.Config) (*Transport, error) {
	t := &Transport{net: net, fabric: fabric}
	switch kind {
	case BackendPolyraptor:
		cfg := polyraptor.DefaultConfig()
		if rq != nil {
			cfg = *rq
		}
		t.RQ = polyraptor.NewSystem(net, cfg, seed)
		if fabric != nil {
			t.RQ.PruneGroup = fabric.PruneMulticastLeaf
		}
	case BackendTCP:
		t.tcp = tcpsim.NewSystem(net, tcpsim.DefaultConfig())
	case BackendDCTCP:
		t.tcp = tcpsim.NewSystem(net, tcpsim.DCTCPConfig())
	default:
		return nil, fmt.Errorf("store: unknown backend kind %d", int(kind))
	}
	return t, nil
}

// rqEach and tcpEach adapt each to the transport's callback for a call
// of n flows. A nil each stays nil: nobody is waiting.
func rqEach(n int, each func(Completion)) func(polyraptor.CompletionEvent) {
	if each == nil {
		return nil
	}
	return func(ev polyraptor.CompletionEvent) {
		n--
		each(Completion{Bytes: ev.Bytes, Start: ev.Start, End: ev.End, Left: n, RQ: ev})
	}
}

func tcpEach(n int, each func(Completion)) func(tcpsim.FlowResult) {
	if each == nil {
		return nil
	}
	return func(r tcpsim.FlowResult) {
		n--
		each(Completion{Bytes: r.Bytes, Start: r.Start, End: r.End, Left: n, TCP: r})
	}
}

// Unicast moves one object from src to dst.
func (t *Transport) Unicast(src, dst int, bytes int64, each func(Completion)) {
	if t.RQ != nil {
		t.RQ.StartUnicast(src, dst, bytes, rqEach(1, each))
		return
	}
	t.tcp.StartFlow(src, dst, bytes, tcpEach(1, each))
}

// Multicast pushes one full object from src to every dst — one
// Polyraptor group session, or TCP multi-unicast — completing once per
// dst. It returns the installed group (-1 on TCP); a caller running
// many sessions removes it from the fabric after the last completion.
func (t *Transport) Multicast(src int, dsts []int, bytes int64, each func(Completion)) int32 {
	if t.RQ != nil {
		g := t.fabric.InstallMulticastGroup(src, dsts)
		t.RQ.StartMulticast(src, dsts, g, bytes, rqEach(len(dsts), each))
		return g
	}
	done := tcpEach(len(dsts), each)
	for _, d := range dsts {
		t.tcp.StartFlow(src, d, bytes, done)
	}
	return -1
}

// MultiSource assembles one object at dst from srcs, each holding a
// complete copy: one Polyraptor multi-source session (one completion),
// or uncoordinated TCP fetches of a 1/R share each (one completion per
// share; the last share takes the remainder).
func (t *Transport) MultiSource(srcs []int, dst int, bytes int64, each func(Completion)) {
	if t.RQ != nil {
		t.RQ.StartMultiSource(srcs, dst, bytes, rqEach(1, each))
		return
	}
	done := tcpEach(len(srcs), each)
	n := int64(len(srcs))
	share := bytes / n
	for i, s := range srcs {
		sz := share
		if i == len(srcs)-1 {
			sz = bytes - share*(n-1)
		}
		t.tcp.StartFlow(s, dst, sz, done)
	}
}

// Shuffle starts the full mapper x reducer transfer matrix at once,
// completing once per pair. Polyraptor reports its pairs together, in
// mapper-major order, when the slowest one finishes; TCP reports each
// flow as it completes.
func (t *Transport) Shuffle(mappers, reducers []int, bytesPerPair func(mi, ri int) int64, each func(Completion)) {
	pairs := len(mappers) * len(reducers)
	if t.RQ != nil {
		done := rqEach(pairs, each)
		t.RQ.StartShuffle(mappers, reducers, bytesPerPair, func(r polyraptor.ShuffleResult) {
			for i := range r.Pairs {
				done(r.Pairs[i].Event)
			}
		})
		return
	}
	done := tcpEach(pairs, each)
	for mi, m := range mappers {
		for ri, r := range reducers {
			t.tcp.StartFlow(m, r, bytesPerPair(mi, ri), done)
		}
	}
}

// OpenSessions is the transport's live session gauge: Polyraptor
// sender plus receiver sessions, or open TCP flows.
func (t *Transport) OpenSessions() float64 {
	if t.RQ != nil {
		send, recv := t.RQ.OpenSessions()
		return float64(send + recv)
	}
	return float64(t.tcp.OpenFlows())
}

// Audit checks the books of a run whose engine has drained: no session
// is open and every packet the network created is free again, or parked
// at a port that went down. A run cut off at a deadline is not at rest
// and passes unexamined.
func (t *Transport) Audit() error {
	if t.net.Eng.Pending() != 0 {
		return nil
	}
	if open, pkts := t.OpenSessions(), t.net.PacketsOutstanding(); open != 0 || pkts != 0 {
		return fmt.Errorf("store: the run drained with %v sessions open and %d packets unaccounted for", open, pkts)
	}
	return nil
}
