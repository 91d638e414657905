package polyraptor

import (
	"fmt"
	"math/rand"
	"slices"

	"polyraptor/internal/metrics"
	"polyraptor/internal/netsim"
	"polyraptor/internal/sim"
	"polyraptor/internal/telemetry"
)

// System attaches a Polyraptor agent to every host of a network and
// provides the session-establishment API used by the experiment
// harness and examples.
type System struct {
	Net    *netsim.Network
	Cfg    Config
	Agents []*Agent

	// PruneGroup, when set (wired by the harness to
	// topology.PruneMulticastLeaf), removes a receiver's leaf from a
	// multicast tree. Straggler detachment calls it so the straggler
	// genuinely leaves the group, as the paper prescribes.
	PruneGroup func(group int32, receiver int)

	// StallHist is the PolyMeter stall-duration histogram: every
	// stall-guard firing records how long the session had been starved
	// (seconds since the last data arrival). Nil (the default)
	// disables metering; recording never perturbs the protocol.
	StallHist *metrics.Histogram

	rng      *rand.Rand // decode-overhead sampling & random-ESI ablation
	nextFlow int32
}

// detachReceiver implements the group side of straggler detachment:
// prune the receiver's leaf from the multicast tree and tell its
// session to ignore any in-flight multicast copies.
func (s *System) detachReceiver(flow, group int32, receiver int32) {
	if s.PruneGroup != nil {
		s.PruneGroup(group, int(receiver))
	}
	if rs := s.Agents[receiver].flows.receiver(flow); rs != nil {
		rs.detached = true
	}
}

// NewSystem wires an agent onto every host. The seed drives overhead
// sampling so experiment repetitions are reproducible.
func NewSystem(net *netsim.Network, cfg Config, seed int64) *System {
	if cfg.SymbolPayload <= 0 {
		panic("polyraptor: SymbolPayload must be positive")
	}
	if cfg.InitWindow < 1 {
		panic("polyraptor: InitWindow must be at least 1")
	}
	s := &System{Net: net, Cfg: cfg, rng: sim.RNG(seed, "polyraptor-overhead")}
	for _, h := range net.Hosts {
		s.Agents = append(s.Agents, newAgent(s, h))
	}
	return s
}

// numSymbols returns K for an object of the given size.
func (s *System) numSymbols(bytes int64) int {
	k := int((bytes + int64(s.Cfg.SymbolPayload) - 1) / int64(s.Cfg.SymbolPayload))
	if k < 1 {
		k = 1
	}
	return k
}

// sampleNeed samples the number of distinct symbols a receiver needs
// before decoding succeeds, per the overhead failure model.
func (s *System) sampleNeed(k int) int {
	o := 0
	for s.rng.Float64() < s.Cfg.FailProb(o) {
		o++
	}
	return k + o
}

// allocFlow returns a fresh session ID.
func (s *System) allocFlow() int32 {
	f := s.nextFlow
	s.nextFlow++
	return f
}

// StartUnicast begins a one-to-one session of `bytes` from host src to
// host dst. onDone fires when the receiver decodes the object.
func (s *System) StartUnicast(src, dst int, bytes int64, onDone func(CompletionEvent)) int32 {
	return s.StartMultiSource([]int{src}, dst, bytes, onDone)
}

// StartMultiSource begins a many-to-one session: the receiver fetches
// one object of `bytes` that is available in full at every sender
// (replicas). Source symbols are partitioned across senders; repair
// ESIs use disjoint residue classes (or independent random draws when
// Config.RandomESI is set, the ablation).
func (s *System) StartMultiSource(senders []int, dst int, bytes int64, onDone func(CompletionEvent)) int32 {
	if len(senders) == 0 {
		panic("polyraptor: no senders")
	}
	flow := s.allocFlow()
	k := s.numSymbols(bytes)
	n := len(senders)
	src := int32(-1)
	if n == 1 {
		src = s.Agents[senders[0]].host.ID
	}
	s.Net.Rec.OpenFlow(s.Net.Now(), flow, "rq", src, s.Agents[dst].host.ID, bytes, 1)

	recv := &receiverSession{
		sys:      s,
		flow:     flow,
		receiver: dst,
		bytes:    bytes,
		k:        k,
		need:     s.sampleNeed(k),
		senders:  senders,
		start:    s.Net.Now(),
		onDone:   onDone,
		seen:     nil,
	}
	if s.Cfg.RandomESI && n > 1 {
		recv.seen = make(map[int64]struct{}, k+16)
	}
	s.Agents[dst].flows.putReceiver(flow, recv)
	recv.armTimeout()

	// Partition[K, n] source symbols across senders in ESI order.
	il, is, jl, _ := partition(k, n)
	startESI := 0
	for i, host := range senders {
		span := is
		if i < jl {
			span = il
		}
		snd := &senderSession{
			sys:        s,
			flow:       flow,
			src:        host,
			k:          k,
			group:      -1,
			dst:        int32(dst),
			srcNext:    int64(startESI),
			srcEnd:     int64(startESI + span),
			repairNext: int64(k + i),
			stride:     int64(n),
			senderIdx:  int32(i),
		}
		if s.Cfg.RandomESI {
			snd.randESI = sim.RNG(int64(flow)*1000+int64(i), "random-esi")
		}
		startESI += span
		s.Agents[host].flows.putSender(flow, snd)
		snd.sendInitialWindow()
	}
	return flow
}

// StartMulticast begins a one-to-many session: src pushes one object
// to every receiver over the pre-installed multicast group. onDone
// fires once per receiver. The group's forwarding state must cover
// exactly `receivers` (see topology.InstallMulticastGroup).
func (s *System) StartMulticast(src int, receivers []int, group int32, bytes int64, onDone func(CompletionEvent)) int32 {
	if len(receivers) == 0 {
		panic("polyraptor: no receivers")
	}
	flow := s.allocFlow()
	k := s.numSymbols(bytes)
	s.Net.Rec.OpenFlow(s.Net.Now(), flow, "rq", s.Agents[src].host.ID, -1, bytes, len(receivers))

	snd := &senderSession{
		sys:        s,
		flow:       flow,
		src:        src,
		k:          k,
		group:      group,
		srcNext:    0,
		srcEnd:     int64(k),
		repairNext: int64(k),
		stride:     1,
		pulls:      make([]credit, 0, len(receivers)),
	}
	for _, r := range receivers {
		snd.receivers = append(snd.receivers, int32(r))
		snd.pulls = append(snd.pulls, credit{host: int32(r)})
		recv := &receiverSession{
			sys:      s,
			flow:     flow,
			receiver: r,
			bytes:    bytes,
			k:        k,
			need:     s.sampleNeed(k),
			senders:  []int{src},
			start:    s.Net.Now(),
			onDone:   onDone,
		}
		s.Agents[r].flows.putReceiver(flow, recv)
		recv.armTimeout()
	}
	slices.SortFunc(snd.pulls, func(a, b credit) int { return int(a.host - b.host) }) // detachment order
	s.Agents[src].flows.putSender(flow, snd)
	snd.sendInitialWindow()
	return flow
}

// ShufflePair is one mapper→reducer transfer of a shuffle.
type ShufflePair struct {
	// Mapper and Reducer are host IDs.
	Mapper, Reducer int
	// Flow is the pair's session ID.
	Flow int32
	// Bytes is the partition size.
	Bytes int64
	// Event is the pair's completion event.
	Event CompletionEvent
}

// ShuffleResult reports one completed shuffle.
type ShuffleResult struct {
	// Start is when the shuffle was started; End is the latest pair
	// completion (the shuffle completion time is End-Start: a shuffle
	// is done only when its slowest pair is).
	Start, End sim.Time
	// Pairs holds every transfer in mapper-major order
	// (Pairs[mi*len(reducers)+ri]).
	Pairs []ShufflePair
}

// Bytes returns the total bytes moved by the shuffle.
func (r ShuffleResult) Bytes() int64 {
	var total int64
	for i := range r.Pairs {
		total += r.Pairs[i].Bytes
	}
	return total
}

// StartShuffle begins a many-to-many shuffle: every mapper transfers
// one distinct partition to every reducer, the full mapper×reducer
// matrix at once. Each pair runs as its own receiver-driven session,
// so a reducer's inbound transfers are jointly paced by its host's
// single pull queue (paper §2) and a mapper contributes to each
// reducer exactly the capacity its pulls arrive with — no per-flow
// congestion control, no incast at the reducers, no coordination
// between mappers. bytesPerPair maps (mapper index, reducer index) to
// the partition size, letting workload generators express skew and
// stragglers. onDone fires once, when the last pair completes. A host
// appearing as both a mapper and a reducer panics: local partitions
// never cross the network and must be excluded by the caller.
func (s *System) StartShuffle(mappers, reducers []int, bytesPerPair func(mi, ri int) int64, onDone func(ShuffleResult)) []int32 {
	if len(mappers) == 0 {
		panic("polyraptor: no mappers")
	}
	if len(reducers) == 0 {
		panic("polyraptor: no reducers")
	}
	if bytesPerPair == nil {
		panic("polyraptor: nil bytesPerPair")
	}
	reducerSet := make(map[int]struct{}, len(reducers))
	for _, r := range reducers {
		reducerSet[r] = struct{}{}
	}
	for _, m := range mappers {
		if _, both := reducerSet[m]; both {
			panic(fmt.Sprintf("polyraptor: host %d is both a mapper and a reducer", m))
		}
	}

	res := &ShuffleResult{
		Start: s.Net.Now(),
		Pairs: make([]ShufflePair, len(mappers)*len(reducers)),
	}
	remaining := len(res.Pairs)
	flows := make([]int32, 0, len(res.Pairs))
	for mi, m := range mappers {
		for ri, r := range reducers {
			bytes := bytesPerPair(mi, ri)
			if bytes <= 0 {
				panic(fmt.Sprintf("polyraptor: shuffle pair (%d,%d) has %d bytes", mi, ri, bytes))
			}
			idx := mi*len(reducers) + ri
			res.Pairs[idx] = ShufflePair{Mapper: m, Reducer: r, Bytes: bytes}
			flow := s.StartMultiSource([]int{m}, r, bytes, func(ev CompletionEvent) {
				res.Pairs[idx].Event = ev
				if ev.End > res.End {
					res.End = ev.End
				}
				remaining--
				if remaining == 0 && onDone != nil {
					onDone(*res)
				}
			})
			res.Pairs[idx].Flow = flow
			flows = append(flows, flow)
		}
	}
	return flows
}

// OpenSessions counts the live sender and receiver sessions across all
// agents. Both counts return to zero once every flow has fully torn
// down — the lifecycle contract the leak regression tests assert.
func (s *System) OpenSessions() (send, recv int) {
	for _, a := range s.Agents {
		send += a.flows.send
		recv += a.flows.recv
	}
	return
}

// partition mirrors raptorq.Partition without importing it here.
func partition(i, j int) (il, is, jl, js int) {
	il = (i + j - 1) / j
	is = i / j
	jl = i - is*j
	js = j - jl
	return
}

// Agent is the per-host Polyraptor endpoint: it demultiplexes arriving
// packets to sessions and owns the host's single pull queue, drained
// at the host's link rate across all inbound sessions (paper §2).
type Agent struct {
	sys  *System
	host *netsim.Host

	flows flowTable // the sessions open here, by flow

	// Pull pacer state. drainFn is the bound drainPull callback,
	// created once so per-pull pacing never allocates a method value.
	pullQ    []pullReq
	pullHead int
	pacing   bool
	drainFn  func()
}

type pullReq struct {
	flow int32
	dst  int32 // sender host to address the pull to
}

func newAgent(sys *System, host *netsim.Host) *Agent {
	a := &Agent{sys: sys, host: host}
	a.drainFn = a.drainPull
	host.Deliver = a.deliver
	return a
}

func (a *Agent) deliver(pkt *netsim.Packet) {
	switch pkt.Kind {
	case netsim.KindData:
		if sess := a.flows.receiver(pkt.Flow); sess != nil {
			sess.onData(pkt)
		}
	case netsim.KindPull:
		if sess := a.flows.sender(pkt.Flow); sess != nil {
			sess.onPull(pkt)
		}
	case netsim.KindCtrl:
		// Completion notice from a receiver. Ack unconditionally — even
		// when the sender session is already gone — because the ctrl may
		// be a retransmission whose predecessor's ack was lost; without
		// the ack the receiver would retransmit forever.
		if sess := a.flows.sender(pkt.Flow); sess != nil {
			sess.onReceiverDone(pkt.Src)
		}
		ack := a.sys.Net.AllocPacket()
		ack.Flow = pkt.Flow
		ack.Kind = netsim.KindAck
		ack.Size = netsim.HeaderSize
		ack.Src = a.host.ID
		ack.Dst = pkt.Src
		ack.Group = -1
		ack.Spray = true
		a.host.Send(ack)
	case netsim.KindAck:
		// Sender's acknowledgement of our completion ctrl.
		if sess := a.flows.receiver(pkt.Flow); sess != nil {
			sess.onDoneAck(pkt.Src)
		}
	default:
		panic(fmt.Sprintf("polyraptor: unknown packet kind %v", pkt.Kind))
	}
	// Dispatch done: the packet's journey ends here, recycle it. Every
	// handler above reads fields synchronously and never retains the
	// pointer, so this is the last live reference.
	a.sys.Net.FreePacket(pkt)
}

// enqueuePull adds one pull credit to the host's shared queue and
// starts the pacer if idle. Pacing interval is the serialization time
// of one full data packet at the host's link rate, so the aggregate
// data arrival rate matches link capacity.
func (a *Agent) enqueuePull(flow, dst int32) {
	a.pullQ = append(a.pullQ, pullReq{flow: flow, dst: dst})
	if !a.pacing {
		a.pacing = true
		a.drainPull()
	}
}

func (a *Agent) drainPull() {
	// Iterate past pulls whose sessions completed while queued; only a
	// live pull consumes a pacing slot. A loop (not recursion) keeps
	// the stack flat even when thousands of stale entries drain at
	// once at the end of a large experiment.
	for a.pullHead < len(a.pullQ) {
		req := a.pullQ[a.pullHead]
		a.pullHead++
		if sess := a.flows.receiver(req.flow); sess == nil || sess.done {
			continue
		}
		a.sys.Net.Rec.Record(a.sys.Net.Now(), req.flow, telemetry.EvPull, a.host.ID, int64(req.dst))
		pull := a.sys.Net.AllocPacket()
		pull.Flow = req.flow
		pull.Kind = netsim.KindPull
		pull.Size = netsim.HeaderSize
		pull.Src = a.host.ID
		pull.Dst = req.dst
		pull.Group = -1
		pull.Spray = true
		a.host.Send(pull)
		interval := sim.Time(int64(netsim.DataSize) * 8 * 1e9 / a.sys.Net.Cfg.LinkRate)
		a.sys.Net.Eng.After(interval, a.drainFn)
		return
	}
	a.pullQ = a.pullQ[:0]
	a.pullHead = 0
	a.pacing = false
}
