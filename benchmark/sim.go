package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"polyraptor/internal/metrics"
	"polyraptor/internal/netsim"
	rqsim "polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/tcpsim"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// simScale sizes the two simulation workloads.
type simScale struct {
	k        int     // fat-tree arity
	sessions int     // Poisson sessions per pass
	bytes    int64   // object size, foreground and background
	load     float64 // target per-host offered load, fraction of link rate
	replicas int     // receivers of a multicast, senders of a multi-source fetch
}

type pattern int

const (
	// multicast is the Figure 1a pattern: a client replicates one object.
	multicast pattern = iota
	// multiSource is the Figure 1b pattern: a client fetches one object
	// held by several servers.
	multiSource
)

const (
	// simDeadline bounds one pass in simulated time; a session still open
	// then, or when the event queue drains, counts as failed.
	simDeadline = 60 * time.Second
	// tickEvery is the simulated period of the benchmark's own sampling
	// event on traced passes.
	tickEvery = 100 * time.Microsecond
	// backgroundFrac and ecnThreshold follow internal/harness.
	backgroundFrac = 0.20
	ecnThreshold   = 20
)

// sessionConfig derives the Poisson arrival rate from the load factor the
// way internal/harness does, operation for operation, so that the BENCH_7
// check below can hold bit for bit.
func sessionConfig(sc simScale, linkRate int64, pat pattern, seed int64) workload.Config {
	mult := 1.0
	if pat == multicast {
		mult = (1-backgroundFrac)*float64(sc.replicas) + backgroundFrac
	}
	hosts := float64(topology.HostsFor(sc.k))
	return workload.Config{
		Sessions:        sc.sessions,
		Lambda:          sc.load * hosts * float64(linkRate) / (8 * float64(sc.bytes) * mult),
		Bytes:           sc.bytes,
		BackgroundBytes: sc.bytes,
		BackgroundFrac:  backgroundFrac,
		Replicas:        sc.replicas,
		Seed:            seed,
	}
}

func gbps(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes*8) / d.Seconds() / 1e9
}

// passTrace holds what only traced passes measure, summed over the passes of
// an iteration: host time inside the wrapped callbacks and the samples of
// the benchmark's own tick.
type passTrace struct {
	deliver, start, onComplete callTime
	pullPkts                   int64
	stalls                     uint64
	ticks                      uint64
	depthPeak                  int
	depthWeighted              float64 // sum over events of the queue depth
}

// depthSampler is the benchmark's own simulated-time tick. It samples the
// engine's queue depth and weights each sample by the events processed
// since the previous one, so that the mean is per event rather than per
// simulated second. It stops once it is the only event left.
type depthSampler struct {
	eng      *sim.Engine
	fn       func()
	ticks    uint64
	seen     uint64 // Engine.Processed at the previous tick
	peak     int
	weighted float64 // sum of depth x events since the previous tick
}

func (s *depthSampler) start(eng *sim.Engine) {
	s.eng, s.fn = eng, s.tick
	eng.After(tickEvery, s.fn)
}

func (s *depthSampler) tick() {
	s.ticks++
	n := s.eng.Pending()
	if n > s.peak {
		s.peak = n
	}
	done := s.eng.Processed()
	s.weighted += float64(n) * float64(done-s.seen)
	s.seen = done
	if n > 0 {
		s.eng.After(tickEvery, s.fn)
	}
}

// callTime accumulates host time over the calls of one wrapped callback.
type callTime struct {
	d time.Duration
	n int64
}

func (c *callTime) since(t0 time.Time) {
	c.d += time.Since(t0)
	c.n++
}

// begin reads the clock on a traced pass only, so that an untraced pass
// pays one branch per callback.
func (pt *passTrace) begin() time.Time {
	if pt == nil {
		return time.Time{}
	}
	return time.Now()
}

// simTotals sums what the passes of one iteration measured; every pass is
// one pattern run to drain on a fresh fabric.
type simTotals struct {
	topologyS, generateS, agentsS float64 // set-up, host seconds
	runS, engineS                 float64 // schedule + run + collect; Engine.RunUntil alone
	simS                          float64 // simulated seconds to the last completion
	events                        uint64  // Engine.Processed minus the benchmark's ticks
	sessions, completed           int
	fctS, gbps                    []float64 // completed foreground sessions, simulated
	q                             netsim.QueueStats
	hops                          int64 // frames serialized by any port

	symbols, sourceSymbols, trims   int64 // polyraptor, over all receivers
	segments, retransmits, timeouts int64 // tcpsim, over all flows

	pt *passTrace // nil on untraced iterations
}

// layerName is the module whose agent a simulation workload runs.
func layerName(tcp bool) string {
	if tcp {
		return "tcpsim"
	}
	return "polyraptor"
}

// framesSerialized counts the frames every port of the network has sent.
func framesSerialized(net *netsim.Network) int64 {
	var n int64
	for _, sw := range net.Switches {
		for _, port := range sw.Ports {
			n += port.TxPackets
		}
	}
	for _, h := range net.Hosts {
		n += h.NIC.TxPackets
	}
	return n
}

// runPass builds the fabric, draws the sessions, attaches the transport and
// runs to drain, adding what it measures to p. tcp selects tcpsim: standard
// TCP multi-unicast on drop-tail for the multicast pattern, DCTCP 1/R
// partial fetches on ECN-marking switches for the multi-source pattern. tr
// may be nil; p.pt is set exactly when it is not. With setUpOnly it stops
// once the fabric, the agents and the session draw exist.
func runPass(p *simTotals, sc simScale, seed int64, tcp bool, pat pattern, setUpOnly bool, tr *tracer, setupSpan, runSpan, req int) error {
	layer := layerName(tcp)
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = seed
	tcfg := tcpsim.DefaultConfig()
	if tcp {
		ncfg.Trimming = false
		if pat == multiSource {
			ncfg.ECNThreshold = ecnThreshold
			tcfg = tcpsim.DCTCPConfig()
		}
	}

	t0 := time.Now()
	ft, err := topology.NewFatTree(sc.k, ncfg)
	if err != nil {
		return err
	}
	d := time.Since(t0)
	p.topologyS += d.Seconds()
	tr.add("topology.build", setupSpan, req, t0, d, 0)

	t0 = time.Now()
	var rq *rqsim.System
	var tc *tcpsim.System
	if tcp {
		tc = tcpsim.NewSystem(ft.Net, tcfg)
	} else {
		rq = rqsim.NewSystem(ft.Net, rqsim.DefaultConfig(), seed)
		rq.PruneGroup = ft.PruneMulticastLeaf
	}
	d = time.Since(t0)
	p.agentsS += d.Seconds()
	tr.add(layer+".new_system", setupSpan, req, t0, d, 0)

	t0 = time.Now()
	sessions := workload.Generate(sessionConfig(sc, ncfg.LinkRate, pat, seed), ft)
	d = time.Since(t0)
	p.generateS += d.Seconds()
	tr.add("workload.generate", setupSpan, req, t0, d, 0)
	if setUpOnly {
		return nil
	}
	p.sessions += len(sessions)

	eng := ft.Net.Eng
	pt := p.pt
	var before passTrace
	var depth depthSampler
	if pt != nil {
		before = *pt
		for _, h := range ft.Net.Hosts {
			inner := h.Deliver
			h.Deliver = func(pkt *netsim.Packet) {
				if pkt.Kind == netsim.KindPull {
					pt.pullPkts++
				}
				t := time.Now()
				inner(pkt) // recycles pkt
				pt.deliver.since(t)
			}
		}
		if rq != nil {
			rq.StallHist = metrics.NewHistogram()
		}
	}

	completed := 0
	var makespan sim.Time
	done := func(bytes int64, start, end sim.Time, foreground bool) {
		completed++
		if end > makespan {
			makespan = end
		}
		if foreground {
			p.fctS = append(p.fctS, (end - start).Seconds())
			p.gbps = append(p.gbps, gbps(bytes, end-start))
		}
	}

	startRQ := func(s workload.Session) {
		k := (s.Bytes + int64(rq.Cfg.SymbolPayload) - 1) / int64(rq.Cfg.SymbolPayload)
		start := ft.Net.Now()
		remaining := 1
		var last sim.Time
		var group int32 = -1
		onDone := func(ev rqsim.CompletionEvent) {
			b := pt.begin()
			p.symbols += int64(ev.Symbols)
			p.sourceSymbols += k
			p.trims += int64(ev.Trims)
			if ev.End > last {
				last = ev.End
			}
			remaining--
			if remaining == 0 {
				if group >= 0 {
					ft.RemoveMulticastGroup(group)
				}
				done(s.Bytes, start, last, s.Kind == workload.Foreground)
			}
			if pt != nil {
				pt.onComplete.since(b)
			}
		}
		switch {
		case s.Kind == workload.Background:
			rq.StartUnicast(s.Client, s.Peers[0], s.Bytes, onDone)
		case pat == multiSource:
			rq.StartMultiSource(s.Peers, s.Client, s.Bytes, onDone)
		default:
			group = ft.InstallMulticastGroup(s.Client, s.Peers)
			remaining = len(s.Peers)
			rq.StartMulticast(s.Client, s.Peers, group, s.Bytes, onDone)
		}
	}

	startTCP := func(s workload.Session) {
		start := ft.Net.Now()
		remaining := len(s.Peers)
		var last sim.Time
		onDone := func(r tcpsim.FlowResult) {
			b := pt.begin()
			p.segments += (r.Bytes + int64(tcfg.SegPayload) - 1) / int64(tcfg.SegPayload)
			p.retransmits += r.Retransmits
			p.timeouts += r.Timeouts
			if r.End > last {
				last = r.End
			}
			remaining--
			if remaining == 0 {
				done(s.Bytes, start, last, s.Kind == workload.Foreground)
			}
			if pt != nil {
				pt.onComplete.since(b)
			}
		}
		if s.Kind == workload.Background {
			tc.StartFlow(s.Client, s.Peers[0], s.Bytes, onDone)
			return
		}
		for i, peer := range s.Peers {
			if pat == multicast {
				// Multi-unicast: the client writes the whole object to
				// every replica.
				tc.StartFlow(s.Client, peer, s.Bytes, onDone)
				continue
			}
			// Every replica returns a distinct 1/R share.
			share := s.Bytes / int64(len(s.Peers))
			if i == len(s.Peers)-1 {
				share = s.Bytes - share*int64(len(s.Peers)-1)
			}
			tc.StartFlow(peer, s.Client, share, onDone)
		}
	}

	runStart := time.Now()
	for i := range sessions {
		s := sessions[i]
		eng.At(s.Start, func() {
			b := pt.begin()
			if tcp {
				startTCP(s)
			} else {
				startRQ(s)
			}
			if pt != nil {
				pt.start.since(b)
			}
		})
	}
	if pt != nil {
		depth.start(eng)
	}
	tr.add("sim.schedule", runSpan, req, runStart, time.Since(runStart), 0)

	t0 = time.Now()
	eng.RunUntil(simDeadline)
	d = time.Since(t0)
	p.engineS += d.Seconds()
	p.events += eng.Processed()
	if pt != nil {
		simRun := tr.add("sim.run", runSpan, req, t0, d, 0)
		tr.add(layer+".start", simRun, req, t0, pt.start.d-before.start.d, pt.start.n-before.start.n)
		deliver := tr.add(layer+".deliver", simRun, req, t0, pt.deliver.d-before.deliver.d, pt.deliver.n-before.deliver.n)
		tr.add("bench.on_complete", deliver, req, t0, pt.onComplete.d-before.onComplete.d, pt.onComplete.n-before.onComplete.n)
		if rq != nil {
			pt.stalls += rq.StallHist.Count()
		}
		p.events -= depth.ticks
		pt.ticks += depth.ticks
		pt.depthPeak = max(pt.depthPeak, depth.peak)
		pt.depthWeighted += depth.weighted
	}
	p.completed += completed
	p.simS += makespan.Seconds()
	q := ft.Net.QueueTotals()
	p.q.Enqueued += q.Enqueued
	p.q.Dropped += q.Dropped
	p.q.Trimmed += q.Trimmed
	p.q.Marked += q.Marked
	p.hops += framesSerialized(ft.Net)
	p.runS += time.Since(runStart).Seconds()
	if eng.Pending() != 0 && completed == len(sessions) {
		return fmt.Errorf("sim: %d events pending at the %v deadline with every session complete", eng.Pending(), simDeadline)
	}
	return nil
}

// simWorkload is sim_rq or sim_tcp: each iteration runs the multicast
// pattern and then the multi-source pattern on fresh fabrics.
type simWorkload struct {
	sc   simScale
	seed int64
	tcp  bool
}

func (w *simWorkload) setUp(variant int) (float64, error) {
	var p simTotals
	for _, pat := range []pattern{multicast, multiSource} {
		if err := runPass(&p, w.sc, subSeed(w.seed, variant), w.tcp, pat, true, nil, 0, 0, 0); err != nil {
			return 0, err
		}
	}
	return p.topologyS + p.generateS + p.agentsS, nil
}

func (w *simWorkload) iterate(variant int, tr *tracer) (iteration, error) {
	var it iteration
	layer := layerName(w.tcp)
	begin := time.Now()
	setupSpan := tr.add("setup", 0, 0, begin, 0, 0)
	runSpan := tr.add("run", 0, 0, begin, 0, 0)

	var p simTotals
	if tr != nil {
		p.pt = &passTrace{}
	}
	for i, pat := range []pattern{multicast, multiSource} {
		if err := runPass(&p, w.sc, subSeed(w.seed, variant), w.tcp, pat, false, tr, setupSpan, runSpan, i+1); err != nil {
			return it, err
		}
	}

	t0 := time.Now()
	it.setupS = p.topologyS + p.generateS + p.agentsS
	it.attempted = p.sessions
	it.failed = p.sessions - p.completed
	for _, s := range p.fctS {
		it.xferMs = append(it.xferMs, s*1e3)
	}
	it.goodputMbps = mean(p.gbps) * 1e3
	// Simulated results and the event count repeat bit for bit whenever a
	// seed is run again; the runner checks that they do.
	it.fingerprint = fmt.Sprintf("events=%d goodput=%v p50=%v p95=%v failed=%d",
		p.events, it.goodputMbps, quantile(it.xferMs, 0.50), quantile(it.xferMs, 0.95), it.failed)
	it.runS = p.runS + time.Since(t0).Seconds()
	tr.setDur(setupSpan, time.Duration(it.setupS*1e9))
	tr.setDur(runSpan, time.Duration(it.runS*1e9))

	events := float64(p.events)
	l := map[string]float64{
		"sim.events":           events,
		"sim.events_per_s":     events / p.engineS,
		"sim.ns_per_event":     p.engineS * 1e9 / events,
		"sim.sim_s_per_wall_s": p.simS / p.engineS,
		"netsim.enqueued":      float64(p.q.Enqueued),
		"netsim.trim_frac":     ratio(float64(p.q.Trimmed), float64(p.q.Enqueued)),
		"netsim.drop_frac":     ratio(float64(p.q.Dropped), float64(p.q.Enqueued)),
		"netsim.marked_frac":   ratio(float64(p.q.Marked), float64(p.q.Enqueued)),
		"topology.build_s":     p.topologyS,
		"workload.generate_s":  p.generateS,
		auxHops:                float64(p.hops),
	}
	if w.tcp {
		l["tcpsim.retransmit_frac"] = ratio(float64(p.retransmits), float64(p.segments))
		l["tcpsim.timeouts"] = float64(p.timeouts)
	} else {
		l["polyraptor.symbol_overhead"] = ratio(float64(p.symbols-p.sourceSymbols), float64(p.sourceSymbols))
		l["polyraptor.trims_per_symbol"] = ratio(float64(p.trims), float64(p.symbols))
	}
	if pt := p.pt; pt != nil {
		l["sim.pending_peak"] = float64(pt.depthPeak)
		l[auxDepth] = pt.depthWeighted / events
		l["netsim.host_pkts"] = float64(pt.deliver.n)
		l["netsim.events_per_host_pkt"] = ratio(events, float64(pt.deliver.n))
		l[layer+".deliver_s"] = pt.deliver.d.Seconds()
		l[layer+".deliver_ns_per_pkt"] = ratio(float64(pt.deliver.d.Nanoseconds()), float64(pt.deliver.n))
		l[layer+".deliver_share"] = pt.deliver.d.Seconds() / it.runS
		l["bench.on_complete_s"] = pt.onComplete.d.Seconds()
		if !w.tcp {
			l["polyraptor.start_s"] = pt.start.d.Seconds()
			l["polyraptor.pull_pkts_per_symbol"] = ratio(float64(pt.pullPkts), float64(p.symbols))
			l["polyraptor.stalls"] = float64(pt.stalls)
		}
	}
	it.layer = l
	return it, nil
}

// Ledger entries that are not metrics: an iteration leaves them for the
// probes, and only declared names are ever reported.
const (
	auxHops  = "aux.frames_serialized"
	auxDepth = "aux.mean_queue_depth" // per event, traced iterations
)

// probes measures the engine and the forwarding path in isolation and
// scales them by the workload's own counts into estimated shares of run_s.
func (w *simWorkload) probes(layer map[string]float64, runS float64, _ io.Writer) (*estimate, error) {
	events, hops := layer["sim.events"], layer[auxHops]
	heapNs := heapProbe(int(layer[auxDepth]), 2_000_000)
	hopNs, hopDepth, err := forwardProbe(w.sc.k)
	if err != nil {
		return nil, err
	}
	// A hop costs two engine events (serialization done, propagation
	// done); take them out at the probe's own queue depth so the engine
	// and forwarding estimates do not count the same time twice.
	hopSelfNs := hopNs - 2*heapProbe(hopDepth, 1_000_000)
	if hopSelfNs < 0 {
		hopSelfNs = 0
	}
	layer["sim.heap_probe_ns_per_event"] = heapNs
	layer["sim.engine_share_est"] = heapNs * events / 1e9 / runS
	layer["netsim.forward_probe_ns_per_hop"] = hopNs
	layer["netsim.forward_share_est"] = hopSelfNs * hops / 1e9 / runS
	if !w.tcp {
		match, err := bench7Fig1aMatch()
		if err != nil {
			return nil, err
		}
		layer["sim.bench7_fig1a_match"] = match
	}
	return &estimate{
		Span: "sim.run",
		Parts: []timeRow{
			{Name: "sim.run: engine (heap probe x events)", SelfS: heapNs * events / 1e9, Count: int64(events)},
			{Name: "sim.run: forwarding (hop probe x hops)", SelfS: hopSelfNs * hops / 1e9, Count: int64(hops)},
		},
		Rest: "sim.run: timers and other",
	}, nil
}

// heapProbe times the bare engine: n no-op events popped and rescheduled
// with the queue held at the given depth (the classic hold model).
func heapProbe(depth, n int) float64 {
	if depth < 1 {
		depth = 1
	}
	e := sim.NewEngine()
	rng := sim.RNG(1, "heap-probe")
	var delays [4096]sim.Time
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Intn(1_000_000))
	}
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired <= n {
			e.After(delays[fired&4095], fn)
		}
	}
	for i := 0; i < depth; i++ {
		e.After(delays[i&4095], fn)
	}
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(e.Processed())
}

// forwardProbe times the forwarding path with no transport on an otherwise
// idle fabric: every host keeps a small window of full-size sprayed packets
// in flight to a host in another pod, and Deliver does nothing but retire
// the packet and send the next, so queues stay shallow and the packet pool
// hot, as in a paced run. It returns host nanoseconds per frame serialized
// and the mean event-queue depth per event.
func forwardProbe(k int) (nsPerHop float64, depth int, err error) {
	ft, err := topology.NewFatTree(k, netsim.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	net := ft.Net
	n := len(net.Hosts)
	const window, perHost = 4, 4000
	left := make([]int, n)
	send := func(i int) {
		left[i]--
		pkt := net.AllocPacket()
		pkt.Flow = int32(i)
		pkt.Kind = netsim.KindData
		pkt.Size = netsim.DataSize
		pkt.Src = net.Hosts[i].ID
		pkt.Dst = net.Hosts[(i+n/2)%n].ID
		pkt.Group = -1
		pkt.Spray = true
		net.Hosts[i].Send(pkt)
	}
	for i, h := range net.Hosts {
		left[i] = perHost
		h.Deliver = func(pkt *netsim.Packet) {
			net.FreePacket(pkt)
			if left[i] > 0 {
				send(i)
			}
		}
		for j := 0; j < window; j++ {
			send(i)
		}
	}
	var sampler depthSampler
	sampler.start(net.Eng)
	t0 := time.Now()
	net.Eng.Run()
	d := time.Since(t0)
	return float64(d.Nanoseconds()) / float64(framesSerialized(net)), int(sampler.weighted / float64(net.Eng.Processed())), nil
}

// bench7Fig1aMatch runs the pass builder at BENCH_7.json's e2e/Fig1aRQ3
// parameters and reports 1 when it reproduces that file's
// mean_goodput_gbps bit for bit: the hand-built scenario here and
// internal/harness then simulate the same thing.
func bench7Fig1aMatch() (float64, error) {
	const bench7MeanGoodputGbps = 0.37524054914862814
	sc := simScale{k: 4, sessions: 150, bytes: 512 << 10, load: 0.33, replicas: 3}
	var p simTotals
	if err := runPass(&p, sc, 1, false, multicast, false, nil, 0, 0, 0); err != nil {
		return 0, err
	}
	// polyperf sums the rank-ordered series; float addition is not
	// associative, so sum in the same order.
	ranked := append([]float64(nil), p.gbps...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ranked)))
	if mean(ranked) == bench7MeanGoodputGbps {
		return 1, nil
	}
	return 0, nil
}
