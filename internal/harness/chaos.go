package harness

import (
	"flag"
	"fmt"
	"slices"
	"time"

	"polyraptor/internal/chaos"
	"polyraptor/internal/sim"
	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// Chaos experiment: run a traffic pattern while a seeded fault plan
// executes mid-flow on the sim timeline, and compare how each
// transport degrades. Polyraptor sprays per packet and recodes around
// losses, so any surviving path carries the session; a hash-pinned
// TCP flow routed into a remote blackhole is stranded until (unless)
// the fault heals. Runs are bounded by a deadline: a flow that has
// not completed by then counts as stalled, the honest way to score a
// transport that would otherwise retransmit into a hole forever.

// ChaosPatterns lists the traffic patterns ChaosOptions accepts.
func ChaosPatterns() []string {
	return []string{"one2one", "incast", "multicast", "shuffle"}
}

// ChaosOptions is the chaos scenario. Result.Detail is the ChaosRun.
type ChaosOptions struct {
	// FatTreeK is the fabric arity.
	FatTreeK int
	// Pattern is the traffic pattern: one2one (Flows cross-pod unicast
	// transfers), incast (Senders -> 1), multicast (1 -> Replicas; TCP
	// runs multi-unicast), or shuffle (Mappers x Reducers).
	Pattern string
	// Flows is the transfer count for the one2one pattern.
	Flows int
	// Senders is the incast fan-in.
	Senders int
	// Replicas is the multicast fan-out.
	Replicas int
	// Mappers and Reducers size the shuffle matrix.
	Mappers, Reducers int
	// Bytes is the object size (per flow / sender / receiver / pair).
	Bytes int64
	// Fault is the fault plan; its Seed is overridden by the run seed
	// so sweep repetitions draw independent targets.
	Fault chaos.Plan
	// Deadline bounds the run in sim time. Transfers not complete by
	// then are stalled. It must exceed Fault.FailAt.
	Deadline sim.Time
}

// DefaultChaosOptions is the chaos default: a k=4 fabric, 6 cross-pod
// flows of 256 KB, a quarter of the core links blackholed 500 µs in
// (mid-flow at 1 Gbps), never healed, scored at a 1 s deadline.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		FatTreeK: 4,
		Pattern:  "one2one",
		Flows:    6,
		Senders:  8,
		Replicas: 3,
		Mappers:  4,
		Reducers: 4,
		Bytes:    256 << 10,
		Fault: chaos.Plan{
			Kind:   chaos.KindLinkDown,
			Layer:  chaos.LayerCore,
			Frac:   0.25,
			FailAt: 500 * time.Microsecond,
		},
		Deadline: time.Second,
	}
}

// Flags binds o's options to fs, each defaulting to its current value;
// the pattern, fault and deadline options after prefix ("chaos-" in poly
// sweep, whose other scenarios share the sizes).
func (o *ChaosOptions) Flags(fs *flag.FlagSet, prefix string) {
	fs.IntVar(&o.FatTreeK, "k", o.FatTreeK, kUsage)
	fs.IntVar(&o.Senders, "senders", o.Senders, "incast: fan-in")
	fs.IntVar(&o.Replicas, "replicas", o.Replicas, "multicast: fan-out")
	fs.IntVar(&o.Mappers, "mappers", o.Mappers, "shuffle: mapper count")
	fs.IntVar(&o.Reducers, "reducers", o.Reducers, "shuffle: reducer count")
	fs.Int64Var(&o.Bytes, "bytes", o.Bytes, "object bytes per flow/sender/receiver/pair")
	fs.StringVar(&o.Pattern, prefix+"pattern", o.Pattern, "chaos traffic pattern: one2one, incast, multicast, shuffle")
	fs.IntVar(&o.Flows, prefix+"flows", o.Flows, "chaos one2one: cross-pod flow count")
	f := &o.Fault
	fs.TextVar(&f.Kind, prefix+"fault", f.Kind, "fault kind: link (blackhole), switch (kill), loss, flap")
	fs.TextVar(&f.Layer, prefix+"layer", f.Layer, "fault's fabric tier: core, agg, host")
	fs.Float64Var(&f.Frac, prefix+"frac", f.Frac, "fraction of the tier's links/switches to strike")
	fs.DurationVar(&f.FailAt, prefix+"fail-at", f.FailAt, "when the fault strikes (sim time)")
	fs.DurationVar(&f.RecoverAt, prefix+"recover-at", f.RecoverAt, "when it heals (0 = never; required for flap)")
	fs.DurationVar(&f.FlapPeriod, prefix+"flap-period", f.FlapPeriod, "flap: full down+up cycle length")
	fs.Float64Var(&f.LossRate, prefix+"loss-rate", f.LossRate, "loss: per-frame destruction probability (0, 1]")
	fs.DurationVar(&o.Deadline, prefix+"deadline", o.Deadline, "chaos sim-time budget; incomplete flows count as stalled")
}

// Validate surfaces impossible chaos configurations before anything
// runs.
func (o ChaosOptions) Validate() error {
	if err := topology.CheckArity(o.FatTreeK); err != nil {
		return err
	}
	switch o.Pattern {
	case "one2one":
		if o.Flows < 1 {
			return fmt.Errorf("chaos one2one needs flows >= 1, got %d", o.Flows)
		}
		if 2*o.Flows > topology.HostsFor(o.FatTreeK) {
			return fmt.Errorf("chaos one2one needs %d distinct hosts, k=%d fabric has %d",
				2*o.Flows, o.FatTreeK, topology.HostsFor(o.FatTreeK))
		}
	case "incast":
		if err := topology.CheckFanout(o.FatTreeK, o.Senders, "senders"); err != nil {
			return err
		}
	case "multicast":
		if err := topology.CheckFanout(o.FatTreeK, o.Replicas, "replicas"); err != nil {
			return err
		}
	case "shuffle":
		opt := ShuffleOptions{
			FatTreeK: o.FatTreeK, Mappers: o.Mappers, Reducers: o.Reducers,
			BytesPerPair: o.Bytes,
		}
		if err := opt.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown chaos pattern %q (have %v)", o.Pattern, ChaosPatterns())
	}
	if o.Bytes < 1 {
		return fmt.Errorf("chaos needs bytes >= 1, got %d", o.Bytes)
	}
	if o.Deadline <= 0 {
		return fmt.Errorf("chaos needs a positive deadline, got %v", o.Deadline)
	}
	if o.Deadline <= o.Fault.FailAt {
		return fmt.Errorf("chaos deadline %v must exceed fault time %v", o.Deadline, o.Fault.FailAt)
	}
	plan := o.Fault
	plan.Seed = 1 // seed is injected per run; validate the rest
	return plan.Validate()
}

// ChaosRun is one transport's measurements under one executed fault
// plan.
type ChaosRun struct {
	// Backend names the transport.
	Backend string
	// Flows is the expected completion count (sessions for one2one/
	// incast, receivers for multicast, pairs for shuffle).
	Flows int
	// Completed and Stalled partition Flows at the deadline.
	Completed int
	Stalled   int
	// Partitioned counts the stalled flows that no transport could have
	// finished: at the deadline the routes left no live path between
	// their endpoints, in one direction or the other
	// (netsim.Network.Reachable).
	Partitioned int
	// FCT summarises completion times in seconds, completed flows
	// only (a stalled flow has no finite FCT).
	FCT stats.Summary
	// GoodputGbps is completed bytes over the makespan (last
	// completion, or the deadline when anything stalled).
	GoodputGbps float64
	// FaultTargets names the links/switches the plan struck and
	// FaultEvents logs every fault action executed before the deadline,
	// in timeline order. Both depend only on the plan and the seed.
	FaultTargets []string
	FaultEvents  []chaos.Event
	// RouteDrops counts packets blackholed at switches (no live
	// route, or a killed switch) — the fault signature.
	RouteDrops int64
	// LinkDrops counts packets destroyed on down or lossy links.
	LinkDrops int64
	// QueueDrops counts ordinary congestion drops, for contrast.
	QueueDrops int64
	// Trimmed counts NDP header trims (Polyraptor runs only).
	Trimmed int64
}

// StallRate is the fraction of flows still incomplete at the
// deadline.
func (r ChaosRun) StallRate() float64 {
	if r.Flows == 0 {
		return 0
	}
	return float64(r.Stalled) / float64(r.Flows)
}

// chaosWorkload is the per-seed transfer list shared by every
// backend: sources, destinations and sizes drawn once per seed so
// transports are compared on identical workloads and fault draws.
// Every pattern — the shuffle matrix included — flattens to this
// shape; only the multicast pattern needs extra structure (one group
// session on rq), signalled explicitly by ChaosOptions.Pattern.
type chaosWorkload struct {
	srcs, dsts []int
	bytes      []int64
}

// one2onePairs draws Flows cross-pod (src, dst) pairs over distinct
// hosts. Cross-pod forces every transfer through the core layer,
// where the default fault plan strikes.
func one2onePairs(ft *topology.FatTree, flows int, seed int64) (chaosWorkload, error) {
	rng := sim.RNG(seed, "chaos-pairs")
	perm := rng.Perm(ft.NumHosts())
	var w chaosWorkload
	used := make([]bool, ft.NumHosts())
	for i := 0; i < flows; i++ {
		src := perm[i]
		used[src] = true
	}
	next := flows
	for i := 0; i < flows; i++ {
		src := perm[i]
		dst := -1
		// First unused host from the permutation tail in a different
		// pod; fall back to any unused host when the draw is exhausted
		// (tiny fabrics where a pod holds most remaining hosts).
		for j := next; j < len(perm); j++ {
			if !used[perm[j]] && ft.Pod(perm[j]) != ft.Pod(src) {
				dst = perm[j]
				break
			}
		}
		if dst < 0 {
			for j := next; j < len(perm); j++ {
				if !used[perm[j]] {
					dst = perm[j]
					break
				}
			}
		}
		if dst < 0 {
			return w, fmt.Errorf("harness: chaos one2one ran out of hosts drawing flow %d of %d", i+1, flows)
		}
		used[dst] = true
		w.srcs = append(w.srcs, src)
		w.dsts = append(w.dsts, dst)
	}
	return w, nil
}

// drawChaosWorkload materialises the pattern's transfers for one seed.
func drawChaosWorkload(o ChaosOptions, ft *topology.FatTree, seed int64) (chaosWorkload, error) {
	switch o.Pattern {
	case "one2one":
		w, err := one2onePairs(ft, o.Flows, seed)
		for range w.srcs {
			w.bytes = append(w.bytes, o.Bytes)
		}
		return w, err
	case "incast":
		ic := workload.GenerateIncast(workload.IncastConfig{
			Senders: o.Senders, BytesPerSender: o.Bytes, Seed: seed,
		}, ft)
		var w chaosWorkload
		for _, s := range ic.Senders {
			w.srcs = append(w.srcs, s)
			w.dsts = append(w.dsts, ic.Client)
			w.bytes = append(w.bytes, ic.Bytes)
		}
		return w, nil
	case "multicast":
		// One writer replicating to Replicas out-of-rack receivers —
		// the PolyStore PUT pattern under faults.
		rng := sim.RNG(seed, "chaos-multicast")
		src := rng.Intn(ft.NumHosts())
		dsts, err := PickDistinct(rng, ft.NumHosts(), o.Replicas, func(h int) bool { return ft.SameRack(src, h) })
		w := chaosWorkload{dsts: dsts}
		for range dsts {
			w.srcs = append(w.srcs, src)
			w.bytes = append(w.bytes, o.Bytes)
		}
		return w, err
	case "shuffle":
		sh := workload.GenerateShuffle(workload.ShuffleConfig{
			Mappers: o.Mappers, Reducers: o.Reducers,
			BytesPerPair: o.Bytes, Seed: seed,
		}, ft)
		var w chaosWorkload
		for mi, m := range sh.Mappers {
			for ri, r := range sh.Reducers {
				w.srcs = append(w.srcs, m)
				w.dsts = append(w.dsts, r)
				w.bytes = append(w.bytes, sh.Bytes[mi][ri])
			}
		}
		return w, nil
	}
	return chaosWorkload{}, fmt.Errorf("unknown chaos pattern %q (have %v)", o.Pattern, ChaosPatterns())
}

func (o ChaosOptions) Name() string { return "chaos" }

func (o ChaosOptions) Params() map[string]string {
	return flagParams(func(fs *flag.FlagSet) { o.Flags(fs, "") }, "k", "pattern", "fault", "layer", "frac")
}

// Run runs one transport under the fault plan for one seed. The
// workload draw and the fault targets depend only on the seed, so
// backends compare on identical scenarios.
func (o ChaosOptions) Run(env *Env) (Result, error) {
	ft, tr, err := env.Build(o.FatTreeK, nil, nil)
	if err != nil {
		return Result{}, err
	}
	env.Observe()
	plan := o.Fault
	plan.Seed = env.Seed
	inj, err := chaos.Inject(ft, plan)
	if err != nil {
		return Result{}, err
	}
	w, err := drawChaosWorkload(o, ft, env.Seed)
	if err != nil {
		return Result{}, err
	}

	run := ChaosRun{Backend: env.Backend.String(), FaultTargets: inj.Targets, Flows: len(w.srcs)}
	env.Offered(run.Flows)
	var fcts []float64
	// got.done marks finished flows by workload index: a fresh system
	// numbers its flows from 0 in start order on either transport, and
	// rq multicast is one session whose receivers are w.dsts.
	var got struct {
		bytes int64
		last  sim.Time
		done  []bool
	}
	got.done = make([]bool, run.Flows)
	rqMulticast := env.Backend == store.BackendPolyraptor && o.Pattern == "multicast"
	dsts := w.dsts
	each := func(c store.Completion) {
		env.Flow(c)
		run.Completed++
		got.bytes += c.Bytes
		fcts = append(fcts, (c.End - c.Start).Seconds())
		got.last = max(got.last, c.End)
		i, dst := int(c.TCP.Flow), c.TCP.Dst
		if env.Backend == store.BackendPolyraptor {
			i, dst = int(c.RQ.Flow), c.RQ.Receiver
			if rqMulticast {
				i = slices.Index(dsts, dst)
			}
		}
		if i < 0 || i >= len(dsts) || dsts[i] != dst {
			panic(fmt.Sprintf("harness: chaos completion of flow %d at host %d matches no transfer", i, dst))
		}
		got.done[i] = true
	}
	// FCTs are per transfer on every pattern; multicast completes once
	// per receiver on both transports (rq runs one group session, TCP
	// multi-unicasts).
	if o.Pattern == "multicast" {
		tr.Multicast(w.srcs[0], w.dsts, w.bytes[0], each)
	} else {
		for i := range w.srcs {
			tr.Unicast(w.srcs[i], w.dsts[i], w.bytes[i], each)
		}
	}
	env.Drain(o.Deadline)

	run.FaultEvents = inj.Events
	run.Stalled = run.Flows - run.Completed
	if run.Stalled > 0 {
		for i, done := range got.done {
			if !done && !(ft.Net.Reachable(w.srcs[i], w.dsts[i]) && ft.Net.Reachable(w.dsts[i], w.srcs[i])) {
				run.Partitioned++
			}
		}
	}
	run.FCT = stats.Summarize(fcts)
	makespan := got.last
	if run.Stalled > 0 {
		makespan = o.Deadline
	}
	run.GoodputGbps = gbps(got.bytes, makespan)
	tot := ft.Net.QueueTotals()
	run.RouteDrops = tot.RouteDrops
	run.LinkDrops = tot.LinkDrops
	run.QueueDrops = tot.Dropped
	run.Trimmed = tot.Trimmed
	return Result{Metrics: chaosMetrics(run), Detail: run}, nil
}

// chaosMetrics reduces one run to the scalars a sweep aggregates. The
// FCT percentiles are omitted when nothing completed: a zero would
// read as instant completion for exactly the backend that performed
// worst, and the sweep engine aggregates ragged keys per sample (the
// aggregate's N shows how many seeds contributed).
func chaosMetrics(r ChaosRun) sweep.Metrics {
	m := sweep.Metrics{
		"completed":     float64(r.Completed),
		"stalled":       float64(r.Stalled),
		"partitioned":   float64(r.Partitioned),
		"stall_rate":    r.StallRate(),
		"goodput_gbps":  r.GoodputGbps,
		"blackholed":    float64(r.RouteDrops),
		"link_drops":    float64(r.LinkDrops),
		"queue_drops":   float64(r.QueueDrops),
		"fault_targets": float64(len(r.FaultTargets)),
	}
	if r.Completed > 0 {
		m["fct_p50_s"] = r.FCT.P50
		m["fct_p99_s"] = r.FCT.P99
	}
	return m
}
