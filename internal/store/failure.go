package store

import (
	"polyraptor/internal/sim"
)

// FailMode selects the mid-run failure scenario.
type FailMode int

const (
	// FailNone runs without failures.
	FailNone FailMode = iota
	// FailServer kills one random storage server.
	FailServer
	// FailRack kills every server under one random edge switch — the
	// correlated failure rack-aware placement exists to survive.
	FailRack
)

// String returns the CLI/report name of the mode.
func (m FailMode) String() string {
	switch m {
	case FailNone:
		return "none"
	case FailServer:
		return "server"
	case FailRack:
		return "rack"
	}
	return "unknown"
}

// ParseFailMode maps a CLI name to a FailMode.
func ParseFailMode(name string) (FailMode, bool) {
	switch name {
	case "none":
		return FailNone, true
	case "server":
		return FailServer, true
	case "rack":
		return FailRack, true
	}
	return 0, false
}

// Recovery describes one failure and the re-replication storm that
// healed it.
type Recovery struct {
	// Mode is the injected failure kind (FailNone if the run had none).
	Mode FailMode
	// FailedHosts are the killed servers.
	FailedHosts []int
	// InjectedAt is when the hosts died; DetectedAt is when the storm
	// started (InjectedAt + DetectDelay).
	InjectedAt, DetectedAt sim.Time
	// LostReplicas is the number of objects that lost a replica. With
	// distinct-rack placement a single server or rack failure costs at
	// most one replica per object, so this equals the repair count.
	LostReplicas int
	// Repaired counts completed re-replication transfers.
	Repaired int
	// Unrepairable counts objects for which no eligible replacement
	// host existed (only possible when failures exhaust whole racks).
	Unrepairable int
	// CompletedAt is when the last repair finished.
	CompletedAt sim.Time
	// FullyReplicated reports whether every object ended with R alive
	// replicas in distinct racks.
	FullyReplicated bool
}

// Duration returns failure-to-full-replication time, the headline
// recovery metric.
func (r Recovery) Duration() sim.Time {
	if r.Mode == FailNone || r.CompletedAt < r.InjectedAt {
		return 0
	}
	return r.CompletedAt - r.InjectedAt
}

// injectFailure kills the configured victim set, strips it from the
// catalogue (so subsequent GETs immediately fail over to surviving
// replicas) and schedules the re-replication storm after the
// detection delay.
func (e *engine) injectFailure() {
	rng := sim.RNG(e.cfg.Seed, "store-failure")
	var victims []int
	switch e.cfg.FailMode {
	case FailServer:
		victims = []int{e.aliveVictim(rng)}
	case FailRack:
		rack := e.ft.RackOf(e.aliveVictim(rng))
		for _, h := range e.ft.RackHosts(rack) {
			if e.cat.Alive(h) {
				victims = append(victims, h)
			}
		}
	default:
		return
	}

	degraded := e.cat.Kill(victims)
	rec := &e.res.Recovery
	rec.Mode = e.cfg.FailMode
	rec.FailedHosts = victims
	rec.InjectedAt = e.ft.Net.Now()
	rec.DetectedAt = rec.InjectedAt + e.cfg.DetectDelay
	rec.LostReplicas = len(degraded)
	e.ft.Net.Eng.After(e.cfg.DetectDelay, func() { e.startRepairs(degraded) })
}

func (e *engine) aliveVictim(rng intner) int {
	for {
		h := rng.Intn(e.ft.NumHosts())
		if e.cat.Alive(h) {
			return h
		}
	}
}

// intner is the subset of *rand.Rand the victim picker needs.
type intner interface{ Intn(int) int }

// startRepairs plans the re-replication storm: every degraded object
// gets a replacement host (restoring the distinct-rack invariant) and
// a source — the surviving replica with the fewest repairs already
// assigned, so the storm spreads across source hosts. Each source
// serves its queue sequentially (the HDFS-style per-node repair
// throttle); sources run in parallel, which is what makes it a storm.
func (e *engine) startRepairs(degraded []int) {
	rng := sim.RNG(e.cfg.Seed, "store-repair")
	rec := &e.res.Recovery
	load := map[int]int{}
	var sources []int // first-assignment order: map iteration would be nondeterministic
	for _, id := range degraded {
		srcs := e.cat.AliveReplicas(id)
		if len(srcs) == 0 {
			rec.Unrepairable++
			continue
		}
		dst := e.cat.PlaceRepair(rng, id)
		if dst < 0 {
			rec.Unrepairable++
			continue
		}
		src := srcs[0]
		for _, s := range srcs[1:] {
			if load[s] < load[src] || (load[s] == load[src] && s < src) {
				src = s
			}
		}
		if load[src] == 0 {
			sources = append(sources, src)
		}
		load[src]++
		e.repairQ[src] = append(e.repairQ[src], repair{object: id, dst: dst})
		e.repairsLeft++
	}
	if e.repairsLeft == 0 {
		rec.CompletedAt = e.ft.Net.Now()
		rec.FullyReplicated = e.cat.FullyReplicated(e.cfg.Replicas)
		return
	}
	for _, src := range sources {
		e.nextRepair(src)
	}
}

// nextRepair pops one repair off src's queue and runs it; completion
// registers the new replica and chains to the next queued repair.
func (e *engine) nextRepair(src int) {
	q := e.repairQ[src]
	if len(q) == 0 {
		return
	}
	r := q[0]
	e.repairQ[src] = q[1:]
	start := e.ft.Net.Now()
	bytes := e.cat.Object(r.object).Bytes
	e.tr.Unicast(src, r.dst, bytes, func(Completion) {
		e.cat.AddReplica(r.object, r.dst)
		rec := &e.res.Recovery
		rec.Repaired++
		e.res.Repairs = append(e.res.Repairs, Xfer{
			Object: r.object, Client: r.dst, Bytes: bytes,
			Start: start, End: e.ft.Net.Now(),
		})
		e.repairsLeft--
		if e.repairsLeft == 0 {
			rec.CompletedAt = e.ft.Net.Now()
			rec.FullyReplicated = e.cat.FullyReplicated(e.cfg.Replicas)
		}
		e.nextRepair(src)
	})
}
