package harness

import (
	"fmt"
	"math/rand"
	"strconv"

	"polyraptor/internal/netsim"
	"polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// Extension experiments for the paper's "current work" list (E1–E4
// and Ext-S, defined with results in EXPERIMENTS.md "Extensions"):
// network hotspots (E1, a Sequence), different application workloads
// (E2, FlowSizes), a DCTCP baseline (E3: Incast on
// store.BackendDCTCP), oversubscribed fabrics (E4:
// Incast.Oversubscribe) and straggler detachment (Ext-S, Straggler).

// Hotspot is E1: sequential (uncontended) cross-pod fetches from
// `senders` replicas while frac of the agg<->core links run at
// 1/divisor of their rate; the degraded_links metric counts them.
// Polyraptor sprays symbols over all equal-cost paths, so a hotspot
// costs it only its capacity share, and a multi-source session
// additionally shifts load toward replicas with healthy paths (the
// paper's "natural load balancing"); run it with one sender on
// store.BackendTCP for the hash-pinned flow that is stuck at the
// degraded rate once it lands on a degraded path.
func Hotspot(k int, frac float64, divisor int64, transfers int, bytes int64, senders int) Scenario {
	return Sequence{
		Label: "hotspot", Stream: "hotspot-pairs",
		FatTreeK: k, Count: transfers, Gap: 200e6, Bytes: bytes,
		DegradeFrac: frac, DegradeDiv: divisor,
		Pick: func(rng *rand.Rand, ft *topology.FatTree) ([]int, int, error) {
			client := rng.Intn(ft.NumHosts())
			// Cross-pod: every transfer must traverse the cores.
			peers, err := PickDistinct(rng, ft.NumHosts(), senders, func(h int) bool {
				return h == client || ft.Pod(h) == ft.Pod(client)
			})
			return peers, client, err
		},
	}
}

// FlowSizes is E2 ("different workloads"): a unicast permutation
// workload whose sizes follow an empirical distribution. Short flows
// ride the systematic first-RTT window; long flows exercise pull
// pacing. Result.Detail is the []FlowSizeBucket that exposes both.
type FlowSizes struct {
	FatTreeK int
	Dist     workload.SizeDist
	Sessions int
}

// FlowSizeBucket aggregates results for one flow-size class.
type FlowSizeBucket struct {
	Label string
	// MeanFCT is the mean flow completion time.
	MeanFCT sim.Time
	// MeanGoodput is the mean per-session goodput in Gbps.
	MeanGoodput float64
	// Count is the number of sessions in the bucket.
	Count int
}

func (f FlowSizes) Name() string { return "flowsizes-" + f.Dist.Name }

func (f FlowSizes) Params() map[string]string {
	return map[string]string{"k": strconv.Itoa(f.FatTreeK), "sessions": strconv.Itoa(f.Sessions)}
}

func (f FlowSizes) Validate() error {
	if err := topology.CheckArity(f.FatTreeK); err != nil {
		return err
	}
	if f.Sessions < 1 {
		return fmt.Errorf("flow sizes need sessions >= 1, got %d", f.Sessions)
	}
	return nil
}

func (f FlowSizes) Run(env *Env) (Result, error) {
	ft, tr, err := env.Build(f.FatTreeK, nil, nil)
	if err != nil {
		return Result{}, err
	}
	sessions := workload.Generate(workload.Config{
		Sessions:        f.Sessions,
		Lambda:          float64(ft.NumHosts()) * 0.2 * 1e9 / (8 * f.Dist.Mean()),
		Bytes:           1 << 20,
		BackgroundBytes: 1 << 20,
		Replicas:        1,
		Sizes:           &f.Dist,
		Seed:            env.Seed,
	}, ft)
	buckets := []FlowSizeBucket{{Label: "<100KB"}, {Label: "100KB-1MB"}, {Label: ">1MB"}}
	limits := []int64{100 << 10, 1 << 20, 1 << 62}
	completed := 0
	playSessions(ft, tr, sessions, PatternMulticast, func(s *workload.Session, fct sim.Time) {
		completed++
		for i, limit := range limits {
			if s.Bytes <= limit {
				buckets[i].Count++
				buckets[i].MeanFCT += fct
				buckets[i].MeanGoodput += gbps(s.Bytes, fct)
				break
			}
		}
	})
	ft.Net.Eng.Run()
	if completed != f.Sessions {
		return Result{}, fmt.Errorf("harness: %s on %v finished %d/%d sessions", f.Name(), env.Backend, completed, f.Sessions)
	}
	for i := range buckets {
		if n := buckets[i].Count; n > 0 {
			buckets[i].MeanFCT /= sim.Time(n)
			buckets[i].MeanGoodput /= float64(n)
		}
	}
	return Result{Metrics: sweep.Metrics{"sessions": float64(completed)}, Detail: buckets}, nil
}

// Straggler is Ext-S, the paper's proposed straggler-detachment
// extension: on an 8-host star, host 0 multicasts an object to hosts
// 1–3 while host 3 is crushed by four persistent background flows.
// With Detach the healthy receivers decouple from the straggler's
// pace. Result.Detail is the StragglerResult.
type Straggler struct {
	Detach bool
	Bytes  int64
}

// StragglerResult reports the straggler-detachment experiment.
type StragglerResult struct {
	// HealthyGoodput is the mean goodput of the unimpaired multicast
	// receivers.
	HealthyGoodput float64
	// StragglerGoodput is the impaired receiver's goodput.
	StragglerGoodput float64
	// Detached reports whether the impaired receiver was detached.
	Detached bool
}

func (s Straggler) Name() string { return "straggler" }

func (s Straggler) Params() map[string]string {
	return map[string]string{"detach": strconv.FormatBool(s.Detach)}
}

func (s Straggler) Validate() error {
	if s.Bytes < 1 {
		return fmt.Errorf("straggler needs bytes >= 1, got %d", s.Bytes)
	}
	return nil
}

func (s Straggler) Run(env *Env) (Result, error) {
	st := topology.NewStar(8, netsim.DefaultConfig())
	env.net = st.Net
	cfg := polyraptor.DefaultConfig()
	cfg.StragglerDetach = s.Detach
	tr, err := env.transport(st, &cfg)
	if err != nil {
		return Result{}, err
	}
	if tr.RQ == nil {
		return Result{}, fmt.Errorf("harness: straggler detachment is a Polyraptor extension; %v has no multicast group to leave", env.Backend)
	}
	const straggler = 3
	for src := 4; src <= 7; src++ {
		tr.Unicast(src, straggler, 4<<20, nil) // persistent background on the straggler
	}
	var res StragglerResult
	healthy := 0
	tr.Multicast(0, []int{1, 2, straggler}, s.Bytes, func(c store.Completion) {
		g := c.RQ.GoodputGbps()
		if c.RQ.Receiver == straggler {
			res.StragglerGoodput = g
			res.Detached = c.RQ.Detached
		} else {
			res.HealthyGoodput += g
			healthy++
		}
	})
	st.Net.Eng.Run()
	if healthy > 0 {
		res.HealthyGoodput /= float64(healthy)
	}
	return Result{
		Metrics: sweep.Metrics{"healthy_gbps": res.HealthyGoodput, "straggler_gbps": res.StragglerGoodput},
		Detail:  res,
	}, nil
}
