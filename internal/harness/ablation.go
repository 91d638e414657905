package harness

import (
	"fmt"
	"math/rand"
	"strconv"

	"polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/topology"
)

// Ablations quantify the design decisions the paper credits for
// Polyraptor's behaviour (A1–A4, defined with results in
// EXPERIMENTS.md "Ablations"). Each constructor returns the two arms
// of one ablation; run both on store.BackendPolyraptor at the same
// seed and compare. A1 is the Incast scenario with and without
// trimming; A2–A4 (and extension E1) are Sequence values.

// Sequence is Count transfers of Bytes each, one every Gap — spaced so
// they never contend, isolating per-transfer latency and efficiency —
// between endpoints Pick draws, optionally on a fabric with degraded
// core links and under a Polyraptor configuration override. Metrics
// are goodput_gbps (mean per-transfer goodput), fct_us (mean
// completion time) and degraded_links; Result.Detail is the mean
// completion time as a sim.Time.
type Sequence struct {
	// Label names the scenario; Stream names its RNG stream.
	Label, Stream string
	FatTreeK      int
	Count         int
	Gap           sim.Time
	Bytes         int64
	// Pick draws one transfer's endpoints: the servers, each holding
	// the full object, and the client that fetches it.
	Pick func(rng *rand.Rand, ft *topology.FatTree) (servers []int, client int, err error)
	// RQ, when non-nil, overrides the Polyraptor configuration.
	RQ *polyraptor.Config
	// DegradeDiv, when positive, slows DegradeFrac of the agg<->core
	// links to 1/DegradeDiv of their rate before the transfers start.
	DegradeFrac float64
	DegradeDiv  int64
}

func (q Sequence) Name() string { return q.Label }

func (q Sequence) Params() map[string]string {
	return map[string]string{"k": strconv.Itoa(q.FatTreeK)}
}

func (q Sequence) Validate() error {
	if err := topology.CheckArity(q.FatTreeK); err != nil {
		return err
	}
	if q.Count < 1 || q.Bytes < 1 {
		return fmt.Errorf("%s needs >= 1 transfer of >= 1 byte, got %d x %d", q.Label, q.Count, q.Bytes)
	}
	return nil
}

func (q Sequence) Run(env *Env) (Result, error) {
	ft, tr, err := env.Build(q.FatTreeK, nil, q.RQ)
	if err != nil {
		return Result{}, err
	}
	degraded := 0
	if q.DegradeDiv > 0 {
		degraded = ft.DegradeCoreLinks(q.DegradeFrac, q.DegradeDiv, env.Seed)
	}
	rng := sim.RNG(env.Seed, q.Stream)
	var goodputs []float64
	var total sim.Time
	for i := 0; i < q.Count; i++ {
		servers, client, err := q.Pick(rng, ft)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", q.Label, err)
		}
		ft.Net.Eng.At(sim.Time(i)*q.Gap, func() {
			start := ft.Net.Now()
			tr.MultiSource(servers, client, q.Bytes, func(c store.Completion) {
				if c.Left == 0 {
					total += c.End - start
					goodputs = append(goodputs, gbps(q.Bytes, c.End-start))
				}
			})
		})
	}
	ft.Net.Eng.Run()
	if len(goodputs) != q.Count {
		return Result{}, fmt.Errorf("harness: %s on %v finished %d/%d transfers", q.Label, env.Backend, len(goodputs), q.Count)
	}
	mean := total / sim.Time(q.Count)
	return Result{
		Metrics: sweep.Metrics{
			"goodput_gbps":   stats.Mean(goodputs),
			"fct_us":         float64(mean.Microseconds()),
			"degraded_links": float64(degraded),
		},
		Detail: mean,
	}, nil
}

// PickDistinct draws count distinct hosts that exclude does not
// reject, or fails when the fabric has too few (a bare rejection loop
// would spin forever).
func PickDistinct(rng *rand.Rand, hosts, count int, exclude func(h int) bool) ([]int, error) {
	eligible := 0
	for h := 0; h < hosts; h++ {
		if !exclude(h) {
			eligible++
		}
	}
	if count < 1 || count > eligible {
		return nil, fmt.Errorf("needs 1 <= servers <= %d eligible hosts, got %d", eligible, count)
	}
	out := make([]int, 0, count)
	for len(out) < count {
		p := rng.Intn(hosts)
		dup := exclude(p)
		for _, q := range out {
			dup = dup || q == p
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out, nil
}

// AblationTrim is A1 ("packet trimming along with RQ coding provide
// resilience"): one incast point with NDP trimming, and on drop-tail
// switches with the same shallow buffering.
func AblationTrim(k, senders int, bytes int64) (with, without Scenario) {
	return Incast{FatTreeK: k, Senders: senders, Bytes: bytes},
		Incast{FatTreeK: k, Senders: senders, Bytes: bytes, NoTrim: true}
}

// AblationInitWindow is A2: mean completion time of short uncontended
// flows with the paper's first-RTT window blast versus a pull-only
// start (InitWindow=1).
func AblationInitWindow(k int, flowBytes int64, flows int) (window, pullOnly Scenario) {
	arm := func(iw int) Scenario {
		cfg := polyraptor.DefaultConfig()
		cfg.InitWindow = iw
		return Sequence{
			Label: "ablation-initwindow", Stream: "ablation-iw",
			FatTreeK: k, Count: flows, Gap: 2e6, Bytes: flowBytes, RQ: &cfg,
			Pick: func(rng *rand.Rand, ft *topology.FatTree) ([]int, int, error) {
				src := rng.Intn(ft.NumHosts())
				dst := rng.Intn(ft.NumHosts())
				if dst == src {
					dst = (dst + 1) % ft.NumHosts()
				}
				return []int{src}, dst, nil
			},
		}
	}
	return arm(polyraptor.DefaultConfig().InitWindow), arm(1)
}

// AblationESI is A3: multi-source fetches from `senders` replicas with
// the paper's ESI partitioning (zero duplicates by construction)
// versus independent random seeding.
func AblationESI(k, senders, sessions int, bytes int64) (partitioned, random Scenario) {
	arm := func(randomESI bool) Scenario {
		cfg := polyraptor.DefaultConfig()
		cfg.RandomESI = randomESI
		cfg.InitWindow = 4 // emphasise the repair phase, where duplicates can occur
		return Sequence{
			Label: "ablation-esi", Stream: "ablation-part",
			FatTreeK: k, Count: sessions, Gap: 20e6, Bytes: bytes, RQ: &cfg,
			Pick: func(rng *rand.Rand, ft *topology.FatTree) ([]int, int, error) {
				client := rng.Intn(ft.NumHosts())
				peers, err := PickDistinct(rng, ft.NumHosts(), senders, func(h int) bool { return h == client })
				return peers, client, err
			},
		}
	}
	return arm(false), arm(true)
}

// AblationDecode is A4: unicast sessions with no decode cost versus a
// linear cost of nsPerSymbol applied at completion (the paper's
// "current work" question about encoding/decoding complexity).
func AblationDecode(k int, bytes, nsPerSymbol int64, sessions int) (free, costly Scenario) {
	arm := func(cfg polyraptor.Config) Scenario {
		return Sequence{
			Label: "ablation-decode", Stream: "ablation-dl",
			FatTreeK: k, Count: sessions, Gap: 10e6, Bytes: bytes, RQ: &cfg,
			Pick: func(rng *rand.Rand, ft *topology.FatTree) ([]int, int, error) {
				src := rng.Intn(ft.NumHosts())
				dst := (src + 1 + rng.Intn(ft.NumHosts()-1)) % ft.NumHosts()
				return []int{src}, dst, nil
			},
		}
	}
	slow := polyraptor.DefaultConfig()
	slow.DecodeLatency = func(kSym int) sim.Time { return sim.Time(int64(kSym) * nsPerSymbol) }
	return arm(polyraptor.DefaultConfig()), arm(slow)
}
