package harness

import (
	"fmt"
	"strconv"

	"polyraptor/internal/sim"
	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// Scale selects the experiment size. The paper's full scale (k=10,
// 10,000 x 4 MB sessions) is minutes of CPU; the scaled defaults
// preserve per-host offered load and therefore the figures' shape.
type Scale struct {
	// FatTreeK is the fat-tree arity (paper: 10 -> 250 hosts).
	FatTreeK int
	// Sessions is the total session count (paper: 10,000).
	Sessions int
	// Bytes is the foreground object size (paper: 4 MB).
	Bytes int64
	// LoadFactor is the target per-host offered load as a fraction of
	// link rate; lambda is derived from it so scaled-down runs keep the
	// paper's utilisation (~0.33 at paper parameters).
	LoadFactor float64
	// Seed is the base seed of Figure1a/Figure1b (Run takes its seed
	// as an argument).
	Seed int64
}

// PaperScale reproduces the figure captions exactly.
func PaperScale() Scale {
	return Scale{FatTreeK: 10, Sessions: 10000, Bytes: 4 << 20, LoadFactor: 0.33, Seed: 1}
}

// BenchScale is small enough for go test -bench while preserving load
// and shape.
func BenchScale() Scale {
	return Scale{FatTreeK: 4, Sessions: 150, Bytes: 512 << 10, LoadFactor: 0.33, Seed: 1}
}

// lambda converts the load factor to a Poisson arrival rate.
// deliveredMult is the average bytes delivered to host downlinks per
// session byte: replicating a session to R receivers over multicast
// delivers R copies, so arrival rate must scale down by the mix-
// weighted multiplier to keep *delivered* load (and hence queueing
// behaviour) constant across replica counts. At 1 replica and paper
// parameters this evaluates to λ ≈ 2500/s — the paper's quoted 2560.
// The paper reuses one λ for both replica counts, which at 3 replicas
// puts offered downlink load above capacity; we normalise instead and
// record the deviation in EXPERIMENTS.md.
func (s Scale) lambda(linkRate int64, deliveredMult float64) float64 {
	hosts := float64(topology.HostsFor(s.FatTreeK))
	return s.LoadFactor * hosts * float64(linkRate) / (8 * float64(s.Bytes) * deliveredMult)
}

func (s Scale) workloadConfig(linkRate int64, pattern Pattern, replicas int, seed int64) workload.Config {
	mult := 1.0
	if pattern == PatternMulticast {
		// 80% of sessions deliver `replicas` copies; 20% background
		// delivers one.
		mult = 0.8*float64(replicas) + 0.2
	}
	return workload.Config{
		Sessions:        s.Sessions,
		Lambda:          s.lambda(linkRate, mult),
		Bytes:           s.Bytes,
		BackgroundBytes: s.Bytes,
		BackgroundFrac:  0.20,
		Replicas:        replicas,
		Seed:            seed,
	}
}

// Pattern is the foreground transfer pattern of Figures 1a/1b.
type Pattern int

const (
	// PatternMulticast is Figure 1a: client replicates one object to
	// R servers (RQ: multicast; TCP: multi-unicast).
	PatternMulticast Pattern = iota
	// PatternMultiSource is Figure 1b: client fetches one object
	// available at R servers (RQ: multi-source; TCP: uncoordinated
	// 1/R partial fetches).
	PatternMultiSource
)

// Fig1 is the Figure 1a/1b scenario: Poisson session arrivals on a
// permutation traffic matrix, 20% background unicast, foreground
// sessions following Pattern to Replicas out-of-rack peers.
// Result.Detail is the per-foreground-session goodputs ranked
// descending ([]float64).
type Fig1 struct {
	Scale
	Pattern  Pattern
	Replicas int
}

// Name is fig1a for the multicast pattern, fig1b for multi-source.
func (f Fig1) Name() string {
	if f.Pattern == PatternMultiSource {
		return "fig1b"
	}
	return "fig1a"
}

func (f Fig1) Params() map[string]string {
	return map[string]string{
		"k":        strconv.Itoa(f.FatTreeK),
		"replicas": strconv.Itoa(f.Replicas),
		"sessions": strconv.Itoa(f.Sessions),
	}
}

func (f Fig1) Validate() error {
	if err := topology.CheckArity(f.FatTreeK); err != nil {
		return err
	}
	if err := topology.CheckFanout(f.FatTreeK, f.Replicas, "replicas"); err != nil {
		return fmt.Errorf("%s %w", f.Name(), err)
	}
	if f.Sessions < 1 {
		return fmt.Errorf("%s needs sessions >= 1, got %d", f.Name(), f.Sessions)
	}
	if f.LoadFactor <= 0 {
		return fmt.Errorf("%s needs load > 0, got %g", f.Name(), f.LoadFactor)
	}
	if f.Bytes < 1 {
		return fmt.Errorf("%s needs bytes >= 1, got %d", f.Name(), f.Bytes)
	}
	return nil
}

func (f Fig1) LoadKnob() string { return "load_factor" }
func (f Fig1) Headline() string { return "goodput_mean_gbps" }

func (f Fig1) ScaleLoad(mult float64) (Loadable, float64) {
	f.LoadFactor *= mult
	return f, f.LoadFactor
}

func (f Fig1) Run(env *Env) (Result, error) {
	ft, tr, err := env.Build(f.FatTreeK, nil, nil)
	if err != nil {
		return Result{}, err
	}
	sessions := workload.Generate(f.workloadConfig(ft.Net.Cfg.LinkRate, f.Pattern, f.Replicas, env.Seed), ft)
	goodputs := make([]float64, 0, len(sessions))
	playSessions(ft, tr, sessions, f.Pattern, func(s *workload.Session, fct sim.Time) {
		goodputs = append(goodputs, gbps(s.Bytes, fct))
	})
	ft.Net.Eng.Run()
	goodputs = stats.RankSeries(goodputs)
	// Fig1 reports per-session goodput, not raw FCTs; meter the
	// sessions from the goodputs (fct = bytes over goodput).
	env.Offered(len(goodputs))
	for _, g := range goodputs {
		env.mt.flow(fctFromGoodput(f.Bytes, g), g)
	}
	sum := stats.Summarize(goodputs)
	return Result{Detail: goodputs, Metrics: sweep.Metrics{
		"goodput_mean_gbps": sum.Mean,
		"goodput_p50_gbps":  sum.P50,
		"goodput_p99_gbps":  sum.P99,
		"goodput_min_gbps":  sum.Min,
	}}, nil
}

// playSessions schedules every session at its arrival time: background
// sessions as unobserved unicast filler, foreground sessions between
// the client and its peers following pattern (a single-peer multicast
// is a plain unicast). done receives each finished foreground session
// with its completion time.
func playSessions(ft *topology.FatTree, tr *store.Transport, sessions []workload.Session, pattern Pattern, done func(s *workload.Session, fct sim.Time)) {
	for i := range sessions {
		s := &sessions[i]
		ft.Net.Eng.At(s.Start, func() {
			if s.Kind == workload.Background {
				tr.Unicast(s.Client, s.Peers[0], s.Bytes, nil)
				return
			}
			start := ft.Net.Now()
			group := int32(-1)
			each := func(c store.Completion) {
				if c.Left > 0 {
					return
				}
				// Thousands of sessions share the fabric: a multicast
				// group's forwarding state goes with its session.
				ft.RemoveMulticastGroup(group)
				done(s, c.End-start)
			}
			switch {
			case pattern == PatternMultiSource:
				tr.MultiSource(s.Peers, s.Client, s.Bytes, each)
			case len(s.Peers) == 1:
				tr.Unicast(s.Client, s.Peers[0], s.Bytes, each)
			default:
				group = tr.Multicast(s.Client, s.Peers, s.Bytes, each)
			}
		})
	}
}

// FigureSeries is one labelled curve of a figure.
type FigureSeries struct {
	Label string
	// X values (session rank for 1a/1b; sender count for 1c).
	X []float64
	// Y values (goodput in Gbps).
	Y []float64
	// YErr holds 95% CI half-widths (Figure 1c), nil otherwise.
	YErr []float64
}

// Figure1a returns the four curves of Figure 1a (1/3 replicas x
// RQ/TCP), each ranked descending and downsampled to at most maxPoints
// points.
func Figure1a(sc Scale, maxPoints int) ([]FigureSeries, error) {
	return figure1(sc, PatternMulticast, maxPoints, "Replica")
}

// Figure1b returns the four curves of Figure 1b (1/3 senders x
// RQ/TCP).
func Figure1b(sc Scale, maxPoints int) ([]FigureSeries, error) {
	return figure1(sc, PatternMultiSource, maxPoints, "Sender")
}

func figure1(sc Scale, pattern Pattern, maxPoints int, noun string) ([]FigureSeries, error) {
	// The four curves are independent simulations; run them on the
	// sweep worker pool, each writing its pre-assigned slot so the
	// series order (and content) is identical to the serial loop.
	type arm struct {
		replicas int
		backend  store.BackendKind
		proto    string
	}
	arms := []arm{
		{1, store.BackendPolyraptor, "RQ"}, {1, store.BackendTCP, "TCP"},
		{3, store.BackendPolyraptor, "RQ"}, {3, store.BackendTCP, "TCP"},
	}
	out := make([]FigureSeries, len(arms))
	errs := make([]error, len(arms))
	sweep.ForEach(len(arms), 0, func(i int) {
		a := arms[i]
		res, err := Run(Fig1{Scale: sc, Pattern: pattern, Replicas: a.replicas}, a.backend, sc.Seed, Observers{})
		if err != nil {
			errs[i] = err
			return
		}
		plural := ""
		if a.replicas > 1 {
			plural = "s"
		}
		ys := stats.Downsample(res.Detail.([]float64), maxPoints)
		out[i] = FigureSeries{
			Label: fmt.Sprintf("%d %s%s %s", a.replicas, noun, plural, a.proto),
			X:     ranksFor(len(ys), sc.Sessions),
			Y:     ys,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func ranksFor(n, total int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		if n > 1 {
			xs[i] = float64(i) * float64(total-1) / float64(n-1)
		}
	}
	return xs
}
