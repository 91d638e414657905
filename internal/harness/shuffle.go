package harness

import (
	"flag"
	"fmt"
	"math"

	"polyraptor/internal/sim"
	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// ShuffleOptions is the many-to-many shuffle scenario: the
// full mapper×reducer transfer matrix started synchronously, measured
// by shuffle completion time (the slowest pair gates the job) and
// per-pair FCT percentiles. Polyraptor runs it as concurrently pulled
// sessions sharing each reducer's pull pacer; the TCP and DCTCP
// baselines run one flow per pair (the RepFlow-style multipath FCT
// reference point).
type ShuffleOptions struct {
	// FatTreeK is the fabric arity.
	FatTreeK int
	// Mappers and Reducers size the transfer matrix; the hosts are
	// drawn as disjoint random sets.
	Mappers, Reducers int
	// BytesPerPair is the mean partition size.
	BytesPerPair int64
	// Skew is the Zipf skew of partition sizes across reducers.
	Skew float64
	// StragglerFactor, when > 1, scales one mapper's partitions.
	StragglerFactor float64
}

// DefaultShuffleOptions is the shuffle default: a 4x4 matrix of
// mildly skewed 256 KB partitions on a k=4 fabric.
func DefaultShuffleOptions() ShuffleOptions {
	return ShuffleOptions{
		FatTreeK:     4,
		Mappers:      4,
		Reducers:     4,
		BytesPerPair: 256 << 10,
		Skew:         0.9,
	}
}

// Flags binds o's options to fs, each defaulting to its current value.
func (o *ShuffleOptions) Flags(fs *flag.FlagSet) {
	fs.IntVar(&o.FatTreeK, "k", o.FatTreeK, kUsage)
	fs.IntVar(&o.Mappers, "mappers", o.Mappers, "mapper count M")
	fs.IntVar(&o.Reducers, "reducers", o.Reducers, "reducer count R (M+R distinct hosts)")
	fs.Int64Var(&o.BytesPerPair, "bytes", o.BytesPerPair, "mean partition bytes per (mapper, reducer) pair")
	fs.Float64Var(&o.Skew, "skew", o.Skew, "Zipf skew of partition sizes across reducers (0 = uniform)")
	fs.Float64Var(&o.StragglerFactor, "straggler", o.StragglerFactor, "scale one mapper's partitions by this factor (0 = off)")
}

// Validate surfaces impossible shuffle configurations before anything
// runs.
func (o ShuffleOptions) Validate() error {
	if err := topology.CheckArity(o.FatTreeK); err != nil {
		return err
	}
	if err := o.config(0).Validate(topology.HostsFor(o.FatTreeK)); err != nil {
		return fmt.Errorf("k=%d: %w", o.FatTreeK, err)
	}
	return nil
}

// config is the workload draw of one seeded shuffle.
func (o ShuffleOptions) config(seed int64) workload.ShuffleConfig {
	return workload.ShuffleConfig{
		Mappers: o.Mappers, Reducers: o.Reducers, BytesPerPair: o.BytesPerPair,
		Skew: o.Skew, StragglerFactor: o.StragglerFactor, Seed: seed,
	}
}

// ShuffleRun is one shuffle's reduced measurements.
type ShuffleRun struct {
	// Backend names the transport.
	Backend string
	// CompletionTime is the shuffle completion time in seconds: the
	// max over pair completion times (the job-level metric).
	CompletionTime float64
	// PairFCT summarises per-pair flow completion times in seconds.
	PairFCT stats.Summary
	// GoodputGbps is aggregate goodput: total bytes over completion
	// time.
	GoodputGbps float64
	// TotalBytes is the volume moved.
	TotalBytes int64
}

func (o ShuffleOptions) Name() string { return "shuffle" }

func (o ShuffleOptions) Params() map[string]string {
	return flagParams(o.Flags, "k", "mappers", "reducers", "bytes")
}

func (o ShuffleOptions) LoadKnob() string { return "bytes_per_pair" }
func (o ShuffleOptions) Headline() string { return "goodput_gbps" }

// ScaleLoad scales the mean partition size.
func (o ShuffleOptions) ScaleLoad(mult float64) (Loadable, float64) {
	o.BytesPerPair = max(int64(math.Round(float64(o.BytesPerPair)*mult)), 1)
	return o, float64(o.BytesPerPair)
}

// Run runs one shuffle. The workload draw (hosts, partition matrix,
// straggler) depends only on the seed, so backends compare on
// identical matrices. Result.Detail is the ShuffleRun.
func (o ShuffleOptions) Run(env *Env) (Result, error) {
	ft, tr, err := env.Build(o.FatTreeK, nil, nil)
	if err != nil {
		return Result{}, err
	}
	env.Observe()
	sh := workload.GenerateShuffle(o.config(env.Seed), ft)
	pairs := o.Mappers * o.Reducers
	env.Offered(pairs)
	fcts := make([]float64, 0, pairs)
	var last sim.Time
	tr.Shuffle(sh.Mappers, sh.Reducers, sh.PairBytes, func(c store.Completion) {
		env.Flow(c)
		fcts = append(fcts, (c.End - c.Start).Seconds())
		last = max(last, c.End)
	})
	env.Drain(0)
	if len(fcts) != pairs {
		return Result{}, fmt.Errorf("harness: shuffle on %v finished %d/%d pairs (%v sessions still open)",
			env.Backend, len(fcts), pairs, tr.OpenSessions())
	}
	total := sh.TotalBytes()
	run := ShuffleRun{
		Backend:        env.Backend.String(),
		CompletionTime: last.Seconds(),
		PairFCT:        stats.Summarize(fcts),
		GoodputGbps:    gbps(total, last),
		TotalBytes:     total,
	}
	return Result{Metrics: shuffleMetrics(run), Detail: run}, nil
}

// shuffleMetrics reduces one run to the scalars a sweep aggregates.
func shuffleMetrics(r ShuffleRun) sweep.Metrics {
	return sweep.Metrics{
		"shuffle_s":      r.CompletionTime,
		"pair_fct_p50_s": r.PairFCT.P50,
		"pair_fct_p99_s": r.PairFCT.P99,
		"goodput_gbps":   r.GoodputGbps,
	}
}
