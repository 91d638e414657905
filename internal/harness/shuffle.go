package harness

import (
	"fmt"
	"math"
	"strconv"

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

// DefaultShuffleOptions is the cmd/polyshuffle default: a medium
// fabric with an 8x8 matrix and mildly skewed partitions.
func DefaultShuffleOptions() ShuffleOptions {
	return ShuffleOptions{
		FatTreeK:     6,
		Mappers:      8,
		Reducers:     8,
		BytesPerPair: 256 << 10,
		Skew:         0.9,
	}
}

// Validate surfaces impossible shuffle configurations before anything
// runs.
func (o ShuffleOptions) Validate() error {
	if err := topology.CheckArity(o.FatTreeK); err != nil {
		return err
	}
	if o.Mappers < 1 || o.Reducers < 1 {
		return fmt.Errorf("shuffle needs >= 1 mapper and >= 1 reducer, got %dx%d", o.Mappers, o.Reducers)
	}
	if hosts := topology.HostsFor(o.FatTreeK); o.Mappers+o.Reducers > hosts {
		return fmt.Errorf("shuffle needs %d distinct hosts, k=%d fabric has %d",
			o.Mappers+o.Reducers, o.FatTreeK, hosts)
	}
	if o.BytesPerPair < 1 {
		return fmt.Errorf("shuffle needs bytes >= 1, got %d", o.BytesPerPair)
	}
	if o.Skew < 0 {
		return fmt.Errorf("shuffle skew must be non-negative, got %g", o.Skew)
	}
	if o.StragglerFactor != 0 && o.StragglerFactor < 1 {
		return fmt.Errorf("shuffle straggler factor must be 0 (off) or >= 1, got %g", o.StragglerFactor)
	}
	return nil
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
	return map[string]string{
		"k":        strconv.Itoa(o.FatTreeK),
		"mappers":  strconv.Itoa(o.Mappers),
		"reducers": strconv.Itoa(o.Reducers),
		"bytes":    strconv.FormatInt(o.BytesPerPair, 10),
	}
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
	sh := workload.GenerateShuffle(workload.ShuffleConfig{
		Mappers: o.Mappers, Reducers: o.Reducers, BytesPerPair: o.BytesPerPair,
		Skew: o.Skew, StragglerFactor: o.StragglerFactor, Seed: env.Seed,
	}, ft)
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
