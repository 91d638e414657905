package harness

import (
	"fmt"
	"math"
	"strconv"

	"polyraptor/internal/netsim"
	"polyraptor/internal/sim"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// Incast is the Figure 1c scenario: Senders synchronized out-of-rack
// senders each transfer their own block of Bytes to one client; the
// goodput_gbps metric is total bytes over makespan. It also carries
// ablation A1 (NoTrim) and extension E4 (Oversubscribe).
type Incast struct {
	FatTreeK int
	Senders  int
	// Bytes is the block each sender transmits.
	Bytes int64
	// NoTrim runs Polyraptor on drop-tail switches with the same
	// shallow buffering instead of NDP packet trimming (ablation A1).
	NoTrim bool
	// Oversubscribe, when > 1, runs the ToR uplinks at 1/ratio of the
	// host link rate (extension E4).
	Oversubscribe int64
}

func (o Incast) Name() string { return "incast" }

func (o Incast) Params() map[string]string {
	return map[string]string{
		"k":       strconv.Itoa(o.FatTreeK),
		"senders": strconv.Itoa(o.Senders),
		"bytes":   strconv.FormatInt(o.Bytes, 10),
	}
}

func (o Incast) Validate() error {
	if err := topology.CheckArity(o.FatTreeK); err != nil {
		return err
	}
	if err := topology.CheckFanout(o.FatTreeK, o.Senders, "senders"); err != nil {
		return fmt.Errorf("incast %w", err)
	}
	if o.Bytes < 1 {
		return fmt.Errorf("incast needs bytes >= 1, got %d", o.Bytes)
	}
	return nil
}

func (o Incast) LoadKnob() string { return "senders" }
func (o Incast) Headline() string { return "goodput_gbps" }

// ScaleLoad scales the fan-in, clamped to the hosts a client has
// outside its rack.
func (o Incast) ScaleLoad(mult float64) (Loadable, float64) {
	n := int(math.Round(float64(o.Senders) * mult))
	o.Senders = min(max(n, 1), topology.OutOfRackHosts(o.FatTreeK))
	return o, float64(o.Senders)
}

func (o Incast) Run(env *Env) (Result, error) {
	ft, tr, err := env.Build(o.FatTreeK, func(c *netsim.Config) { c.Trimming = c.Trimming && !o.NoTrim }, nil)
	if err != nil {
		return Result{}, err
	}
	env.Observe()
	if o.Oversubscribe > 1 {
		ft.Oversubscribe(o.Oversubscribe)
	}
	ic := workload.GenerateIncast(workload.IncastConfig{Senders: o.Senders, BytesPerSender: o.Bytes, Seed: env.Seed}, ft)
	env.Offered(o.Senders)
	var last sim.Time
	done := 0
	each := func(c store.Completion) {
		env.Flow(c)
		last = max(last, c.End)
		done++
	}
	for _, s := range ic.Senders {
		tr.Unicast(s, ic.Client, ic.Bytes, each)
	}
	env.Drain(0)
	if done != o.Senders {
		return Result{}, fmt.Errorf("harness: incast on %v finished %d/%d flows", env.Backend, done, o.Senders)
	}
	return Result{Metrics: sweep.Metrics{"goodput_gbps": gbps(o.Bytes*int64(o.Senders), last)}}, nil
}

// IncastOptions parametrises Figure 1c.
type IncastOptions struct {
	// FatTreeK is the fabric arity.
	FatTreeK int
	// SenderCounts is the x-axis (paper: up to 70).
	SenderCounts []int
	// BytesPerSender are the block-size series (paper: 256 KB, 70 KB).
	BytesPerSender []int64
	// Repetitions is the number of seeds (paper: 5). Each repetition
	// runs under its own SplitMix-derived sub-seed (sweep.SubSeed), so
	// repetition streams are statistically independent.
	Repetitions int
	// Seed is the base seed.
	Seed int64
	// Trimming can be set false for ablation A1 (Polyraptor without
	// packet trimming).
	Trimming bool
	// Parallelism caps concurrent (point, repetition) runs in
	// Figure1c; <= 0 means GOMAXPROCS. Results are byte-identical at
	// any setting.
	Parallelism int
}

// DefaultIncastOptions mirrors Figure 1c at a fabric size that still
// fits the largest sender count.
func DefaultIncastOptions() IncastOptions {
	return IncastOptions{
		FatTreeK:       10,
		SenderCounts:   []int{2, 5, 10, 20, 30, 40, 50, 60, 70},
		BytesPerSender: []int64{256 << 10, 70 << 10},
		Repetitions:    5,
		Seed:           1,
		Trimming:       true,
	}
}

// BenchIncastOptions is sized for go test -bench.
func BenchIncastOptions() IncastOptions {
	return IncastOptions{
		FatTreeK:       4,
		SenderCounts:   []int{2, 4, 8, 12},
		BytesPerSender: []int64{256 << 10, 70 << 10},
		Repetitions:    3,
		Seed:           1,
		Trimming:       true,
	}
}

// Figure1c returns mean goodput with 95% CI error bars versus sender
// count, one series per (protocol, block size) — the paper's Figure 1c.
// Every (block size, protocol, sender count) point is one sweep cell
// run over Repetitions derived sub-seeds on the worker pool; the same
// repetition uses the same sub-seed for every point, so protocols are
// compared on paired workload draws.
func Figure1c(opt IncastOptions) ([]FigureSeries, error) {
	protos := []struct {
		label   string
		backend store.BackendKind
	}{{"RQ", store.BackendPolyraptor}, {"TCP", store.BackendTCP}}
	var cells []sweep.Cell
	for _, bytes := range opt.BytesPerSender {
		for _, proto := range protos {
			for _, n := range opt.SenderCounts {
				sc := Incast{FatTreeK: opt.FatTreeK, Senders: n, Bytes: bytes, NoTrim: !opt.Trimming}
				if err := sc.Validate(); err != nil {
					return nil, err
				}
				cell := SweepParams{}.cell(sc, proto.backend)
				cell.Backend = proto.label
				cells = append(cells, cell)
			}
		}
	}
	res, err := sweep.Matrix{
		Cells:       cells,
		Seeds:       opt.Repetitions,
		BaseSeed:    opt.Seed,
		Parallelism: opt.Parallelism,
	}.Run()
	if err != nil {
		return nil, fmt.Errorf("harness: incast sweep: %w", err)
	}

	var out []FigureSeries
	i := 0
	for _, bytes := range opt.BytesPerSender {
		for _, proto := range protos {
			se := FigureSeries{Label: fmt.Sprintf("%s %dKB", proto.label, bytes>>10)}
			for _, n := range opt.SenderCounts {
				a, ok := res.Cells[i].Metric("goodput_gbps")
				if !ok {
					return nil, fmt.Errorf("harness: incast point %s n=%d failed: %v",
						proto.label, n, res.Cells[i].Errors)
				}
				se.X = append(se.X, float64(n))
				se.Y = append(se.Y, a.Mean)
				se.YErr = append(se.YErr, a.CI95)
				i++
			}
			out = append(out, se)
		}
	}
	return out, nil
}
