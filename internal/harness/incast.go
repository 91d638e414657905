package harness

import (
	"flag"
	"fmt"
	"math"

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

// DefaultIncast is the incast default: 8 senders of 256 KB on a k=4 fabric.
func DefaultIncast() Incast { return Incast{FatTreeK: 4, Senders: 8, Bytes: 256 << 10} }

// Flags binds o's options to fs, each defaulting to its current value.
func (o *Incast) Flags(fs *flag.FlagSet) {
	fs.IntVar(&o.FatTreeK, "k", o.FatTreeK, kUsage)
	fs.IntVar(&o.Senders, "senders", o.Senders, "incast fan-in")
	fs.Int64Var(&o.Bytes, "bytes", o.Bytes, "bytes per sender")
}

func (o Incast) Name() string { return "incast" }

func (o Incast) Params() map[string]string { return flagParams(o.Flags, "k", "senders", "bytes") }

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

// fig1cBytes are Figure 1c's block sizes, one series each per
// protocol: the paper's 256 KB and 70 KB.
var fig1cBytes = []int64{256 << 10, 70 << 10}

// Figure1c returns mean goodput with 95% CI error bars versus sender
// count, one series per (protocol, block size) — the paper's Figure 1c.
// Each point is base with its Senders and Bytes set, one sweep cell run
// over reps sub-seeds of seed (sweep.SubSeed) on the worker pool; the
// same repetition uses the same sub-seed for every point, so protocols
// are compared on paired workload draws.
func Figure1c(base Incast, senders []int, reps int, seed int64) ([]FigureSeries, error) {
	protos := []struct {
		label   string
		backend store.BackendKind
	}{{"RQ", store.BackendPolyraptor}, {"TCP", store.BackendTCP}}
	var cells []sweep.Cell
	for _, bytes := range fig1cBytes {
		for _, proto := range protos {
			for _, n := range senders {
				sc := base
				sc.Senders, sc.Bytes = n, bytes
				if err := sc.Validate(); err != nil {
					return nil, err
				}
				cell := SweepParams{}.cell(sc, proto.backend)
				cell.Backend = proto.label
				cells = append(cells, cell)
			}
		}
	}
	res, err := sweep.Matrix{Cells: cells, Seeds: reps, BaseSeed: seed}.Run()
	if err != nil {
		return nil, fmt.Errorf("harness: incast sweep: %w", err)
	}

	var out []FigureSeries
	i := 0
	for _, bytes := range fig1cBytes {
		for _, proto := range protos {
			se := FigureSeries{Label: fmt.Sprintf("%s %dKB", proto.label, bytes>>10)}
			for _, n := range senders {
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
