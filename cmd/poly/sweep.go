package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"polyraptor/internal/harness"
	"polyraptor/internal/metrics"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
)

// runSweep runs a declarative experiment sweep: a matrix of backend x
// scenario cells, each repeated over derived sub-seeds on a worker pool
// and aggregated to mean, 95% confidence interval and tail percentiles.
// Each run gets its own sub-seed and simulation, and aggregation order
// is fixed by the matrix, so results are byte-identical at any
// -parallel.
func runSweep(c *cli, args []string) int {
	fs := c.fs
	p := harness.DefaultSweepParams()
	var (
		scenarios  = fs.String("scenarios", "incast,storage", "comma list of fig1a, fig1b, incast, shuffle, storage, chaos, ablations, or all")
		verbose    = fs.Bool("v", false, "print per-run progress to stderr as cells finish")
		meterOn    = fs.Bool("meter", false, "attach PolyMeter: pooled FCT/goodput/queue/stall histograms and slo_attainment per cell")
		sloFCT     = fs.Duration("slo-fct", 0, "SLO: per-flow completion deadline; implies -meter (0 = no deadline)")
		sloGbps    = fs.Float64("slo-goodput", 0, "SLO: per-flow goodput floor in Gbps; implies -meter (0 = no floor)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	)
	forward := c.scenarioFlags(&p, append(harness.SweepScenarios(), "ablations"))
	c.seeds = 5
	c.flags(runFlags | formatFlag | traceFlags)
	if code := c.parse(args); code != proceed {
		return code
	}
	slo := metrics.SLO{FCTDeadline: sloFCT.Seconds(), GoodputFloor: *sloGbps}
	if err := slo.Validate(); err != nil {
		return c.fail(2, "%v", err)
	}
	if slo.Enabled() || *meterOn {
		p.SLO = &slo
	}
	scen, err := sweepScenarios(*scenarios)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	if err := forward(scen); err != nil {
		return c.fail(2, "%v", err)
	}
	if c.trace {
		p.Trace = &telemetry.Options{}
		var traceMu sync.Mutex
		p.TraceSink = func(scenario, backend string, seed int64, tr *telemetry.Trace) {
			base := fmt.Sprintf("%s-%s-%s-s%d", c.traceOut, scenario, backend, seed)
			paths, err := tr.WriteFiles(base)
			traceMu.Lock()
			defer traceMu.Unlock()
			if err != nil {
				c.logf("trace %s: %v", base, err)
				return
			}
			c.logf("wrote %s", strings.Join(paths, ", "))
		}
	}

	// Building a cell validates its scenario against the fabric, so
	// every impossible parameter is an error here, before anything runs
	// (or is profiled).
	var cells []sweep.Cell
	for _, s := range scen {
		var more []sweep.Cell
		if s == "ablations" {
			// Ablations contrast Polyraptor against itself (trimming
			// off, pull-only start, ...), so the backend axis does not
			// apply — say so instead of silently dropping it.
			if c.backends != "all" && c.backends != "rq" && c.backends != "polyraptor" {
				c.logf("note: ablation cells always run on the rq backend; -backends does not apply to them")
			}
			more, err = harness.AblationCells(p)
		} else {
			more, err = harness.SweepCells(s, c.kinds, p)
		}
		if err != nil {
			return c.fail(2, "%v", err)
		}
		cells = append(cells, more...)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return c.fail(2, "%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return c.fail(2, "%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				c.logf("%v", err)
			}
		}()
	}

	m := sweep.Matrix{Cells: cells, Seeds: c.seeds, BaseSeed: c.seed, Parallelism: c.parallel}
	if *verbose {
		// Progress lines go to stderr in completion order; stdout stays
		// byte-identical across parallelism settings.
		m.Progress = func(p sweep.Progress) {
			c.logf("[%d/%d] %s seed=%d elapsed=%v eta=%v",
				p.Done, p.Total, p.Cell.Name(), p.Seed,
				p.Elapsed.Round(time.Millisecond), p.ETA.Round(time.Millisecond))
		}
	}
	start := time.Now()
	code := m.Emit(c.name, c.format, c.out, c.errw)
	// Wall clock goes to stderr so machine-readable stdout stays
	// byte-identical across parallelism settings.
	c.logf("%d cells x %d seeds (%d runs) in %v",
		len(cells), c.seeds, len(cells)*c.seeds, time.Since(start).Round(time.Millisecond))
	return code
}

// sweepScenarios expands -scenarios, keeping its order: "all" is every
// canned scenario plus the ablation bundle. Names are checked when their
// cells are built.
func sweepScenarios(arg string) ([]string, error) {
	if arg == "all" {
		return append(harness.SweepScenarios(), "ablations"), nil
	}
	return parseList(arg, "scenarios")
}

// writeHeapProfile snapshots the heap after a GC — the sweep's live
// set, not transient garbage — into the named file.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
