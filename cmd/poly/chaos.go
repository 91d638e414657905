package main

import (
	"fmt"
	"io"

	"polyraptor/internal/chaos"
	"polyraptor/internal/harness"
	"polyraptor/internal/metrics"
)

// runChaos runs the fault-injection experiment: a traffic pattern
// (one-to-one, incast, multicast or shuffle) starts on a healthy fat
// tree, a seeded fault plan executes mid-flow — links blackholed,
// switches killed, links made lossy or flapping — and each transport
// is scored on completions versus stalls, FCT percentiles, goodput and
// blackholed-vs-queue-dropped packets at a fixed deadline. This is the
// paper's robustness claim: per-packet spraying plus rateless coding
// rides through path failures with no rerouting, while a hash-pinned
// TCP flow routed into a blackhole is stranded until the fault heals.
func runChaos(c *cli, args []string) int {
	p := harness.DefaultSweepParams()
	opt := &p.Chaos
	opt.Flags(c.fs, "")
	var (
		plan    = c.fs.String("plan", "", "compact fault spec, e.g. \"link core 0.25 @2ms recover 50ms\"; overrides the individual fault flags (a \"seed n\" clause overrides -seed)")
		sloFCT  = c.fs.Duration("slo-fct", 0, "sweep mode: per-flow completion deadline; meters each run and reports slo_attainment + FCT/goodput histograms (0 = off)")
		verbose = c.fs.Bool("v", false, "single-run mode: list struck targets and the fault event log")
	)
	c.flags(runFlags | formatFlag | traceFlags)
	if code := c.parse(args); code != proceed {
		return code
	}
	// -plan replaces the fault flags; drive validates the result before
	// anything runs.
	if *plan != "" {
		p, err := chaos.ParsePlan(*plan)
		if err != nil {
			return c.fail(2, "%v", err)
		}
		if p.Seed != 0 {
			c.seed = p.Seed
		}
		p.Seed = 0 // the harness injects the per-run seed
		opt.Fault = p
	}
	slo := metrics.SLO{FCTDeadline: sloFCT.Seconds()}
	if err := slo.Validate(); err != nil {
		return c.fail(2, "%v", err)
	}
	if slo.Enabled() {
		if !c.sweeps() {
			return c.fail(2, "-slo-fct applies to the sweep mode (add -seeds or -format json)")
		}
		p.SLO = &slo
	}
	table := func(w io.Writer, runs []harness.ChaosRun) { chaosTable(w, *opt, runs, c.seed, *verbose) }
	return drive(c, *opt, p, table, chaosCSV, true)
}

func chaosTable(w io.Writer, opt harness.ChaosOptions, runs []harness.ChaosRun, seed int64, verbose bool) {
	fmt.Fprintf(w, "== PolyChaos failure injection ==\n")
	heal := "never healed"
	if opt.Fault.RecoverAt > 0 {
		heal = fmt.Sprintf("healed at %v", opt.Fault.RecoverAt)
	}
	extra := ""
	switch opt.Fault.Kind {
	case chaos.KindLinkLoss:
		extra = fmt.Sprintf(", loss rate %.2f", opt.Fault.LossRate)
	case chaos.KindLinkFlap:
		extra = fmt.Sprintf(", flap period %v", opt.Fault.FlapPeriod)
	}
	targets := 0
	if len(runs) > 0 {
		targets = len(runs[0].FaultTargets)
	}
	fmt.Fprintf(w, "k=%d, pattern=%s, %d KB objects; fault: %s x%d at %s tier (frac %.2f) at %v, %s%s; deadline %v\n\n",
		opt.FatTreeK, opt.Pattern, opt.Bytes>>10,
		opt.Fault.Kind, targets, opt.Fault.Layer, opt.Fault.Frac, opt.Fault.FailAt, heal, extra, opt.Deadline)
	fmt.Fprintf(w, "%-11s %9s %8s %11s %10s %10s %9s %11s %10s\n",
		"backend", "done", "stalled", "partitioned", "FCTp50ms", "FCTp99ms", "Gbps", "blackholed", "queuedrop")
	for _, r := range runs {
		// No finite FCT exists when every flow stalled; 0.00 would
		// read as instant completion.
		p50, p99 := "-", "-"
		if r.Completed > 0 {
			p50 = fmt.Sprintf("%.2f", r.FCT.P50*1e3)
			p99 = fmt.Sprintf("%.2f", r.FCT.P99*1e3)
		}
		fmt.Fprintf(w, "%-11s %5d/%-3d %8d %11d %10s %10s %9.3f %11d %10d\n",
			r.Backend, r.Completed, r.Flows, r.Stalled, r.Partitioned,
			p50, p99, r.GoodputGbps, r.RouteDrops, r.QueueDrops)
	}
	if verbose && len(runs) > 0 {
		// The schedule depends only on the plan and the seed, so any
		// backend's run has it.
		fmt.Fprintf(w, "\nfault schedule (seed %d):\n", seed)
		for _, t := range runs[0].FaultTargets {
			fmt.Fprintf(w, "  strike %s\n", t)
		}
		for _, ev := range runs[0].FaultEvents {
			fmt.Fprintf(w, "  %10v  %-14s %s\n", ev.At, ev.Action, ev.Target)
		}
	}
}

func chaosCSV(w io.Writer, runs []harness.ChaosRun) {
	fmt.Fprintln(w, "backend,flows,completed,stalled,partitioned,stall_rate,fct_p50_s,fct_p99_s,goodput_gbps,blackholed,link_drops,queue_drops,fault_targets")
	for _, r := range runs {
		// Empty FCT fields when nothing completed: there is no finite
		// completion time to report.
		p50, p99 := "", ""
		if r.Completed > 0 {
			p50 = fmt.Sprintf("%.6f", r.FCT.P50)
			p99 = fmt.Sprintf("%.6f", r.FCT.P99)
		}
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.6f,%s,%s,%.6f,%d,%d,%d,%d\n",
			r.Backend, r.Flows, r.Completed, r.Stalled, r.Partitioned, r.StallRate(),
			p50, p99, r.GoodputGbps,
			r.RouteDrops, r.LinkDrops, r.QueueDrops, len(r.FaultTargets))
	}
}
