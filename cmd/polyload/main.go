// Command polyload finds each backend's maximum sustainable load. For
// every (scenario, backend) pair it walks a geometric ladder of
// offered load — scaling the scenario's natural knob: the Figure 1 and
// storage load factors, the incast fan-in, the shuffle partition size
// — and scores each rung with PolyMeter: mergeable HDR histograms of
// per-flow FCT and goodput pooled across seeds, and SLO attainment
// (the fraction of offered flows completing within -slo-fct /
// -slo-goodput). It then bisects the bracket where attainment (or the
// -p99-max FCT tail ceiling) first crosses the -target threshold and
// reports the knee: the highest load the backend still sustains.
//
// Every probe is a deterministic metered sweep — fixed base seed,
// order-fixed histogram merging — so the knee is a pure function of
// the flags: re-runs, and runs at any -parallel level, reproduce the
// output byte for byte.
//
// Examples:
//
//	polyload                                         # incast knee, rq vs tcp vs dctcp
//	polyload -scenarios incast,shuffle -backends rq,tcp
//	polyload -slo-fct 5ms -target 0.95               # 95% of flows within 5 ms
//	polyload -p99-max 20ms                           # plus a pooled-P99 ceiling
//	polyload -rungs 6 -refine 0                      # ladder only, no bisection
//	polyload -format json > knees.json               # polyload/v1 JSON
//	polyload -hist-out hists.json                    # per-rung histogram snapshots
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"polyraptor/internal/harness"
	"polyraptor/internal/metrics"
	"polyraptor/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is the polyload/v1 JSON document.
type report struct {
	Schema  string                     `json:"schema"`
	Target  float64                    `json:"target"`
	P99Max  float64                    `json:"p99_max_s,omitempty"`
	Results []harness.SaturationResult `json:"results"`
}

// run is main with its dependencies injected, so tests can drive the
// whole CLI in-process.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polyload", flag.ContinueOnError)
	fs.SetOutput(errw)
	defp := harness.DefaultSweepParams()
	defo := harness.DefaultSaturationOptions("incast")
	var (
		scenarios = fs.String("scenarios", "incast", "comma list of "+strings.Join(harness.SaturationScenarios(), ", "))
		backends  = fs.String("backends", "all", "comma list of rq|polyraptor, tcp, dctcp, or all")

		k        = fs.Int("k", defp.FatTreeK, "fat-tree arity (k even; hosts = k^3/4)")
		bytes    = fs.Int64("bytes", defp.Bytes, "object bytes (per sender for incast; mean per pair for shuffle)")
		senders  = fs.Int("senders", defp.Senders, "incast: base fan-in (the load knob)")
		mappers  = fs.Int("mappers", defp.Mappers, "shuffle: mapper count")
		reducers = fs.Int("reducers", defp.Reducers, "shuffle: reducer count")
		sessions = fs.Int("sessions", defp.Sessions, "fig1a/fig1b: session count")
		loadBase = fs.Float64("load", defp.LoadFactor, "fig1a/fig1b/storage: base load factor (the load knob)")
		objects  = fs.Int("objects", defp.Store.Objects, "storage: object count")
		requests = fs.Int("requests", defp.Store.Requests, "storage: request count")

		sloFCT  = fs.Duration("slo-fct", 0, "SLO: per-flow completion deadline (0 = no deadline)")
		sloGbps = fs.Float64("slo-goodput", defo.SLO.GoodputFloor, "SLO: per-flow goodput floor in Gbps (0 = no floor)")
		target  = fs.Float64("target", defo.Target, "required SLO attainment at a sustainable load")
		p99Max  = fs.Duration("p99-max", 0, "pooled FCT P99 ceiling (0 = attainment only)")

		loadMin  = fs.Float64("load-min", defo.LoadMin, "ladder floor as a multiplier of the base knob")
		loadMax  = fs.Float64("load-max", defo.LoadMax, "ladder ceiling as a multiplier of the base knob")
		rungs    = fs.Int("rungs", defo.Rungs, "geometric ladder size")
		refine   = fs.Int("refine", defo.Refine, "bisection steps after the ladder brackets the knee (0 = ladder only)")
		seeds    = fs.Int("seeds", defo.Seeds, "repetitions per probe over derived sub-seeds")
		seed     = fs.Int64("seed", defo.BaseSeed, "base seed")
		parallel = fs.Int("parallel", 0, "max concurrent repetitions per probe (0 = GOMAXPROCS; never changes results)")

		format  = fs.String("format", "table", "output format: table, csv, json")
		histOut = fs.String("hist-out", "", "write per-rung merged histogram snapshots (JSON) to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errw, "polyload: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	kinds, err := store.ParseBackends(*backends)
	if err != nil {
		fmt.Fprintf(errw, "polyload: %v\n", err)
		return 2
	}
	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(errw, "polyload: unknown format %q (table, csv, json)\n", *format)
		return 2
	}
	if *sloFCT < 0 {
		fmt.Fprintf(errw, "polyload: -slo-fct must be >= 0, got %v\n", *sloFCT)
		return 2
	}
	if *sloGbps < 0 {
		fmt.Fprintf(errw, "polyload: -slo-goodput must be >= 0, got %v\n", *sloGbps)
		return 2
	}
	if *p99Max < 0 {
		fmt.Fprintf(errw, "polyload: -p99-max must be >= 0, got %v\n", *p99Max)
		return 2
	}

	params := harness.DefaultSweepParams()
	params.FatTreeK = *k
	params.Bytes = *bytes
	params.Senders = *senders
	params.Mappers = *mappers
	params.Reducers = *reducers
	params.Sessions = *sessions
	params.LoadFactor = *loadBase
	params.Store.FatTreeK = *k
	params.Store.Objects = *objects
	params.Store.Requests = *requests
	params.Store.LoadFactor = *loadBase

	names := strings.Split(*scenarios, ",")
	var opts []harness.SaturationOptions
	for _, name := range names {
		o := harness.SaturationOptions{
			Scenario:    strings.TrimSpace(name),
			Params:      params,
			SLO:         metrics.SLO{FCTDeadline: sloFCT.Seconds(), GoodputFloor: *sloGbps},
			Target:      *target,
			P99Max:      p99Max.Seconds(),
			LoadMin:     *loadMin,
			LoadMax:     *loadMax,
			Rungs:       *rungs,
			Refine:      *refine,
			Seeds:       *seeds,
			BaseSeed:    *seed,
			Parallelism: *parallel,
			KeepHists:   *histOut != "" || *format == "json",
		}
		if err := o.Validate(); err != nil {
			fmt.Fprintf(errw, "polyload: %v\n", err)
			return 2
		}
		// Cell construction validates the scenario options (fabric arity,
		// fan-out, store config) without running anything — surface those
		// as flag errors too.
		if _, err := harness.SweepCells(o.Scenario, kinds, o.Params); err != nil {
			fmt.Fprintf(errw, "polyload: %v\n", err)
			return 2
		}
		opts = append(opts, o)
	}

	rep := report{Schema: "polyload/v1", Target: *target, P99Max: p99Max.Seconds()}
	for _, o := range opts {
		for _, be := range kinds {
			res, err := harness.FindSaturation(o, be)
			if err != nil {
				fmt.Fprintf(errw, "polyload: %v\n", err)
				return 1
			}
			rep.Results = append(rep.Results, res)
		}
	}

	if *histOut != "" {
		if err := writeHists(*histOut, rep.Results); err != nil {
			fmt.Fprintf(errw, "polyload: %v\n", err)
			return 1
		}
		fmt.Fprintf(errw, "polyload: wrote %s\n", *histOut)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(errw, "polyload: %v\n", err)
			return 1
		}
	case "csv":
		writeCSV(out, rep.Results)
	default:
		writeTable(out, rep)
	}
	return 0
}

// histDump is the -hist-out document: every probe's merged histogram
// snapshots, keyed well enough to re-merge downstream.
type histDump struct {
	Scenario string  `json:"scenario"`
	Backend  string  `json:"backend"`
	Load     float64 `json:"load"`
	Knob     float64 `json:"knob"`
	Hists    any     `json:"hists"`
}

func writeHists(path string, results []harness.SaturationResult) error {
	var dump []histDump
	for _, res := range results {
		for _, r := range res.Probes {
			if len(r.Hists) == 0 {
				continue
			}
			dump = append(dump, histDump{
				Scenario: res.Scenario, Backend: res.Backend,
				Load: r.Load, Knob: r.Knob, Hists: r.Hists,
			})
		}
	}
	js, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func writeCSV(w io.Writer, results []harness.SaturationResult) {
	fmt.Fprintln(w, "scenario,backend,kind,load,knob,slo_attainment,fct_p99_s,goodput_gbps,ok")
	row := func(scenario, backend, kind string, r harness.Rung) {
		fmt.Fprintf(w, "%s,%s,%s,%.6g,%.6g,%.6f,%.6g,%.6g,%t\n",
			scenario, backend, kind, r.Load, r.Knob, r.Attainment, r.FCTP99, r.GoodputGbps, r.OK)
	}
	for _, res := range results {
		for _, r := range res.Ladder {
			row(res.Scenario, res.Backend, "rung", r)
		}
		if res.Knee != nil {
			row(res.Scenario, res.Backend, "knee", *res.Knee)
		}
	}
}

func writeTable(w io.Writer, rep report) {
	fmt.Fprintf(w, "== PolyLoad saturation search ==\n")
	fmt.Fprintf(w, "target attainment %.3f", rep.Target)
	if rep.P99Max > 0 {
		fmt.Fprintf(w, ", pooled FCT P99 <= %.4gs", rep.P99Max)
	}
	fmt.Fprintln(w)
	for _, res := range rep.Results {
		fmt.Fprintf(w, "\n%s/%s (load scales %s):\n", res.Scenario, res.Backend, res.LoadKnob)
		fmt.Fprintf(w, "  %8s %12s %11s %11s %9s  %s\n", "load", res.LoadKnob, "attainment", "FCTp99ms", "Gbps", "")
		for _, r := range res.Ladder {
			mark := "miss"
			if r.OK {
				mark = "ok"
			}
			fmt.Fprintf(w, "  %8.3f %12.4g %11.4f %11.3f %9.3f  %s\n",
				r.Load, r.Knob, r.Attainment, r.FCTP99*1e3, r.GoodputGbps, mark)
		}
		switch {
		case res.Censored == "below-min":
			fmt.Fprintf(w, "  knee: below the ladder floor (%.3g) — backend cannot sustain the minimum load\n", res.Ladder[0].Load)
		case res.Censored == "above-max":
			fmt.Fprintf(w, "  knee: above the ladder ceiling — sustains %s=%.4g and beyond (load >= %.3g)\n",
				res.LoadKnob, res.Knee.Knob, res.Knee.Load)
		default:
			fmt.Fprintf(w, "  knee: max sustainable load %.4g (%s=%.4g, attainment %.4f, FCTp99 %.3fms)\n",
				res.Knee.Load, res.LoadKnob, res.Knee.Knob, res.Knee.Attainment, res.Knee.FCTP99*1e3)
		}
	}
}
