package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"polyraptor/internal/harness"
)

// report is the polyload/v1 JSON document.
type report struct {
	Schema  string                     `json:"schema"`
	Target  float64                    `json:"target"`
	P99Max  float64                    `json:"p99_max_s,omitempty"`
	Results []harness.SaturationResult `json:"results"`
}

// runLoad finds each backend's maximum sustainable load. For every
// (scenario, backend) pair it walks a geometric ladder of offered load
// (the scenario's natural knob: the Figure 1 and storage load factors,
// the incast fan-in, the shuffle partition size), scores each rung by
// PolyMeter SLO attainment pooled across seeds, then bisects the
// bracket where attainment (or the -p99-max FCT tail ceiling) first
// crosses -target, and reports that knee; the table names the poly
// sweep line that replays the first rung that missed. Every probe is a
// deterministic metered sweep, so the output is a pure function of the
// flags at any -parallel.
func runLoad(c *cli, args []string) int {
	fs := c.fs
	o := harness.DefaultSaturationOptions("incast")
	var (
		scenarios = fs.String("scenarios", "incast", "comma list of "+strings.Join(harness.SaturationScenarios(), ", "))
		sloFCT    = fs.Duration("slo-fct", 0, "SLO: per-flow completion deadline (0 = no deadline)")
		p99Max    = fs.Duration("p99-max", 0, "pooled FCT P99 ceiling (0 = attainment only)")
		histOut   = fs.String("hist-out", "", "write per-rung merged histogram snapshots (JSON) to this file")
	)
	fs.Float64Var(&o.SLO.GoodputFloor, "slo-goodput", o.SLO.GoodputFloor, "SLO: per-flow goodput floor in Gbps (0 = no floor)")
	fs.Float64Var(&o.Target, "target", o.Target, "required SLO attainment at a sustainable load")
	fs.Float64Var(&o.LoadMin, "load-min", o.LoadMin, "ladder floor as a multiplier of the base knob")
	fs.Float64Var(&o.LoadMax, "load-max", o.LoadMax, "ladder ceiling as a multiplier of the base knob")
	fs.IntVar(&o.Rungs, "rungs", o.Rungs, "geometric ladder size")
	fs.IntVar(&o.Refine, "refine", o.Refine, "bisection steps after the ladder brackets the knee (0 = ladder only)")
	forward := c.scenarioFlags(&o.Params, harness.SaturationScenarios())
	c.seed = o.BaseSeed
	c.seeds = o.Seeds
	c.flags(runFlags | formatFlag)
	if code := c.parse(args); code != proceed {
		return code
	}
	names, err := parseList(*scenarios, "scenarios")
	if err != nil {
		return c.fail(2, "%v", err)
	}
	if err := forward(names); err != nil {
		return c.fail(2, "%v", err)
	}
	o.SLO.FCTDeadline, o.P99Max = sloFCT.Seconds(), p99Max.Seconds()
	o.Seeds, o.BaseSeed, o.Parallelism = c.seeds, c.seed, c.parallel
	o.KeepHists = *histOut != "" || c.format == "json"
	var opts []harness.SaturationOptions
	for _, name := range names {
		o.Scenario = name
		if err := o.Validate(); err != nil {
			return c.fail(2, "%v", err)
		}
		opts = append(opts, o)
	}

	rep := report{Schema: "polyload/v1", Target: o.Target, P99Max: o.P99Max}
	for _, o := range opts {
		for _, be := range c.kinds {
			res, err := harness.FindSaturation(o, be)
			if err != nil {
				return c.fail(1, "%v", err)
			}
			rep.Results = append(rep.Results, res)
		}
	}

	if *histOut != "" {
		if err := writeHists(*histOut, rep.Results); err != nil {
			return c.fail(1, "%v", err)
		}
		c.logf("wrote %s", *histOut)
	}

	switch c.format {
	case "json":
		enc := json.NewEncoder(c.out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return c.fail(1, "%v", err)
		}
	case "csv":
		loadCSV(c.out, rep.Results)
	default:
		loadTable(c.out, rep)
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

func loadCSV(w io.Writer, results []harness.SaturationResult) {
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

func loadTable(w io.Writer, rep report) {
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
		for _, r := range res.Ladder {
			if !r.OK {
				fmt.Fprintf(w, "  first miss: %s\n", r.Replay)
				break
			}
		}
	}
}
