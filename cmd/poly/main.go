// Command poly runs the paper's simulated experiments, one subcommand
// per experiment family (sim, sweep, load, bench, chaos, shuffle,
// store); run without arguments, it lists them.
//
// The subcommands spell what they share one way: -backends (comma list
// of rq|polyraptor, tcp, dctcp, or all), -seed, -seeds N (repetitions
// over SplitMix-derived sub-seeds), -parallel (never changes a result),
// -format table|csv|json and -trace/-trace-out (PolyScope files).
// chaos, shuffle and store print one detailed run per backend or, with
// -seeds > 1 or -format json, a sweep's aggregate (mean, CI95, tails).
// Stdout is byte-identical at any -parallel; wall clock goes to stderr.
//
// Examples:
//
//	poly sim -backends tcp -pattern incast -k 8 -senders 32 -trace
//	poly sweep -scenarios all -seeds 5 -format json > sweep.json
//	poly bench -fig 1c -scale paper
//	poly chaos -plan "link core 0.5 @2ms recover 50ms" -v
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"polyraptor/internal/harness"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// subcommands in the order the usage lists them.
var subcommands = []struct {
	name, about string
	run         func(c *cli, args []string) int
}{
	{"sim", "one transfer pattern on one backend, in detail", runSim},
	{"sweep", "a backend x scenario matrix over derived seeds", runSweep},
	{"load", "each backend's maximum sustainable load", runLoad},
	{"bench", "the paper's figures, ablations and extensions", runBench},
	{"chaos", "mid-flow fault injection", runChaos},
	{"shuffle", "the many-to-many shuffle", runShuffle},
	{"store", "the replicated object store", runStore},
}

// run is main with its dependencies injected, so tests can drive the
// whole CLI in-process.
func run(args []string, out, errw io.Writer) int {
	code := 2
	if len(args) > 0 {
		for _, s := range subcommands {
			if s.name == args[0] {
				return s.run(newCLI(s.name, out, errw), args[1:])
			}
		}
		switch args[0] {
		case "-h", "-help", "--help", "help":
			code = 0
		default:
			fmt.Fprintf(errw, "poly: unknown subcommand %q\n", args[0])
		}
	}
	fmt.Fprintln(errw, "Usage: poly <subcommand> [flags]; poly <subcommand> -h lists its flags")
	for _, s := range subcommands {
		fmt.Fprintf(errw, "  %-8s %s\n", s.name, s.about)
	}
	return code
}

// cli is one subcommand invocation: its flag set, its output streams
// and the flags the subcommands share.
type cli struct {
	name      string // "poly <subcommand>": usage title and stderr prefix
	fs        *flag.FlagSet
	out, errw io.Writer

	backends string
	kinds    []store.BackendKind // -backends, parsed
	seed     int64
	seeds    int
	parallel int
	format   string
	trace    bool
	traceOut string
}

// newCLI returns an invocation of the named subcommand with the shared
// flags at their defaults.
func newCLI(sub string, out, errw io.Writer) *cli {
	c := &cli{name: "poly " + sub, out: out, errw: errw,
		backends: "all", seed: 1, seeds: 1, format: "table", traceOut: "polyscope"}
	c.fs = flag.NewFlagSet(c.name, flag.ContinueOnError)
	c.fs.SetOutput(errw)
	return c
}

// shared names the groups of common flags a subcommand takes; every
// subcommand takes -seed.
type shared uint8

const (
	runFlags   shared = 1 << iota // -backends, -seeds, -parallel
	formatFlag                    // -format
	traceFlags                    // -trace, -trace-out
)

// proceed is parse's "flags are fine, run" result.
const proceed = -1

// flags registers the common flags in has, defaulting to c's current
// values, which a subcommand may set first.
func (c *cli) flags(has shared) {
	c.fs.Int64Var(&c.seed, "seed", c.seed, "seed (the base seed of the derived sub-seeds with -seeds > 1)")
	if has&runFlags != 0 {
		c.fs.StringVar(&c.backends, "backends", c.backends, "comma list of rq|polyraptor, tcp, dctcp, or all")
		c.fs.IntVar(&c.seeds, "seeds", c.seeds, "repetitions per backend over derived sub-seeds")
		c.fs.IntVar(&c.parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS; never changes results)")
	}
	if has&formatFlag != 0 {
		c.fs.StringVar(&c.format, "format", c.format, "output format: table, csv, json")
	}
	if has&traceFlags != 0 {
		c.fs.BoolVar(&c.trace, "trace", false, "record a PolyScope trace of each run and write Perfetto/CSV/explain files")
		c.fs.StringVar(&c.traceOut, "trace-out", c.traceOut, "base path for -trace files (<base>[-<backend>].trace.json, ...)")
	}
}

// parse parses args and checks the common flags once. It returns
// proceed, or the exit code: 0 after -h, 2 on a flag error.
func (c *cli) parse(args []string) int {
	if err := c.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case c.fs.NArg() > 0:
		return c.fail(2, "unexpected arguments: %v", c.fs.Args())
	case c.seeds < 1:
		return c.fail(2, "-seeds must be >= 1, got %d", c.seeds)
	case c.format != "table" && c.format != "csv" && c.format != "json":
		return c.fail(2, "unknown format %q (table|csv|json)", c.format)
	case c.trace && c.sweeps() && c.name != "poly sweep":
		// Only poly sweep traces every run of a sweep.
		return c.fail(2, "-trace applies to the single-run mode (drop -seeds and -format json, or use poly sweep -trace)")
	}
	if c.fs.Lookup("backends") != nil {
		var err error
		if c.kinds, err = store.ParseBackends(c.backends); err != nil {
			return c.fail(2, "%v", err)
		}
	}
	return proceed
}

// sweeps reports whether the invocation aggregates a sweep instead of
// printing single runs.
func (c *cli) sweeps() bool { return c.seeds > 1 || c.format == "json" }

// logf writes one line to stderr under the subcommand's name.
func (c *cli) logf(format string, args ...any) {
	fmt.Fprintf(c.errw, "%s: %s\n", c.name, fmt.Sprintf(format, args...))
}

// fail logs an error and returns the exit code.
func (c *cli) fail(code int, format string, args ...any) int {
	c.logf(format, args...)
	return code
}

// emit runs cells over -seeds derived sub-seeds and writes the
// aggregate in -format.
func (c *cli) emit(cells []sweep.Cell) int {
	m := sweep.Matrix{Cells: cells, Seeds: c.seeds, BaseSeed: c.seed, Parallelism: c.parallel}
	return m.Emit(c.name, c.format, c.out, c.errw)
}

// drive validates sc, the options in p of one sweep scenario, and runs
// it on every -backends backend. When c.sweeps() it is a sweep, one
// cell per backend built as poly sweep builds it (harness.SweepCells),
// so each cell carries the poly sweep line that replays it.
// Otherwise each backend runs once at -seed on the worker pool, table
// or csv prints the scenario's detailed results, and each traced run's
// files are written, each followed on a table's stdout by its explain
// report when explain is set.
func drive[T any](c *cli, sc harness.Scenario, p harness.SweepParams, table, csv func(io.Writer, []T), explain bool) int {
	if err := sc.Validate(); err != nil {
		return c.fail(2, "%v", err)
	}
	if c.sweeps() {
		cells, err := harness.SweepCells(sc.Name(), c.kinds, p)
		if err != nil {
			return c.fail(2, "%v", err)
		}
		return c.emit(cells)
	}
	var obs harness.Observers
	if c.trace {
		obs.Trace = &telemetry.Options{}
	}
	results, err := harness.RunEach(sc, c.kinds, c.seed, obs, c.parallel)
	if err != nil {
		return c.fail(1, "%v", err)
	}
	runs := make([]T, len(results))
	for i, r := range results {
		runs[i] = r.Detail.(T)
	}
	if c.format == "csv" {
		csv(c.out, runs)
	} else {
		table(c.out, runs)
	}
	for i, r := range results {
		if r.Trace == nil {
			continue
		}
		paths, err := r.Trace.WriteFiles(c.traceOut + "-" + c.kinds[i].String())
		if err != nil {
			return c.fail(1, "%v", err)
		}
		c.logf("wrote %s", strings.Join(paths, ", "))
		if explain && c.format != "csv" {
			fmt.Fprintln(c.out)
			if err := r.Trace.WriteExplain(c.out); err != nil {
				return c.fail(1, "%v", err)
			}
		}
	}
	return 0
}

// parseList splits a comma list of names, skipping blank items; an
// empty list is an error.
func parseList(arg, what string) ([]string, error) {
	var out []string
	for _, name := range strings.Split(arg, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s selected", what)
	}
	return out, nil
}

// scenarioFlags registers on c.fs, once each, the option flags that
// the named scenarios bind in p (harness.SweepParams.Flags); each usage
// lists every binder's default. The returned func forwards each flag
// given on the command line to every scenario in selected that binds
// it; a flag that none of them binds is an error.
func (c *cli) scenarioFlags(p *harness.SweepParams, names []string) func(selected []string) error {
	sets := map[string]*flag.FlagSet{}
	given := map[string]string{}
	for _, name := range names {
		sets[name], _ = p.Flags(name) // names come from the harness registry
		sets[name].VisitAll(func(f *flag.Flag) {
			if g := c.fs.Lookup(f.Name); g != nil {
				g.Usage += fmt.Sprintf(", %s %s", name, f.DefValue)
				return
			}
			c.fs.Func(f.Name, fmt.Sprintf("%s; default %s %s", f.Usage, name, f.DefValue),
				func(v string) error { given[f.Name] = v; return nil })
		})
	}
	return func(selected []string) (err error) {
		c.fs.Visit(func(f *flag.Flag) {
			v, ok := given[f.Name]
			if !ok || err != nil {
				return
			}
			err = fmt.Errorf("flag -%s applies to none of the selected scenarios %v", f.Name, selected)
			for _, s := range selected {
				if fs := sets[s]; fs != nil && fs.Lookup(f.Name) != nil {
					if err = fs.Set(f.Name, v); err != nil {
						err = fmt.Errorf("invalid value %q for flag -%s: %v", v, f.Name, err)
						return
					}
				}
			}
		})
		return err
	}
}
