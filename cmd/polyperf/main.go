// Command polyperf runs Polyraptor's fixed performance suite (gf256
// kernels, RaptorQ codec, event engine, end-to-end figure cells) and
// writes a BENCH_<n>.json report — the repo's perf trajectory, kept in
// bench/; compare reports across PRs to spot regressions.
//
// Usage:
//
//	polyperf                # full suite, writes the next bench/BENCH_<n>.json
//	polyperf -quick         # CI smoke: small workloads, short budgets
//	polyperf -out perf.json # explicit output path
//	polyperf -out -         # JSON to stdout
//	polyperf -list          # print suite case names and exit
//	polyperf -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Progress lines go to stderr; only the report goes to the output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"

	"polyraptor/internal/perfbench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polyperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick      = fs.Bool("quick", false, "small workloads and short budgets (CI smoke)")
		out        = fs.String("out", "", `output path; "" = next BENCH_<n>.json in `+benchDir+`/ under the working directory, "-" = stdout`)
		list       = fs.Bool("list", false, "print suite case names and exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole suite to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (taken after the suite) to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *list {
		for _, c := range perfbench.Suite(*quick) {
			fmt.Fprintln(stdout, c.Name)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "polyperf: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "polyperf: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintf(stderr, "polyperf: %v\n", err)
			}
		}()
	}

	rep := perfbench.Run(perfbench.Options{Quick: *quick, Progress: stderr})

	path := *out
	if path == "" {
		var err error
		path, rep.Index, err = nextBenchPath(benchDir)
		if err != nil {
			fmt.Fprintf(stderr, "polyperf: %v\n", err)
			return 1
		}
	} else if path != "-" {
		rep.Index = indexFromPath(path)
	}

	if path == "-" {
		if err := perfbench.WriteJSON(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "polyperf: %v\n", err)
			return 1
		}
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "polyperf: %v\n", err)
		return 1
	}
	if err := perfbench.WriteJSON(f, rep); err != nil {
		f.Close()
		fmt.Fprintf(stderr, "polyperf: %v\n", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(stderr, "polyperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "polyperf: wrote %s (%d results)\n", path, len(rep.Results))
	return 0
}

// writeHeapProfile snapshots the heap after a GC — the suite's live
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

// benchDir is where the trajectory lives, relative to the repository
// root: polyvet's benchmark gates read it there (deep.BenchDir).
const benchDir = "bench"

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextBenchPath returns the next free BENCH_<n>.json in dir, which it
// makes if need be, and its index.
func nextBenchPath(dir string) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	next := 0
	for _, e := range entries {
		if m := benchName.FindStringSubmatch(e.Name()); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil && n >= next {
				next = n + 1
			}
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), next, nil
}

// indexFromPath recovers the report index from a BENCH_<n>.json path,
// or 0 for other names.
func indexFromPath(path string) int {
	if m := benchName.FindStringSubmatch(filepath.Base(path)); m != nil {
		if n, err := strconv.Atoi(m[1]); err == nil {
			return n
		}
	}
	return 0
}
