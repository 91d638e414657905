package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"polyraptor/internal/sweep"
)

// runOK runs `poly args...` in-process and returns its stdout.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("poly %s exited %d: %s", strings.Join(args, " "), code, errw.String())
	}
	return out.Bytes()
}

// rawCells returns a sweep document's cells as they appear in it.
func rawCells(t *testing.T, doc []byte) []json.RawMessage {
	t.Helper()
	var d struct{ Cells []json.RawMessage }
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatalf("not a sweep document: %v", err)
	}
	return d.Cells
}

// replayArgs splits a cell's replay line, a poly sweep line, into the
// arguments of run.
func replayArgs(t *testing.T, line string) []string {
	t.Helper()
	args := strings.Fields(line)
	if len(args) < 2 || args[0] != "poly" || args[1] != "sweep" {
		t.Fatalf("replay %q is not a poly sweep line", line)
	}
	return args[1:]
}

// runDoc runs `poly args... -format=json` in-process and returns the
// sweep document it prints.
func runDoc(t *testing.T, args ...string) []byte {
	t.Helper()
	return runOK(t, append(args, "-format=json")...)
}

// TestSweepReplay: every cell of a sweep names the poly sweep line that
// replays it. Run in-process, each line prints a document that holds
// the cell byte for byte, samples and hists included. For chaos,
// shuffle and storage, the scenario's own subcommand at sub-seed i,
// with the line's option flags, prints sample i in every CSV column
// the cell's metrics share: the two entry points read one set of
// defaults. Each replay line and each subcommand document is a parallel
// subtest: the cells that share a line share one rerun of it.
func TestSweepReplay(t *testing.T) {
	cells := rawCells(t, runDoc(t, "sweep", "-scenarios", "all", "-seeds", "5"))
	if len(cells) != 22 {
		t.Fatalf("%d cells, want 22", len(cells))
	}
	type cell struct {
		raw json.RawMessage
		res sweep.CellResult
	}
	var lines []string
	byLine := map[string][]cell{}
	for _, raw := range cells {
		var c sweep.CellResult
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatal(err)
		}
		if _, ok := byLine[c.Replay]; !ok {
			lines = append(lines, c.Replay)
		}
		byLine[c.Replay] = append(byLine[c.Replay], cell{raw, c})
	}
	for _, line := range lines {
		t.Run(line, func(t *testing.T) {
			t.Parallel()
			args := replayArgs(t, line)
			replayed := rawCells(t, runDoc(t, args...))
			for _, c := range byLine[line] {
				if !slices.ContainsFunc(replayed, func(r json.RawMessage) bool { return bytes.Equal(r, c.raw) }) {
					t.Errorf("%s/%s: %q does not reprint the cell", c.res.Scenario, c.res.Backend, line)
				}
				switch c.res.Scenario {
				case "chaos", "shuffle", "storage":
					checkSubcommandSamples(t, c.res, args)
				}
			}
		})
	}

	// The sweep documents of the other subcommands: each cell's line
	// reruns it byte for byte. A -plan is written as its -chaos-* fault
	// flags and its seed clause as -seed; poly sim's incast is the
	// sweep's incast cell, its other patterns replay through poly sim.
	for _, doc := range [][]string{
		{"chaos", "-backends", "rq,tcp", "-seeds", "2"},
		{"chaos", "-backends", "rq", "-seeds", "2", "-plan", "link agg 0.25 @300us recover 20ms seed 7"},
		{"chaos", "-backends", "rq", "-seeds", "2", "-slo-fct", "5ms"},
		{"shuffle", "-backends", "rq", "-seeds", "2", "-mappers", "3"},
		{"store", "-backends", "tcp", "-seeds", "2", "-requests", "40"},
		{"sim", "-pattern", "incast", "-backends", "tcp", "-seeds", "2", "-senders", "4"},
		{"sim", "-pattern", "multicast", "-backends", "rq", "-seeds", "2", "-bytes", "65536", "-detach"},
	} {
		t.Run(strings.Join(doc, " "), func(t *testing.T) {
			t.Parallel()
			for _, raw := range rawCells(t, runDoc(t, doc...)) {
				var c sweep.CellResult
				if err := json.Unmarshal(raw, &c); err != nil {
					t.Fatal(err)
				}
				args := strings.Fields(c.Replay)
				if len(args) < 2 || args[0] != "poly" {
					t.Fatalf("poly %v: cell %s/%s replays as %q", doc, c.Scenario, c.Backend, c.Replay)
				}
				if !slices.ContainsFunc(rawCells(t, runDoc(t, args[1:]...)), func(r json.RawMessage) bool { return bytes.Equal(r, raw) }) {
					t.Errorf("poly %v: %q does not reprint cell %s/%s", doc, c.Replay, c.Scenario, c.Backend)
				}
			}
		})
	}
}

// checkSubcommandSamples runs the scenario's subcommand once per
// sub-seed of c, with the option flags of c's replay arguments, and
// compares each CSV column named like one of c's metrics with that
// seed's sample, at the CSV's precision.
func checkSubcommandSamples(t *testing.T, c sweep.CellResult, replay []string) {
	t.Helper()
	var opts []string
	for _, a := range replay {
		if !strings.HasPrefix(a, "-scenarios=") && !strings.HasPrefix(a, "-backends=") &&
			!strings.HasPrefix(a, "-seed") && a != "-meter" && !strings.HasPrefix(a, "-slo-") && a != "sweep" {
			opts = append(opts, strings.Replace(a, "-chaos-", "-", 1))
		}
	}
	sub := c.Scenario
	if sub == "storage" {
		sub = "store"
	}
	compared := 0
	for i, seed := range c.Seeds {
		args := append([]string{sub, "-backends=" + c.Backend, "-seed=" + strconv.FormatInt(seed, 10), "-format=csv"}, opts...)
		rows, err := csv.NewReader(bytes.NewReader(runOK(t, args...))).ReadAll()
		if err != nil || len(rows) != 2 {
			t.Fatalf("poly %v: want a header and one row, got %v (%v)", args, rows, err)
		}
		for j, col := range rows[0] {
			samples := c.Samples[col]
			if len(samples) != len(c.Seeds) {
				continue // not a metric, or not reported on every seed
			}
			field := rows[1][j]
			decimals := 0
			if dot := strings.IndexByte(field, '.'); dot >= 0 {
				decimals = len(field) - dot - 1
			}
			if want := strconv.FormatFloat(samples[i], 'f', decimals, 64); field != want {
				t.Errorf("%s/%s seed %d: poly %s prints %s=%s, the sweep sample is %s", c.Scenario, c.Backend, seed, sub, col, field, want)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Errorf("%s/%s: no CSV column shares a metric name", c.Scenario, c.Backend)
	}
}

// TestScenarioFlagsReachTheirScenarios: poly sweep and poly load hand
// each option flag to every selected scenario that binds it, and
// reject one that no selected scenario binds.
func TestScenarioFlagsReachTheirScenarios(t *testing.T) {
	loadArgs := []string{"load", "-scenarios", "storage", "-backends", "rq", "-rungs", "2", "-refine", "0", "-seeds", "1", "-format", "json"}
	if bytes.Equal(runOK(t, loadArgs...), runOK(t, append(loadArgs, "-bytes", "65536")...)) {
		t.Error("poly load -scenarios storage ignores -bytes")
	}
	sweepArgs := []string{"sweep", "-scenarios", "storage", "-backends", "rq", "-seeds", "1", "-format", "csv"}
	if bytes.Equal(runOK(t, append(sweepArgs, "-load", "0.33")...), runOK(t, append(sweepArgs, "-load", "0.6")...)) {
		t.Error("poly sweep -scenarios storage ignores -load")
	}
	var res sweep.Result
	if err := json.Unmarshal(runOK(t, "sweep", "-scenarios", "incast,shuffle,storage,chaos", "-bytes", "32768",
		"-seeds", "1", "-format", "json"), &res); err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if !strings.Contains(c.Replay, " -bytes=32768") {
			t.Errorf("%s/%s: -bytes did not reach the cell: %s", c.Scenario, c.Backend, c.Replay)
		}
	}
	var out, errw bytes.Buffer
	if code := runSub("sweep", []string{"-scenarios", "storage", "-senders", "12"}, &out, &errw); code != 2 || !strings.Contains(errw.String(), "-senders") {
		t.Errorf("poly sweep -scenarios storage -senders 12 exited %d, want 2 naming the flag: %s", code, errw.String())
	}
}

// TestLoadNamesFirstMiss: a table whose ladder misses names the poly
// sweep line of its first failing rung, and that line, run, meters an
// attainment below the target.
func TestLoadNamesFirstMiss(t *testing.T) {
	table := string(runOK(t, "load", "-scenarios", "incast", "-backends", "tcp", "-slo-fct", "20ms",
		"-rungs", "3", "-refine", "0", "-seeds", "2"))
	_, line, ok := strings.Cut(table, "first miss: ")
	if !ok {
		t.Fatalf("no failing rung named:\n%s", table)
	}
	line, _, _ = strings.Cut(line, "\n")
	var res sweep.Result
	if err := json.Unmarshal(runOK(t, append(replayArgs(t, line), "-format=json")...), &res); err != nil {
		t.Fatal(err)
	}
	if att, ok := res.Cells[0].Metric("slo_attainment"); !ok || att.Mean >= 0.99 {
		t.Fatalf("%s: slo_attainment %+v, want below the 0.99 target", line, att)
	}
}

// TestReadmeBlocks: every `$ go run ./cmd/poly …` block in the README
// is what that command prints.
func TestReadmeBlocks(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := regexp.MustCompile("(?s)```text\n\\$ go run ./cmd/poly ([^\n]*)\n(.*?)```").FindAllSubmatch(readme, -1)
	if len(blocks) == 0 {
		t.Fatal("no poly output blocks in the README")
	}
	for _, b := range blocks {
		if got := runOK(t, strings.Fields(string(b[1]))...); !bytes.Equal(got, b[2]) {
			t.Errorf("README block `poly %s` is stale; the command prints:\n%s", b[1], got)
		}
	}
}
