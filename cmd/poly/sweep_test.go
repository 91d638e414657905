package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"polyraptor/internal/sweep"
)

// sweepArgs keeps CLI smoke tests sub-second. Every scenario binds -k
// and -bytes; a test adds the flags of the scenarios it selects.
func sweepArgs(extra ...string) []string {
	return append([]string{"-k", "4", "-bytes", "32768", "-seeds", "2"}, extra...)
}

// incastStorage are the incast and storage size flags of poly sweep's
// default scenarios.
var incastStorage = []string{"-senders", "4", "-objects", "8", "-requests", "20"}

// TestSweepSmokeTable drives the default table path in-process.
func TestSweepSmokeTable(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("sweep", sweepArgs("-scenarios", "incast", "-backends", "rq,tcp", "-senders", "4"), &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"sweep: 2 cells x 2 seeds", "incast/polyraptor", "incast/tcp", "goodput_gbps", "±CI95"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(errw.String(), "4 runs") {
		t.Fatalf("stderr missing run count: %s", errw.String())
	}
}

// TestSweepShuffleScenario: the shuffle cell runs through the CLI and
// reports its completion-time metric.
func TestSweepShuffleScenario(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("sweep", sweepArgs("-scenarios", "shuffle", "-backends", "rq,tcp",
		"-mappers", "3", "-reducers", "4"), &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"shuffle/polyraptor", "shuffle/tcp", "shuffle_s", "pair_fct_p99_s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestSweepJSONParallelIdentical: the CLI's acceptance property — JSON
// on stdout is byte-identical at -parallel 1 and the default pool.
func TestSweepJSONParallelIdentical(t *testing.T) {
	runJSON := func(parallel string) string {
		var out, errw bytes.Buffer
		code := runSub("sweep", sweepArgs(append(incastStorage, "-scenarios", "incast,storage", "-backends", "rq,tcp",
			"-seeds", "5", "-format", "json", "-parallel", parallel)...), &out, &errw)
		if code != 0 {
			t.Fatalf("run(-parallel %s) exited %d: %s", parallel, code, errw.String())
		}
		return out.String()
	}
	serial := runJSON("1")
	parallel := runJSON("0")
	if serial != parallel {
		t.Fatalf("JSON differs between -parallel 1 and -parallel 0:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	var res sweep.Result
	if err := json.Unmarshal([]byte(serial), &res); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if len(res.Cells) != 4 || res.Seeds != 5 {
		t.Fatalf("decoded %d cells x %d seeds, want 4 x 5", len(res.Cells), res.Seeds)
	}
}

// TestSweepMeterIsZeroSLO: -meter alone meters with the zero SLO,
// which scores completion only, so every cell's pooled histograms and
// slo_attainment match a deadline no flow can miss (-slo-fct 1h), and
// the metered document differs from the unmetered one only by those
// fields and the replay line's -meter.
func TestSweepMeterIsZeroSLO(t *testing.T) {
	runJSON := func(extra ...string) sweep.Result {
		var out, errw bytes.Buffer
		args := sweepArgs(append(append(incastStorage, "-scenarios", "incast,storage", "-format", "json"), extra...)...)
		if code := runSub("sweep", args, &out, &errw); code != 0 {
			t.Fatalf("sweep %v exited %d: %s", extra, code, errw.String())
		}
		var res sweep.Result
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("sweep %v: stdout is not valid JSON: %v", extra, err)
		}
		return res
	}
	metered, loose, plain := runJSON("-meter"), runJSON("-slo-fct", "1h"), runJSON()
	if len(metered.Cells) != len(plain.Cells) || len(loose.Cells) != len(plain.Cells) {
		t.Fatalf("cell counts %d/%d/%d differ", len(metered.Cells), len(loose.Cells), len(plain.Cells))
	}
	for i := range metered.Cells {
		m, l := metered.Cells[i], loose.Cells[i]
		name := m.Scenario + "/" + m.Backend
		att, ok := m.Metric("slo_attainment")
		if !ok || len(m.Hists) == 0 {
			t.Fatalf("%s: -meter produced no slo_attainment (%v) or no hists (%d)", name, ok, len(m.Hists))
		}
		if latt, _ := l.Metric("slo_attainment"); att != latt ||
			!reflect.DeepEqual(m.Samples["slo_attainment"], l.Samples["slo_attainment"]) {
			t.Errorf("%s: slo_attainment %+v under -meter, %+v under -slo-fct 1h", name, att, latt)
		}
		if !reflect.DeepEqual(m.Hists, l.Hists) {
			t.Errorf("%s: hists differ between -meter and -slo-fct 1h", name)
		}
		if m.Replay != plain.Cells[i].Replay+" -meter" {
			t.Errorf("%s: metered replay %q, want the unmetered one plus -meter", name, m.Replay)
		}
		m.Replay = plain.Cells[i].Replay
		m.Hists = nil
		m.Metrics = slices.DeleteFunc(m.Metrics, func(a sweep.Aggregate) bool { return a.Metric == "slo_attainment" })
		delete(m.Samples, "slo_attainment")
		if !reflect.DeepEqual(m, plain.Cells[i]) {
			t.Errorf("%s: metered cell differs from the unmetered one beyond hists and slo_attainment:\nmetered %+v\nplain   %+v",
				name, m, plain.Cells[i])
		}
	}
}

// TestSweepCSV: CSV has a header and one row per (cell, metric).
func TestSweepCSV(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("sweep", sweepArgs("-scenarios", "incast", "-backends", "rq", "-senders", "4", "-format", "csv"), &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want header + 1 row:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,backend,params,metric,n,mean,ci95") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "incast,polyraptor,") {
		t.Fatalf("row = %q", lines[1])
	}
}

// TestSweepRejectsBadFlags: every malformed invocation fails fast with
// exit code 2, before any simulation runs.
func TestSweepRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scenarios", "figure9"},
		{"-backends", "quic"},
		{"-backends", ","},
		{"-scenarios", ","},
		{"-seeds", "0"},
		{"-format", "yaml"},
		{"-k", "5"},
		{"-k", "4", "-senders", "99", "-scenarios", "incast"},
		{"-k", "4", "-replicas", "99", "-scenarios", "fig1a"},
		{"-k", "4", "-replicas", "50", "-scenarios", "storage"},
		{"-k", "4", "-mappers", "10", "-reducers", "7", "-scenarios", "shuffle"},
		{"-straggler", "0.5", "-scenarios", "shuffle"},
		{"-fail", "meteor"},
		{"-nope"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("sweep", args, &out, &errw); code == 0 {
			t.Fatalf("run(%v) succeeded, want failure; stderr: %s", args, errw.String())
		}
	}
}

// TestSweepScenariosAll: "all" covers every canned scenario plus the
// ablation bundle.
func TestSweepScenariosAll(t *testing.T) {
	got, err := sweepScenarios("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 || got[len(got)-1] != "ablations" {
		t.Fatalf("sweepScenarios(all) = %v", got)
	}
}

// TestSweepAblationsBackendNote: selecting a non-rq backend with the
// ablations scenario is called out instead of silently ignored.
func TestSweepAblationsBackendNote(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("sweep", []string{"-scenarios", "ablations", "-backends", "tcp", "-k", "4", "-seeds", "1"}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "rq backend") {
		t.Fatalf("stderr missing ablation backend note: %s", errw.String())
	}
}

// TestSweepRejectsSmallFabricForAblations: a k=2 fabric cannot host the
// 12-sender A1 incast; this used to spin the peer picker forever.
func TestSweepRejectsSmallFabricForAblations(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runSub("sweep", []string{"-scenarios", "ablations", "-k", "2", "-seeds", "1"}, &out, &errw); code != 2 {
		t.Fatalf("run exited %d, want 2; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "out-of-rack") {
		t.Fatalf("error missing fabric bound: %s", errw.String())
	}
}
