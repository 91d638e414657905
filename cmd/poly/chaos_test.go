package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestChaosSmoke drives the whole CLI in-process: the headline contrast
// (rq zero stalls, tcp stranded) must show in the table.
func TestChaosSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("chaos", []string{"-backends", "rq,tcp"}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"PolyChaos failure injection", "pattern=one2one", "link x4 at core tier", "polyraptor", "tcp", "partitioned", "blackholed"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestChaosVerboseSchedule: -v appends the struck targets and the fault
// event log.
func TestChaosVerboseSchedule(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("chaos", []string{"-backends", "rq", "-recover-at", "50ms", "-v"}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"fault schedule (seed 1)", "strike agg-", "link-down", "link-up"} {
		if !strings.Contains(s, want) {
			t.Fatalf("verbose output missing %q:\n%s", want, s)
		}
	}
}

func TestChaosCSV(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("chaos", []string{"-backends", "rq", "-format", "csv"}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV should have header + 1 row, got %d lines:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "backend,flows,completed,stalled,partitioned,") {
		t.Fatalf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "polyraptor,6,") {
		t.Fatalf("CSV row %q", lines[1])
	}
}

// TestChaosReportsPartitioned replays, at the defaults, the seed whose
// fault cuts every core path between pods 1 and 3: rq strands one
// flow, and that flow is partitioned, so no transport could have
// finished it.
func TestChaosReportsPartitioned(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("chaos", []string{"-backends", "rq", "-format", "csv", "-seed", "8196980753821780235"}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "polyraptor,6,5,1,1,") {
		t.Fatalf("want rq 5 of 6 done, 1 stalled, 1 partitioned:\n%s", out.String())
	}
}

// TestChaosRejectsBadFlags: every invalid flag combination exits 2 with
// a diagnostic, before any simulation runs.
func TestChaosRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-backends", "quic"},
		{"-backends", ","},
		{"-nope"},
		{"-trace", "-seeds", "2"},
		{"-trace", "-format", "json"},
		{"-slo-fct", "5ms"}, // sweep mode only
		{"-slo-fct", "-1ms", "-seeds", "2"},
		{"-k", "5"},
		{"-pattern", "tornado"},
		{"-flows", "0"},
		{"-k", "4", "-flows", "9"}, // 18 hosts > 16
		{"-pattern", "incast", "-senders", "0"},
		{"-pattern", "multicast", "-replicas", "0"},
		{"-pattern", "shuffle", "-k", "4", "-mappers", "10", "-reducers", "7"},
		{"-bytes", "0"},
		{"-fault", "meteor"},
		{"-layer", "sea"},
		{"-frac", "1.5"},
		{"-frac", "-0.1"},
		{"-fail-at", "-1ms"},
		{"-fail-at", "2ms", "-recover-at", "1ms"},
		{"-fault", "loss"},                      // loss without a rate
		{"-fault", "loss", "-loss-rate", "1.2"}, // rate out of range
		{"-fault", "flap"},                      // flap without period/end
		{"-fault", "flap", "-flap-period", "1ms"},
		{"-fault", "flap", "-flap-period", "1ns", "-recover-at", "1ms"}, // toggle-event storm
		{"-deadline", "0s"},
		{"-deadline", "400us"}, // deadline before the default 500 µs fault
		{"-seeds", "0"},
		{"-format", "yaml"},
		{"-plan", "meteor core 0.5"},
		{"-plan", "link core 0.5 rate 0.1"}, // rate is loss-only
		{"-plan", "link core 0.5 @10ms recover 1ms"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("chaos", args, &out, &errw); code != 2 {
			t.Fatalf("run(%v) exited %d, want 2; stderr: %s", args, code, errw.String())
		}
		if errw.Len() == 0 {
			t.Fatalf("run(%v) printed no error", args)
		}
	}
}

// TestChaosMultiSeed: -seeds > 1 aggregates per backend over derived
// sub-seeds, byte-identically at any parallelism — the sweep
// determinism criterion at the CLI surface.
func TestChaosMultiSeed(t *testing.T) {
	multiArgs := func(extra ...string) []string {
		return append([]string{"-backends", "rq,tcp", "-seeds", "3"}, extra...)
	}
	var serial, parallel, errw bytes.Buffer
	if code := runSub("chaos", multiArgs("-parallel", "1", "-format", "json"), &serial, &errw); code != 0 {
		t.Fatalf("serial run exited %d: %s", code, errw.String())
	}
	errw.Reset()
	if code := runSub("chaos", multiArgs("-format", "json"), &parallel, &errw); code != 0 {
		t.Fatalf("parallel run exited %d: %s", code, errw.String())
	}
	if serial.String() != parallel.String() {
		t.Fatalf("JSON differs between -parallel 1 and default:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
	var res struct {
		Seeds int `json:"seeds"`
		Cells []struct {
			Scenario string   `json:"scenario"`
			Backend  string   `json:"backend"`
			Errors   []string `json:"errors"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(serial.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if res.Seeds != 3 || len(res.Cells) != 2 {
		t.Fatalf("decoded %d cells x %d seeds, want 2 x 3", len(res.Cells), res.Seeds)
	}
	for _, c := range res.Cells {
		if c.Scenario != "chaos" || len(c.Errors) > 0 {
			t.Fatalf("cell %+v", c)
		}
	}

	var table bytes.Buffer
	errw.Reset()
	if code := runSub("chaos", multiArgs(), &table, &errw); code != 0 {
		t.Fatalf("table run exited %d: %s", code, errw.String())
	}
	for _, want := range []string{"chaos/polyraptor", "chaos/tcp", "stall_rate", "±CI95"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("aggregate table missing %q:\n%s", want, table.String())
		}
	}
}

// TestChaosPlanFlag: -plan parses the compact grammar and overrides the
// individual fault flags — the spec below must produce the same run as
// the equivalent -fault/-frac/-recover-at invocation.
func TestChaosPlanFlag(t *testing.T) {
	var specOut, flagOut, errw bytes.Buffer
	args := []string{"-backends", "rq"}
	code := runSub("chaos", append(args, "-plan", "link core 0.5 @500us recover 50ms"), &specOut, &errw)
	if code != 0 {
		t.Fatalf("run(-plan) exited %d: %s", code, errw.String())
	}
	code = runSub("chaos", append(args, "-fault", "link", "-layer", "core", "-frac", "0.5",
		"-fail-at", "500us", "-recover-at", "50ms"), &flagOut, &errw)
	if code != 0 {
		t.Fatalf("run(flags) exited %d: %s", code, errw.String())
	}
	if specOut.String() != flagOut.String() {
		t.Fatalf("-plan and flag spellings diverge:\n%s\nvs\n%s", specOut.String(), flagOut.String())
	}
}
