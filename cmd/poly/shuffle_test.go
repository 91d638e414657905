package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// shuffleArgs keeps the in-process CLI runs sub-second.
func shuffleArgs(extra ...string) []string {
	return append([]string{
		"-k", "4", "-mappers", "3", "-reducers", "4", "-bytes", "32768",
	}, extra...)
}

// TestShuffleSmoke drives the whole CLI in-process on a tiny matrix.
func TestShuffleSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("shuffle", shuffleArgs("-backends", "rq,tcp"), &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"Polyraptor shuffle", "3 mappers x 4 reducers (12 pairs)", "polyraptor", "tcp", "vs rq"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestShuffleCSV(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("shuffle", shuffleArgs("-backends", "rq", "-format", "csv"), &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV should have header + 1 row, got %d lines:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[1], "polyraptor,") {
		t.Fatalf("CSV row %q", lines[1])
	}
}

func TestShuffleRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-backends", "quic"},
		{"-backends", ","},
		{"-nope"},
		{"-trace", "-format", "json"},
		{"-k", "5"},
		{"-k", "4", "-mappers", "10", "-reducers", "7"}, // 17 hosts > 16
		{"-mappers", "0"},
		{"-reducers", "0"},
		{"-bytes", "0"},
		{"-skew", "-1"},
		{"-straggler", "0.5"},
		{"-seeds", "0"},
		{"-format", "yaml"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("shuffle", args, &out, &errw); code != 2 {
			t.Fatalf("run(%v) exited %d, want 2; stderr: %s", args, code, errw.String())
		}
		if errw.Len() == 0 {
			t.Fatalf("run(%v) printed no error", args)
		}
	}
}

// TestShuffleValidatesBeforeRunning: an impossible mapper/reducer count is
// reported with the host arithmetic, up front.
func TestShuffleValidatesBeforeRunning(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("shuffle", []string{"-k", "4", "-mappers", "10", "-reducers", "7"}, &out, &errw)
	if code != 2 {
		t.Fatalf("run exited %d, want 2", code)
	}
	s := errw.String()
	for _, want := range []string{"17 distinct hosts", "k=4", "has 16"} {
		if !strings.Contains(s, want) {
			t.Fatalf("error missing %q: %s", want, s)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("stdout should be empty, got: %s", out.String())
	}
}

// TestShuffleMultiSeed: -seeds > 1 aggregates per backend over derived
// sub-seeds, byte-identically at any parallelism.
func TestShuffleMultiSeed(t *testing.T) {
	multiArgs := func(extra ...string) []string {
		return shuffleArgs(append([]string{"-backends", "rq,tcp", "-seeds", "3"}, extra...)...)
	}
	var serial, parallel, errw bytes.Buffer
	if code := runSub("shuffle", multiArgs("-parallel", "1", "-format", "json"), &serial, &errw); code != 0 {
		t.Fatalf("serial run exited %d: %s", code, errw.String())
	}
	errw.Reset()
	if code := runSub("shuffle", multiArgs("-format", "json"), &parallel, &errw); code != 0 {
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
		if c.Scenario != "shuffle" || len(c.Errors) > 0 {
			t.Fatalf("cell %+v", c)
		}
	}

	var table bytes.Buffer
	errw.Reset()
	if code := runSub("shuffle", multiArgs(), &table, &errw); code != 0 {
		t.Fatalf("table run exited %d: %s", code, errw.String())
	}
	for _, want := range []string{"shuffle/polyraptor", "shuffle/tcp", "shuffle_s", "±CI95"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("aggregate table missing %q:\n%s", want, table.String())
		}
	}
}
