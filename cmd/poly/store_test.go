package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"polyraptor/internal/store"
)

// TestStoreSmoke drives the whole CLI in-process on a tiny cluster.
func TestStoreSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("store", []string{
		"-k", "4", "-objects", "16", "-bytes", "65536", "-requests", "40",
		"-backends", "rq,tcp", "-fail", "rack",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"PolyStore cluster", "polyraptor", "tcp", "recovery", "full replication true"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestStoreCSV(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("store", []string{
		"-k", "4", "-objects", "8", "-bytes", "65536", "-requests", "20",
		"-backends", "rq", "-fail", "none", "-format", "csv",
	}, &out, &errw)
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

func TestStoreRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fail", "meteor"},
		{"-backends", "quic"},
		{"-backends", ","},
		{"-nope"},
		{"-k", "5"},
		{"-k", "4", "-replicas", "8"}, // 9 racks needed, k=4 has 8
		{"-replicas", "0"},
		{"-objects", "0"},
		{"-bytes", "0"},
		{"-putfrac", "1.5"},
		{"-failfrac", "-0.1"},
		{"-zipf", "-1"},
		{"-requests", "-1"},
		{"-load", "0", "-lambda", "0"},
		{"-seeds", "0"},
		{"-format", "yaml"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("store", args, &out, &errw); code != 2 {
			t.Fatalf("run(%v) exited %d, want 2; stderr: %s", args, code, errw.String())
		}
		if errw.Len() == 0 {
			t.Fatalf("run(%v) printed no error", args)
		}
	}
}

// TestStoreValidatesBeforeRunning: an impossible replicas/rack combo is
// reported with the rack arithmetic, up front.
func TestStoreValidatesBeforeRunning(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSub("store", []string{"-k", "4", "-replicas", "8"}, &out, &errw)
	if code != 2 {
		t.Fatalf("run exited %d, want 2", code)
	}
	s := errw.String()
	for _, want := range []string{"R=8", "9 distinct racks", "k=4", "has 8"} {
		if !strings.Contains(s, want) {
			t.Fatalf("error missing %q: %s", want, s)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("stdout should be empty, got: %s", out.String())
	}
}

// TestStoreMultiSeed: -seeds > 1 aggregates per backend over derived
// sub-seeds, byte-identically at any parallelism.
func TestStoreMultiSeed(t *testing.T) {
	multiArgs := func(extra ...string) []string {
		return append([]string{
			"-k", "4", "-objects", "8", "-bytes", "65536", "-requests", "20",
			"-backends", "rq,tcp", "-fail", "rack", "-seeds", "3",
		}, extra...)
	}
	var serial, parallel, errw bytes.Buffer
	if code := runSub("store", multiArgs("-parallel", "1", "-format", "json"), &serial, &errw); code != 0 {
		t.Fatalf("serial run exited %d: %s", code, errw.String())
	}
	errw.Reset()
	if code := runSub("store", multiArgs("-format", "json"), &parallel, &errw); code != 0 {
		t.Fatalf("parallel run exited %d: %s", code, errw.String())
	}
	if serial.String() != parallel.String() {
		t.Fatalf("JSON differs between -parallel 1 and default:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
	var res struct {
		Seeds int `json:"seeds"`
		Cells []struct {
			Backend string   `json:"backend"`
			Errors  []string `json:"errors"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(serial.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if res.Seeds != 3 || len(res.Cells) != 2 {
		t.Fatalf("decoded %d cells x %d seeds, want 2 x 3", len(res.Cells), res.Seeds)
	}

	var table bytes.Buffer
	errw.Reset()
	if code := runSub("store", multiArgs(), &table, &errw); code != 0 {
		t.Fatalf("table run exited %d: %s", code, errw.String())
	}
	for _, want := range []string{"storage/polyraptor", "storage/tcp", "get_gbps", "±CI95"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("aggregate table missing %q:\n%s", want, table.String())
		}
	}
}

func TestParseBackends(t *testing.T) {
	all, err := store.ParseBackends("all")
	if err != nil || len(all) != 3 {
		t.Fatalf("ParseBackends(all) = %v, %v", all, err)
	}
	got, err := store.ParseBackends("rq, dctcp")
	if err != nil || len(got) != 2 || got[0] != store.BackendPolyraptor || got[1] != store.BackendDCTCP {
		t.Fatalf("ParseBackends(rq, dctcp) = %v, %v", got, err)
	}
}
