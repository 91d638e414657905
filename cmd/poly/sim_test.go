package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"polyraptor/internal/harness"
	"polyraptor/internal/netsim"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
	"polyraptor/internal/topology"
)

// TestSimPickInvariants checks the peer picker: n distinct hosts, none in
// the client's rack, never the client itself.
func TestSimPickInvariants(t *testing.T) {
	ft, err := topology.NewFatTree(4, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		got := pickPeers(ft, 0, seed, 4)
		if len(got) != 4 {
			t.Fatalf("seed %d: got %d peers, want 4", seed, len(got))
		}
		seen := map[int]bool{}
		for _, p := range got {
			if p == 0 || ft.SameRack(0, p) {
				t.Fatalf("seed %d: peer %d is the client or shares its rack", seed, p)
			}
			if seen[p] {
				t.Fatalf("seed %d: duplicate peer %d", seed, p)
			}
			seen[p] = true
		}
	}
}

// TestSimSmoke exercises the verbose single-run paths end to end on a
// small fabric, in-process.
func TestSimSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-backends", "rq", "-pattern", "multisource", "-k", "4", "-bytes", "65536", "-replicas", "3"},
		{"-backends", "rq", "-pattern", "incast", "-k", "4", "-bytes", "32768", "-senders", "4"},
		{"-backends", "tcp", "-pattern", "multicast", "-k", "4", "-bytes", "65536", "-replicas", "3"},
		{"-backends", "dctcp", "-pattern", "unicast", "-k", "4", "-bytes", "65536"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("sim", args, &out, &errw); code != 0 {
			t.Fatalf("run(%v) exited %d: %s", args, code, errw.String())
		}
		s := out.String()
		for _, want := range []string{"fabric: k=4", "switch queues:", "Gbps"} {
			if !strings.Contains(s, want) {
				t.Fatalf("run(%v) output missing %q:\n%s", args, want, s)
			}
		}
	}
}

// TestSimMultiSeed: -seeds > 1 aggregates over derived sub-seeds on the
// worker pool, and the aggregate table is identical at -parallel 1.
func TestSimMultiSeed(t *testing.T) {
	table := func(parallel string) string {
		args := []string{
			"-backends", "rq", "-pattern", "incast", "-k", "4",
			"-bytes", "32768", "-senders", "4",
			"-seeds", "3", "-parallel", parallel,
		}
		var out, errw bytes.Buffer
		if code := runSub("sim", args, &out, &errw); code != 0 {
			t.Fatalf("run(-parallel %s) exited %d: %s", parallel, code, errw.String())
		}
		return out.String()
	}
	serial := table("1")
	parallel := table("0")
	if serial != parallel {
		t.Fatalf("aggregate differs between -parallel 1 and -parallel 0:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	for _, want := range []string{"3 seeds", "incast/polyraptor", "goodput_gbps", "±CI95"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("aggregate output missing %q:\n%s", want, serial)
		}
	}
	// Multi-seed mode must not print per-receiver detail.
	if strings.Contains(serial, "receiver") {
		t.Fatalf("aggregate output contains per-receiver detail:\n%s", serial)
	}
}

// TestSimRejectsBadFlags: impossible configurations fail fast with a
// clear error instead of hanging in the peer picker or panicking in
// the engine.
func TestSimRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-backends", "quic"},
		{"-pattern", "broadcast"},
		{"-k", "5"},
		{"-k", "0"},
		{"-bytes", "0"},
		{"-pattern", "incast", "-k", "4", "-senders", "15"}, // 14 out-of-rack hosts
		{"-pattern", "multicast", "-k", "4", "-replicas", "15"},
		{"-pattern", "multisource", "-k", "4", "-replicas", "0"},
		{"-seeds", "0"},
		{"-nope"},
		{"-backends", "rq,tcp"}, // one backend at a time
		{"-backends", "all"},
		{"-seeds", "2", "-trace"}, // tracing is single-run only
		{"-format", "json", "-trace"},
		{"-format", "csv"}, // a single run prints its own lines
		{"-format", "xml"},
		{"stray"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("sim", args, &out, &errw); code != 2 {
			t.Fatalf("run(%v) exited %d, want 2; stderr: %s", args, code, errw.String())
		}
		if errw.Len() == 0 {
			t.Fatalf("run(%v) printed no error", args)
		}
	}
}

// TestSimScenarioValidateBounds pins the out-of-rack arithmetic: a k=4
// fabric has 16 hosts, 2 per rack, so at most 14 eligible peers.
func TestSimScenarioValidateBounds(t *testing.T) {
	sc := simScenario{pattern: "incast", k: 4, bytes: 1, senders: 14}
	if err := sc.Validate(); err != nil {
		t.Fatalf("14 senders on k=4 should be valid: %v", err)
	}
	sc.senders = 15
	if err := sc.Validate(); err == nil {
		t.Fatal("15 senders on k=4 accepted")
	}
}

// TestTCPMultiSourceMovesEveryByte: the TCP multi-source emulation
// fetches a 1/R share per replica and the last share carries the
// remainder. polysim used to start bytes/replicas per share (4 MiB over
// 3 replicas moved 4,194,303 bytes) while computing goodput over the
// full object; the flows its trace records must sum to -bytes.
func TestTCPMultiSourceMovesEveryByte(t *testing.T) {
	const size, replicas = 100001, 3 // 33333 + 33333 + 33335
	sc := simScenario{pattern: "multisource", k: 4, bytes: size, replicas: replicas, trim: true}
	for _, be := range []store.BackendKind{store.BackendTCP, store.BackendDCTCP} {
		res, err := harness.Run(sc, be, 1, harness.Observers{Trace: &telemetry.Options{}})
		if err != nil {
			t.Fatal(err)
		}
		var moved int64
		flows := res.Trace.Explain()
		for _, d := range flows {
			moved += d.Info.Bytes
		}
		if len(flows) != replicas || moved != size {
			t.Fatalf("%v: %d flows moved %d bytes, want %d flows summing to %d", be, len(flows), moved, replicas, size)
		}
	}
	// The CLI surface agrees: one line per share.
	var out, errw bytes.Buffer
	args := []string{"-backends", "tcp", "-pattern", "multisource", "-k", "4", "-bytes", "100001", "-replicas", "3"}
	if code := runSub("sim", args, &out, &errw); code != 0 {
		t.Fatalf("run(%v) exited %d: %s", args, code, errw.String())
	}
	if n := strings.Count(out.String(), "\nflow "); n != replicas {
		t.Fatalf("want %d flow lines, got %d:\n%s", replicas, n, out.String())
	}
}

// TestSimSizeFlagsReachTheirPatterns: a size flag that the pattern
// does not use exits 2 naming the flag, instead of being ignored.
func TestSimSizeFlagsReachTheirPatterns(t *testing.T) {
	for _, args := range [][]string{
		{"-pattern", "multicast", "-senders", "12"},
		{"-pattern", "unicast", "-replicas", "2"},
		{"-pattern", "incast", "-replicas", "2"},
		{"-pattern", "multisource", "-detach"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("sim", args, &out, &errw); code != 2 || !strings.Contains(errw.String(), args[2]) {
			t.Errorf("poly sim %v exited %d, want 2 naming %s: %s", args, code, args[2], errw.String())
		}
	}
}

// TestSimIncastIsTheSweepCell: poly sim -pattern incast with no size
// flags is poly sweep's incast cell. At each backend, its single run
// at sub-seed 0 reports that cell's sample, to the last bit in the
// library and to the printed digits on the CLI.
func TestSimIncastIsTheSweepCell(t *testing.T) {
	var res sweep.Result
	if err := json.Unmarshal(runOK(t, "sweep", "-scenarios", "incast", "-backends", "rq,tcp", "-seeds", "1", "-format", "json"), &res); err != nil {
		t.Fatal(err)
	}
	var sc simScenario
	sc.Flags(flag.NewFlagSet("", flag.ContinueOnError))
	sc.pattern = "incast"
	for _, cell := range res.Cells {
		be, _ := store.ParseBackend(cell.Backend)
		seed, want := cell.Seeds[0], cell.Samples["goodput_gbps"][0]
		got, err := harness.Run(sc, be, seed, harness.Observers{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Metrics["goodput_gbps"] != want {
			t.Errorf("%s: poly sim incast reads %v Gbps, the sweep cell %v", cell.Backend, got.Metrics["goodput_gbps"], want)
		}
		line := fmt.Sprintf("%s incast: %.3f Gbps", be, want)
		if out := runOK(t, "sim", "-pattern", "incast", "-backends", be.String(), "-seed", strconv.FormatInt(seed, 10)); !bytes.Contains(out, []byte(line)) {
			t.Errorf("poly sim prints\n%s\nwant %q", out, line)
		}
	}
}
