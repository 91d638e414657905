package main

import (
	"bytes"
	"strings"
	"testing"

	"polyraptor/internal/harness"
	"polyraptor/internal/netsim"
	"polyraptor/internal/store"
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
	for _, want := range []string{"3 seeds", "incast/rq", "goodput_gbps", "±CI95"} {
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
