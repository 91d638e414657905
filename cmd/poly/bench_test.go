package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestBenchScales(t *testing.T) {
	sc, inc, _ := scales("bench")
	if sc.Sessions == 0 || len(inc.SenderCounts) == 0 {
		t.Fatalf("bench scale empty: %+v / %+v", sc, inc)
	}
	med, medInc, _ := scales("medium")
	if med.Sessions <= sc.Sessions {
		t.Fatal("medium must exceed bench")
	}
	if medInc.FatTreeK*medInc.FatTreeK*medInc.FatTreeK/4 <= medInc.SenderCounts[len(medInc.SenderCounts)-1] {
		t.Fatal("medium incast fabric too small for its sender counts")
	}
	paper, paperInc, _ := scales("paper")
	if paper.FatTreeK != 10 || paper.Sessions != 10000 {
		t.Fatalf("paper scale wrong: %+v", paper)
	}
	if paperInc.SenderCounts[len(paperInc.SenderCounts)-1] != 70 {
		t.Fatal("paper incast must reach 70 senders")
	}
}

// TestGoldenFigures: every figure, ablation and extension at bench
// scale reproduces, byte for byte, the CSV captured from polybench at
// commit b5526c0 — before the harness was collapsed onto Run. ~15 s.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure (~15 s)")
	}
	want, err := os.ReadFile("../../internal/harness/testdata/polybench_all.csv")
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := runSub("bench", []string{"-fig", "all", "-format", "csv"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("poly bench -fig all -format csv differs from the golden:\n%s", out.String())
	}
}

// TestBenchOnePointPerCurve: -points 1 keeps each rank curve's first
// point. It used to divide by zero in stats.Downsample.
func TestBenchOnePointPerCurve(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runSub("bench", []string{"-fig", "1b", "-points", "1", "-format", "csv"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "rank,") || !strings.HasPrefix(lines[2], "0,") {
		t.Fatalf("want a title, a header and the rank-0 row:\n%s", out.String())
	}
}

func TestBenchRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "2z"}, {"-scale", "galactic"}, {"-nope"},
		{"-points", "-1"}, {"-reps", "-1"}, {"-format", "json"}, {"-format", "yaml"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("bench", args, &out, &errw); code != 2 || errw.Len() == 0 {
			t.Fatalf("run(%v) exited %d with stderr %q, want 2 and an error", args, code, errw.String())
		}
	}
}
