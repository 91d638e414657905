package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"polyraptor/internal/harness"
)

// TestBenchScales: -scale takes exactly the harness's figure scales.
// bench is what the figure prints by default (Fig 1c on k = 4, senders
// 2 to 12 over 3 repetitions); paper is the figure captions (k = 10,
// 10,000 sessions, incast up to 70 senders), resolved without running;
// the old medium scale is gone and exits 2.
func TestBenchScales(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runSub("bench", []string{"-fig", "1c", "-scale", "bench", "-format", "csv"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 || lines[0] != "# Figure 1c — incast (k=4 reps=3)" ||
		!strings.HasPrefix(lines[2], "2,") || !strings.HasPrefix(lines[5], "12,") {
		t.Fatalf("bench Fig 1c: want k=4 reps=3 over senders 2 to 12:\n%s", out.String())
	}
	bench, bp, err := harness.LookupFigureScale("bench")
	if err != nil {
		t.Fatal(err)
	}
	paper, pp, err := harness.LookupFigureScale("paper")
	if err != nil {
		t.Fatal(err)
	}
	if pp.Fig1.FatTreeK != 10 || pp.Fig1.Sessions != 10000 || pp.Incast.FatTreeK != 10 {
		t.Fatalf("paper scale wrong: fig1 %+v, incast k=%d", pp.Fig1.Scale, pp.Incast.FatTreeK)
	}
	if bp.Fig1.Sessions >= pp.Fig1.Sessions || len(bench.Senders) == 0 {
		t.Fatalf("bench scale not smaller than paper: %+v / %+v", bp.Fig1.Scale, bench)
	}
	if paper.Senders[len(paper.Senders)-1] != 70 {
		t.Fatalf("paper incast must reach 70 senders: %v", paper.Senders)
	}
	errw.Reset()
	if code := runSub("bench", []string{"-scale", "medium"}, &out, &errw); code != 2 || !strings.Contains(errw.String(), "medium") {
		t.Fatalf("-scale medium exited %d with stderr %q, want 2 naming the scale", code, errw.String())
	}
}

// TestGoldenFigures: every figure, ablation and extension at bench
// scale reproduces, byte for byte, the golden CSV. Its RQ numbers are
// those captured from polybench at commit b5526c0, before the harness
// was collapsed onto Run; its TCP numbers were regenerated when a new
// ACK began to lift the TCP sender's nextSeq. ~15 s.
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
		{"-fig", "2z"}, {"-scale", "galactic"}, {"-scale", "medium"}, {"-nope"},
		{"-points", "-1"}, {"-reps", "-1"}, {"-format", "json"}, {"-format", "yaml"},
	} {
		var out, errw bytes.Buffer
		if code := runSub("bench", args, &out, &errw); code != 2 || errw.Len() == 0 {
			t.Fatalf("run(%v) exited %d with stderr %q, want 2 and an error", args, code, errw.String())
		}
	}
}
