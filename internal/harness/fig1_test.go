package harness

import (
	"runtime"
	"slices"
	"testing"

	"polyraptor/internal/stats"
	"polyraptor/internal/store"
)

// tinyScale keeps harness unit tests fast; shape assertions are loose
// here and tight in the benches/EXPERIMENTS.md.
func tinyScale() Scale {
	return Scale{FatTreeK: 4, Sessions: 60, Bytes: 256 << 10, LoadFactor: 0.3}
}

// fig1Goodputs runs one Figure 1 arm and returns its ranked goodputs.
func fig1Goodputs(t *testing.T, pattern Pattern, replicas int, backend store.BackendKind) []float64 {
	t.Helper()
	sc := tinyScale()
	return mustRun(t, Fig1{Scale: sc, Pattern: pattern, Replicas: replicas}, backend, 1).Detail.([]float64)
}

func TestFig1RQMulticastProducesForegroundGoodputs(t *testing.T) {
	g := fig1Goodputs(t, PatternMulticast, 3, store.BackendPolyraptor)
	// ~80% of 60 sessions are foreground.
	if len(g) < 35 || len(g) > 60 {
		t.Fatalf("foreground sessions = %d", len(g))
	}
	for i, v := range g {
		if v <= 0 || v > 1.0 {
			t.Fatalf("goodput[%d] = %v out of (0,1] Gbps", i, v)
		}
		if i > 0 && v > g[i-1] {
			t.Fatal("series not ranked descending")
		}
	}
	// In this deliberately tiny 16-host fabric, 3-replica delivery
	// inflates effective downlink load to ~0.8, so even the best
	// session contends; near-line-rate tops only appear at larger
	// scale (see the benches and EXPERIMENTS.md).
	if g[0] < 0.4 {
		t.Fatalf("best multicast session only %.3f Gbps", g[0])
	}
}

func TestFig1TCPMulticastSlowerWithReplicas(t *testing.T) {
	m1 := stats.Mean(fig1Goodputs(t, PatternMulticast, 1, store.BackendTCP))
	m3 := stats.Mean(fig1Goodputs(t, PatternMulticast, 3, store.BackendTCP))
	// Multi-unicast to 3 replicas shares the writer's uplink: mean
	// session goodput must drop clearly below the single-replica case.
	if m3 >= m1 {
		t.Fatalf("TCP 3-replica mean %.3f >= 1-replica mean %.3f", m3, m1)
	}
	if m3 > 0.5 {
		t.Fatalf("TCP 3-replica mean %.3f suspiciously high (uplink is shared 3 ways)", m3)
	}
}

func TestFig1MultiSource(t *testing.T) {
	rq := fig1Goodputs(t, PatternMultiSource, 3, store.BackendPolyraptor)
	if len(rq) == 0 {
		t.Fatal("no multi-source completions")
	}
	if rq[0] < 0.6 {
		t.Fatalf("best multi-source session only %.3f Gbps", rq[0])
	}
	if tcp := fig1Goodputs(t, PatternMultiSource, 3, store.BackendTCP); len(tcp) == 0 {
		t.Fatal("no TCP multi-source completions")
	}
}

func TestFigure1aShape(t *testing.T) {
	series, err := Figure1a(tinyScale(), 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4", len(series))
	}
	labels := map[string]bool{}
	for _, s := range series {
		labels[s.Label] = true
		if len(s.X) != len(s.Y) {
			t.Fatalf("%s: x/y length mismatch", s.Label)
		}
		if len(s.Y) > 20 {
			t.Fatalf("%s: not downsampled (%d points)", s.Label, len(s.Y))
		}
	}
	for _, want := range []string{"1 Replica RQ", "3 Replicas RQ", "1 Replica TCP", "3 Replicas TCP"} {
		if !labels[want] {
			t.Fatalf("missing series %q (have %v)", want, labels)
		}
	}
}

// TestFigure1cSerialParallelIdentical: the figure itself is a sweep;
// its series, one per transport and block size with a point and an
// error bar per sender count, must not depend on parallelism.
func TestFigure1cSerialParallelIdentical(t *testing.T) {
	figure := func() []FigureSeries {
		t.Helper()
		series, err := Figure1c(DefaultIncast(), []int{2, 4}, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := figure()
	runtime.GOMAXPROCS(max(2, runtime.NumCPU()))
	parallel := figure()
	if len(serial) != 4 || len(parallel) != 4 {
		t.Fatalf("series counts = %d, %d, want 4", len(serial), len(parallel))
	}
	for i, want := range []string{"RQ 256KB", "TCP 256KB", "RQ 70KB", "TCP 70KB"} {
		if serial[i].Label != want || len(serial[i].Y) != 2 || len(serial[i].YErr) != 2 {
			t.Fatalf("series %d: %q with %d points and %d error bars, want %q with 2 of each",
				i, serial[i].Label, len(serial[i].Y), len(serial[i].YErr), want)
		}
		if serial[i].Label != parallel[i].Label {
			t.Fatalf("labels differ: %q vs %q", serial[i].Label, parallel[i].Label)
		}
		for j := range serial[i].Y {
			if serial[i].Y[j] != parallel[i].Y[j] || serial[i].YErr[j] != parallel[i].YErr[j] {
				t.Fatalf("series %q point %d differs: %v±%v vs %v±%v",
					serial[i].Label, j,
					serial[i].Y[j], serial[i].YErr[j],
					parallel[i].Y[j], parallel[i].YErr[j])
			}
		}
	}
}

// TestFigureScales resolves both poly bench scales without running
// them: paper is the figure captions, bench the sizes of the figure
// golden.
func TestFigureScales(t *testing.T) {
	resolve := func(name string) (FigureScale, SweepParams) {
		t.Helper()
		s, p, err := LookupFigureScale(name)
		if err != nil {
			t.Fatal(err)
		}
		return s, p
	}
	paper, pp := resolve("paper")
	if want := (Scale{FatTreeK: 10, Sessions: 10000, Bytes: 4 << 20, LoadFactor: 0.33}); pp.Fig1.Scale != want || pp.Incast.FatTreeK != 10 {
		t.Errorf("paper: fig1 %+v, incast k=%d; want %+v on k=10", pp.Fig1.Scale, pp.Incast.FatTreeK, want)
	}
	if paper.Senders[len(paper.Senders)-1] != 70 || paper.Reps != 5 {
		t.Errorf("paper: Fig 1c axis %v over %d reps, want up to 70 over 5", paper.Senders, paper.Reps)
	}
	bench, bp := resolve("bench")
	if want := (Scale{FatTreeK: 4, Sessions: 150, Bytes: 512 << 10, LoadFactor: 0.33}); bp.Fig1.Scale != want || bp.Incast != DefaultIncast() {
		t.Errorf("bench: fig1 %+v, incast %+v; want %+v and the incast default", bp.Fig1.Scale, bp.Incast, want)
	}
	if !slices.Equal(bench.Senders, []int{2, 4, 8, 12}) || bench.Reps != 3 {
		t.Errorf("bench: Fig 1c axis %v over %d reps, want [2 4 8 12] over 3", bench.Senders, bench.Reps)
	}
	if _, _, err := LookupFigureScale("medium"); err == nil {
		t.Error("scale medium resolved")
	}
}

// arms runs both arms of an ablation on Polyraptor and returns the
// named metric of each.
func arms(t *testing.T, a, b Scenario, metric string) (float64, float64) {
	t.Helper()
	return mustRun(t, a, store.BackendPolyraptor, 1).Metrics[metric],
		mustRun(t, b, store.BackendPolyraptor, 1).Metrics[metric]
}

func TestAblationESI(t *testing.T) {
	a, b := AblationESI(4, 3, 6, 512<<10)
	partitioned, random := arms(t, a, b, "goodput_gbps")
	if partitioned <= 0 || random <= 0 {
		t.Fatalf("ablation produced zero goodput: %v / %v", partitioned, random)
	}
	// Random seeding can only waste capacity (duplicates), never gain.
	if random > partitioned*1.05 {
		t.Fatalf("random ESI (%v) beat partitioning (%v)", random, partitioned)
	}
}

func TestScaleLambdaPreservesLoad(t *testing.T) {
	scale := func(name string) Scale {
		t.Helper()
		_, p, err := LookupFigureScale(name)
		if err != nil {
			t.Fatal(err)
		}
		return p.Fig1.Scale
	}
	paper := scale("paper")
	l := paper.lambda(1e9, 1)
	// Paper parameters at 1 replica: 0.33 * 250 hosts * 1 Gbps /
	// (8*4MB) ~ 2460/s — close to the quoted 2560.
	if l < 2000 || l > 3000 {
		t.Fatalf("paper-scale lambda = %.0f, want ~2500", l)
	}
	bench := scale("bench")
	lb := bench.lambda(1e9, 1)
	perHostPaper := l * float64(paper.Bytes) * 8 / (250 * 1e9)
	perHostBench := lb * float64(bench.Bytes) * 8 / (16 * 1e9)
	if diff := perHostPaper - perHostBench; diff > 0.01 || diff < -0.01 {
		t.Fatalf("per-host load differs: paper %.3f vs bench %.3f", perHostPaper, perHostBench)
	}
	// Delivered-load normalisation: 3-replica multicast arrivals slow
	// down by the replication multiplier.
	c3 := paper.workloadConfig(1e9, PatternMulticast, 3, 1)
	c1 := paper.workloadConfig(1e9, PatternMulticast, 1, 1)
	if ratio := c1.Lambda / c3.Lambda; ratio < 2.5 || ratio > 2.7 {
		t.Fatalf("3-replica lambda ratio = %.2f, want ~2.6", ratio)
	}
	// Multi-source delivers one copy regardless of sender count.
	cm := paper.workloadConfig(1e9, PatternMultiSource, 3, 1)
	if cm.Lambda != c1.Lambda {
		t.Fatal("multi-source lambda must not scale with senders")
	}
}
