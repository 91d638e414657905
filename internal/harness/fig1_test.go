package harness

import (
	"testing"

	"polyraptor/internal/stats"
	"polyraptor/internal/store"
)

// tinyScale keeps harness unit tests fast; shape assertions are loose
// here and tight in the benches/EXPERIMENTS.md.
func tinyScale() Scale {
	return Scale{FatTreeK: 4, Sessions: 60, Bytes: 256 << 10, LoadFactor: 0.3, Seed: 1}
}

// fig1Goodputs runs one Figure 1 arm and returns its ranked goodputs.
func fig1Goodputs(t *testing.T, pattern Pattern, replicas int, backend store.BackendKind) []float64 {
	t.Helper()
	sc := tinyScale()
	return mustRun(t, Fig1{Scale: sc, Pattern: pattern, Replicas: replicas}, backend, sc.Seed).Detail.([]float64)
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

func TestRQMulticastBeatsTCPMultiUnicast(t *testing.T) {
	// The paper's headline for Fig 1a: with 3 replicas, Polyraptor
	// multicast sustains much higher session goodput than TCP
	// multi-unicast.
	rq := stats.Mean(fig1Goodputs(t, PatternMulticast, 3, store.BackendPolyraptor))
	tcp := stats.Mean(fig1Goodputs(t, PatternMulticast, 3, store.BackendTCP))
	if rq < 1.5*tcp {
		t.Fatalf("RQ mean %.3f not clearly above TCP mean %.3f", rq, tcp)
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
	series, err := Figure1a(tinyScale(), 20)
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

func TestFigure1cShapeAndContrast(t *testing.T) {
	opt := IncastOptions{
		FatTreeK:       4,
		SenderCounts:   []int{2, 8},
		BytesPerSender: []int64{70 << 10},
		Repetitions:    2,
		Seed:           1,
		Trimming:       true,
	}
	series, err := Figure1c(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2 (RQ, TCP at one size)", len(series))
	}
	var rq, tcp FigureSeries
	for _, s := range series {
		switch s.Label {
		case "RQ 70KB":
			rq = s
		case "TCP 70KB":
			tcp = s
		default:
			t.Fatalf("unexpected label %q", s.Label)
		}
	}
	if len(rq.Y) != 2 || len(rq.YErr) != 2 {
		t.Fatalf("RQ series malformed: %+v", rq)
	}
	// At 8 synchronized senders, Polyraptor must hold goodput well
	// above collapsing TCP.
	if rq.Y[1] < tcp.Y[1] {
		t.Fatalf("incast: RQ %.3f below TCP %.3f at 8 senders", rq.Y[1], tcp.Y[1])
	}
	if rq.Y[1] < 0.5 {
		t.Fatalf("RQ incast goodput %.3f collapsed", rq.Y[1])
	}
}

// TestFigure1cSerialParallelIdentical: the figure itself is a sweep;
// its series must not depend on parallelism.
func TestFigure1cSerialParallelIdentical(t *testing.T) {
	opt := IncastOptions{
		FatTreeK:       4,
		SenderCounts:   []int{2, 4},
		BytesPerSender: []int64{32 << 10},
		Repetitions:    3,
		Seed:           1,
		Trimming:       true,
	}
	opt.Parallelism = 1
	serial, err := Figure1c(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 0
	parallel, err := Figure1c(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 2 || len(parallel) != 2 {
		t.Fatalf("series counts = %d, %d, want 2", len(serial), len(parallel))
	}
	for i := range serial {
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

// arms runs both arms of an ablation on Polyraptor and returns the
// named metric of each.
func arms(t *testing.T, a, b Scenario, metric string) (float64, float64) {
	t.Helper()
	return mustRun(t, a, store.BackendPolyraptor, 1).Metrics[metric],
		mustRun(t, b, store.BackendPolyraptor, 1).Metrics[metric]
}

func TestAblationTrim(t *testing.T) {
	a, b := AblationTrim(4, 8, 70<<10)
	if with, without := arms(t, a, b, "goodput_gbps"); with <= without {
		t.Fatalf("trimming did not help incast: with=%.3f without=%.3f", with, without)
	}
}

func TestAblationInitWindow(t *testing.T) {
	a, b := AblationInitWindow(4, 40<<10, 10)
	if window, pullOnly := arms(t, a, b, "fct_us"); window >= pullOnly {
		t.Fatalf("initial window did not reduce short-flow FCT: %vus vs %vus", window, pullOnly)
	}
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

func TestAblationDecode(t *testing.T) {
	a, b := AblationDecode(4, 512<<10, 2000, 5)
	if free, costly := arms(t, a, b, "goodput_gbps"); costly >= free {
		t.Fatalf("decode latency had no cost: %v vs %v", free, costly)
	}
}

func TestScaleLambdaPreservesLoad(t *testing.T) {
	paper := PaperScale()
	l := paper.lambda(1e9, 1)
	// Paper parameters at 1 replica: 0.33 * 250 hosts * 1 Gbps /
	// (8*4MB) ~ 2460/s — close to the quoted 2560.
	if l < 2000 || l > 3000 {
		t.Fatalf("paper-scale lambda = %.0f, want ~2500", l)
	}
	bench := BenchScale()
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
