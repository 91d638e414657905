package harness

import (
	"math/rand"
	"testing"

	"polyraptor/internal/store"
	"polyraptor/internal/workload"
)

// hotspotGbps runs the E1 scenario and returns its mean goodput and
// degraded-link count.
func hotspotGbps(t *testing.T, frac float64, transfers int, bytes int64, senders int, be store.BackendKind, seed int64) (gbps float64, degraded int) {
	t.Helper()
	m := mustRun(t, Hotspot(4, frac, 10, transfers, bytes, senders), be, seed).Metrics
	return m["goodput_gbps"], int(m["degraded_links"])
}

func TestHotspotExperiment(t *testing.T) {
	// A single seed can legitimately let every hash-pinned TCP flow
	// dodge the degraded links (6 sequential transfers, 5/16 hotspots),
	// so the RQ-vs-TCP contrast is asserted on the mean over seeds
	// while the per-seed invariants stay exact.
	var rq3Sum, tcpSum float64
	for seed := int64(1); seed <= 3; seed++ {
		rq1, degraded := hotspotGbps(t, 0.3, 6, 1<<20, 1, store.BackendPolyraptor, seed)
		rq3, _ := hotspotGbps(t, 0.3, 6, 1<<20, 3, store.BackendPolyraptor, seed)
		tcp1, _ := hotspotGbps(t, 0.3, 6, 1<<20, 1, store.BackendTCP, seed)
		if degraded == 0 {
			t.Fatal("no links degraded at frac=0.3")
		}
		if rq1 <= 0 || rq3 <= 0 || tcp1 <= 0 {
			t.Fatalf("zero goodput: rq1=%v rq3=%v tcp1=%v", rq1, rq3, tcp1)
		}
		// Three sources give more healthy-path diversity than one.
		if rq3 < rq1*0.95 {
			t.Fatalf("seed %d: RQ3 (%.3f) worse than RQ1 (%.3f) under hotspots", seed, rq3, rq1)
		}
		rq3Sum += rq3
		tcpSum += tcp1
	}
	// Spraying + multiple sources must beat a hash-pinned single TCP
	// flow under hotspots on average.
	if rq3Sum <= tcpSum {
		t.Fatalf("mean RQ3 (%.3f) did not beat mean pinned TCP (%.3f) under hotspots", rq3Sum/3, tcpSum/3)
	}
}

func TestHotspotNoDegradationAtZeroFrac(t *testing.T) {
	rq1, degraded := hotspotGbps(t, 0, 2, 256<<10, 1, store.BackendPolyraptor, 1)
	if degraded != 0 {
		t.Fatalf("degraded %d links at frac=0", degraded)
	}
	// Healthy fabric: sequential transfers near line rate.
	if rq1 < 0.8 {
		t.Fatalf("RQ1 = %.3f on healthy fabric", rq1)
	}
}

func TestFlowSizes(t *testing.T) {
	sc := FlowSizes{FatTreeK: 4, Dist: workload.WebSearchDist(), Sessions: 40}
	if sc.Name() != "flowsizes-web-search" {
		t.Fatalf("name = %q", sc.Name())
	}
	rq := mustRun(t, sc, store.BackendPolyraptor, 1).Detail.([]FlowSizeBucket)
	tcp := mustRun(t, sc, store.BackendTCP, 1).Detail.([]FlowSizeBucket)
	// Both transports must cover the same sessions, bucket by bucket.
	total := 0
	for i := range rq {
		total += rq[i].Count
		if rq[i].Count != tcp[i].Count {
			t.Fatalf("bucket %s: RQ %d sessions, TCP %d", rq[i].Label, rq[i].Count, tcp[i].Count)
		}
	}
	if total != 40 {
		t.Fatalf("bucket counts sum to %d, want 40", total)
	}
	// Small flows must be fast for Polyraptor (first-RTT window):
	// sub-millisecond mean FCT in an uncongested-ish fabric.
	if rq[0].Count > 0 && rq[0].MeanFCT > 5e6 {
		t.Fatalf("RQ small-flow mean FCT = %v", rq[0].MeanFCT)
	}
}

func TestStragglerContrast(t *testing.T) {
	on := mustRun(t, Straggler{Detach: true, Bytes: 2 << 20}, store.BackendPolyraptor, 9).Detail.(StragglerResult)
	off := mustRun(t, Straggler{Detach: false, Bytes: 2 << 20}, store.BackendPolyraptor, 9).Detail.(StragglerResult)
	if !on.Detached {
		t.Fatal("detachment enabled but straggler not detached")
	}
	if off.Detached {
		t.Fatal("detachment disabled but straggler detached")
	}
	if on.HealthyGoodput <= off.HealthyGoodput {
		t.Fatalf("detachment did not help healthy receivers: %.3f vs %.3f",
			on.HealthyGoodput, off.HealthyGoodput)
	}
	if on.StragglerGoodput <= 0 {
		t.Fatal("straggler never finished its private tail")
	}
}

func TestOversubscriptionShapes(t *testing.T) {
	incast := func(ratio int64, be store.BackendKind) float64 {
		sc := Incast{FatTreeK: 4, Senders: 12, Bytes: 256 << 10, Oversubscribe: ratio}
		return mustRun(t, sc, be, 1).Metrics["goodput_gbps"]
	}
	fullRQ, overRQ, overTCP := incast(1, store.BackendPolyraptor), incast(4, store.BackendPolyraptor), incast(4, store.BackendTCP)
	// 4:1 oversubscription caps the out-of-rack aggregate at 0.25 of
	// host rate-ish; both protocols must slow down, and Polyraptor
	// must stay ahead of TCP.
	if overRQ >= fullRQ {
		t.Fatalf("RQ unaffected by 4:1 oversubscription: %.3f vs %.3f", overRQ, fullRQ)
	}
	if overRQ <= overTCP {
		t.Fatalf("RQ (%.3f) lost to TCP (%.3f) under oversubscription", overRQ, overTCP)
	}
	if overRQ < 0.15 {
		t.Fatalf("RQ collapsed under oversubscription: %.3f", overRQ)
	}
}

func TestSizeDistSampling(t *testing.T) {
	for _, dist := range []workload.SizeDist{workload.WebSearchDist(), workload.DataMiningDist()} {
		rng := rand.New(rand.NewSource(1))
		small, large := 0, 0
		const n = 5000
		for i := 0; i < n; i++ {
			v := dist.Sample(rng)
			if v < 1 {
				t.Fatalf("%s: sampled %d", dist.Name, v)
			}
			if v < 100<<10 {
				small++
			}
			if v > 1<<20 {
				large++
			}
		}
		// Both distributions are small-flow dominated but heavy-tailed.
		if small < n/3 {
			t.Fatalf("%s: only %d/%d small flows", dist.Name, small, n)
		}
		if large == 0 {
			t.Fatalf("%s: no large flows sampled", dist.Name)
		}
		if dist.Mean() < 10<<10 {
			t.Fatalf("%s: mean %v implausibly small", dist.Name, dist.Mean())
		}
	}
}
