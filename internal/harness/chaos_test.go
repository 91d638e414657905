package harness

import (
	"bytes"
	"testing"
	"time"

	"polyraptor/internal/chaos"
	"polyraptor/internal/store"
	"polyraptor/internal/telemetry"
)

// chaosRun runs one chaos scenario and returns its typed result.
func chaosRun(t *testing.T, o ChaosOptions, be store.BackendKind, seed int64) ChaosRun {
	t.Helper()
	return mustRun(t, o, be, seed).Detail.(ChaosRun)
}

// tinyChaosOptions is the k=4 template the unit tests share: 6
// cross-pod flows of 256 KB with a quarter of the core links
// blackholed at 500 µs, never healed, scored at a 1 s deadline.
func tinyChaosOptions() ChaosOptions {
	return testChaosOptions()
}

// TestChaosRQCompletesWhereTCPStrands is the subsystem's acceptance
// test (the paper's headline under real mid-flow faults): with a
// seeded fraction of core links killed mid-flow, Polyraptor completes
// every flow — per-packet spraying plus rateless coding need any
// surviving path, no rerouting — while hash-pinned TCP strands the
// flows whose ECMP hash leads into a remote blackhole. Seed 1's draw
// keeps every pod reachable (a draw that severs all core links into
// one pod strands any transport; that physics is exercised in
// TestChaosSeveredPodStallsEveryone-like sweeps, not here).
func TestChaosRQCompletesWhereTCPStrands(t *testing.T) {
	o := tinyChaosOptions()
	rq := chaosRun(t, o, store.BackendPolyraptor, 1)
	tcp := chaosRun(t, o, store.BackendTCP, 1)

	if len(rq.FaultTargets) == 0 || len(tcp.FaultTargets) == 0 {
		t.Fatal("no links were targeted; the fault plan is vacuous")
	}
	if rq.RouteDrops == 0 {
		t.Fatal("no packets were blackholed; the fault did not bite")
	}
	if rq.Stalled != 0 || rq.Completed != rq.Flows {
		t.Fatalf("rq stalled %d/%d flows under core blackholes (want zero stalls)", rq.Stalled, rq.Flows)
	}
	if tcp.Stalled == 0 {
		t.Fatalf("tcp stranded no flows (completed %d/%d); the contrast is vacuous", tcp.Completed, tcp.Flows)
	}
	if rq.GoodputGbps <= tcp.GoodputGbps {
		t.Fatalf("rq goodput %.4f <= tcp %.4f under faults", rq.GoodputGbps, tcp.GoodputGbps)
	}
	// Completed-flow FCTs stay finite and inside the deadline.
	if rq.FCT.Max >= o.Deadline.Seconds() {
		t.Fatalf("rq FCT max %.3fs reached the deadline %v", rq.FCT.Max, o.Deadline)
	}
}

// TestChaosRecoveryUnstrandsTCP: the same fault healed mid-run frees
// the stranded TCP flows — their RTO backoff retries land on restored
// links — so stalls drop to zero but tail FCT keeps the scar.
func TestChaosRecoveryUnstrandsTCP(t *testing.T) {
	o := tinyChaosOptions()
	o.Fault.RecoverAt = 100 * time.Millisecond
	o.Deadline = 3 * time.Second
	tcp := chaosRun(t, o, store.BackendTCP, 1)
	if tcp.Stalled != 0 {
		t.Fatalf("tcp still stranded %d flows after the fault healed", tcp.Stalled)
	}
	// The stranded flows sat through the 100 ms outage plus RTO
	// backoff: the tail must be far beyond the healthy ~3 ms FCT.
	if tcp.FCT.Max < 0.05 {
		t.Fatalf("tcp max FCT %.4fs shows no outage scar", tcp.FCT.Max)
	}
}

func TestChaosPatternsRunOnAllBackends(t *testing.T) {
	for _, pattern := range ChaosPatterns() {
		o := tinyChaosOptions()
		o.Pattern = pattern
		// Multicast trees are single-path (no spraying inside the
		// group tree), so a permanent core blackhole can legitimately
		// park receivers behind the severed branch; heal it mid-run.
		if pattern == "multicast" {
			o.Fault.RecoverAt = 50 * time.Millisecond
		}
		for _, be := range []store.BackendKind{store.BackendPolyraptor, store.BackendTCP, store.BackendDCTCP} {
			r := chaosRun(t, o, be, 3)
			if r.Flows == 0 {
				t.Fatalf("%s/%s: no flows", pattern, be)
			}
			if r.Completed+r.Stalled != r.Flows {
				t.Fatalf("%s/%s: completed %d + stalled %d != flows %d", pattern, be, r.Completed, r.Stalled, r.Flows)
			}
			if r.FCT.N != r.Completed {
				t.Fatalf("%s/%s: %d FCT samples for %d completions", pattern, be, r.FCT.N, r.Completed)
			}
			if r.Completed > 0 && r.GoodputGbps <= 0 {
				t.Fatalf("%s/%s: completed %d flows at %.4f Gbps", pattern, be, r.Completed, r.GoodputGbps)
			}
		}
	}
}

func TestChaosOptionsValidate(t *testing.T) {
	if err := tinyChaosOptions().Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	mut := func(f func(*ChaosOptions)) ChaosOptions {
		o := tinyChaosOptions()
		f(&o)
		return o
	}
	bad := []ChaosOptions{
		mut(func(o *ChaosOptions) { o.FatTreeK = 3 }),
		mut(func(o *ChaosOptions) { o.Pattern = "tornado" }),
		mut(func(o *ChaosOptions) { o.Flows = 0 }),
		mut(func(o *ChaosOptions) { o.Flows = 1000 }), // 2*flows > hosts
		mut(func(o *ChaosOptions) { o.Pattern = "incast"; o.Senders = 0 }),
		mut(func(o *ChaosOptions) { o.Pattern = "multicast"; o.Replicas = 10000 }),
		mut(func(o *ChaosOptions) { o.Pattern = "shuffle"; o.Mappers = 0 }),
		mut(func(o *ChaosOptions) { o.Bytes = 0 }),
		mut(func(o *ChaosOptions) { o.Deadline = 0 }),
		mut(func(o *ChaosOptions) { o.Deadline = o.Fault.FailAt }), // deadline before fault
		mut(func(o *ChaosOptions) { o.Fault.Frac = 2 }),
		mut(func(o *ChaosOptions) { o.Fault.Kind = chaos.KindLinkLoss }), // loss without rate
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("bad options %d accepted: %+v", i, o)
		}
	}
}

func TestNewSweepCellChaos(t *testing.T) {
	p := tinySweepParams()
	cell, err := NewSweepCell("chaos", store.BackendPolyraptor, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cell.Runner.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"completed", "stalled", "stall_rate", "fct_p50_s", "fct_p99_s", "goodput_gbps", "blackholed", "link_drops", "queue_drops", "fault_targets"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("chaos metrics missing %q: %v", key, m)
		}
	}
	if m["completed"]+m["stalled"] != float64(p.Chaos.Flows) {
		t.Fatalf("completed %v + stalled %v != flows %d", m["completed"], m["stalled"], p.Chaos.Flows)
	}
	// An invalid template is an error at cell-build time, not run time.
	p.Chaos.Fault.Frac = 9
	if _, err := NewSweepCell("chaos", store.BackendPolyraptor, p); err == nil {
		t.Fatal("invalid chaos template accepted")
	}
}

// TestTracedChaosAttributesBlackholeToDeadPath is the explain report's
// regression test: under the PR 5 acceptance scenario (a quarter of
// the core links blackholed mid-flow, hash-pinned TCP), every stranded
// flow must be attributed to the dead path — blackholed packets, the
// EvRouteDrop stream — and never to congestion, even though the same
// run also records genuine queue drops on healthy flows.
func TestTracedChaosAttributesBlackholeToDeadPath(t *testing.T) {
	res, err := Run(testChaosOptions(), store.BackendTCP, 1, Observers{Trace: &telemetry.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	run, tr := res.Detail.(ChaosRun), res.Trace
	if run.Stalled == 0 {
		t.Fatal("no TCP flow stranded; the attribution scenario is vacuous")
	}
	diags := tr.Explain()
	if len(diags) != run.Flows {
		t.Fatalf("explain diagnosed %d flows, run had %d", len(diags), run.Flows)
	}
	stalled := 0
	for _, d := range diags {
		if !d.Stalled {
			if d.Verdict != telemetry.VerdictCompleted {
				t.Fatalf("flow %d completed but verdict is %q", d.Info.Flow, d.Verdict)
			}
			continue
		}
		stalled++
		if d.Verdict != telemetry.VerdictDeadPath {
			t.Fatalf("stalled flow %d verdict %q, want %q (route=%d link=%d queue=%d)",
				d.Info.Flow, d.Verdict, telemetry.VerdictDeadPath,
				d.RouteDrops, d.LinkDrops, d.QueueDrops)
		}
		if d.RouteDrops == 0 {
			t.Fatalf("stalled flow %d has dead-path verdict but no blackholed packets", d.Info.Flow)
		}
		if d.TopDropSite == "" {
			t.Fatalf("stalled flow %d has no worst drop site", d.Info.Flow)
		}
	}
	if stalled != run.Stalled {
		t.Fatalf("explain found %d stalled flows, run counted %d", stalled, run.Stalled)
	}
	var report bytes.Buffer
	if err := tr.WriteExplain(&report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report.Bytes(), []byte("dead-path")) {
		t.Fatalf("explain report never says dead-path:\n%s", report.String())
	}
}
