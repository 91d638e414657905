package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"polyraptor/internal/metrics"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
	"polyraptor/internal/workload"
)

var allBackends = []store.BackendKind{store.BackendPolyraptor, store.BackendTCP, store.BackendDCTCP}

// mustRun is Run for tests that expect success.
func mustRun(t *testing.T, sc Scenario, backend store.BackendKind, seed int64) Result {
	t.Helper()
	res, err := Run(sc, backend, seed, Observers{})
	if err != nil {
		t.Fatalf("Run(%s, %v, %d): %v", sc.Name(), backend, seed, err)
	}
	return res
}

// tinyScenario is one entry of tinyScenarios: traceable marks the
// scenarios that observe their fabric, rqOnly the Polyraptor-only one.
type tinyScenario struct {
	sc        Scenario
	traceable bool
	rqOnly    bool
}

// tinyScenarios is every scenario the harness knows, sized for unit
// tests: the six sweep scenarios, both arms of the four ablations, and
// the extensions.
func tinyScenarios() []tinyScenario {
	var out []tinyScenario
	p := tinySweepParams()
	for _, e := range sweepScenarios {
		out = append(out, tinyScenario{sc: e.build(p), traceable: e.traceable})
	}
	add := func(scs ...Scenario) {
		for _, sc := range scs {
			_, incast := sc.(Incast) // A1 and E4 are incast runs, observed like any other
			out = append(out, tinyScenario{sc: sc, traceable: incast})
		}
	}
	add(AblationTrim(4, 8, 32<<10))
	add(AblationInitWindow(4, 40<<10, 4))
	add(AblationESI(4, 3, 3, 128<<10))
	add(AblationDecode(4, 128<<10, 2000, 3))
	add(Hotspot(4, 0.3, 10, 3, 256<<10, 2))
	add(FlowSizes{FatTreeK: 4, Dist: workload.WebSearchDist(), Sessions: 12})
	add(Incast{FatTreeK: 4, Senders: 6, Bytes: 32 << 10, Oversubscribe: 4})
	out = append(out, tinyScenario{sc: Straggler{Detach: true, Bytes: 1 << 20}, rqOnly: true})
	return out
}

// TestObserversDoNotPerturbAnyScenario is the zero-cost guarantee
// through the one entry point: for every scenario on every backend, a
// run with a live Meter — and a trace, where the scenario supports one
// — reproduces the plain run's metrics and typed detail exactly.
// Observation is observability, never a different experiment.
func TestObserversDoNotPerturbAnyScenario(t *testing.T) {
	slo := metrics.SLO{FCTDeadline: 0.05}
	for _, e := range tinyScenarios() {
		for _, be := range allBackends {
			if e.rqOnly && be != store.BackendPolyraptor {
				continue
			}
			plain := mustRun(t, e.sc, be, 3)
			if plain.Trace != nil {
				t.Fatalf("%s/%v: plain run returned a trace", e.sc.Name(), be)
			}
			mt := &Meter{SLO: slo}
			obs := Observers{Meter: mt}
			if e.traceable {
				obs.Trace = &telemetry.Options{}
			}
			observed, err := Run(e.sc, be, 3, obs)
			if err != nil {
				t.Fatalf("%s/%v observed: %v", e.sc.Name(), be, err)
			}
			if !reflect.DeepEqual(plain.Metrics, observed.Metrics) {
				t.Errorf("%s/%v: observers changed metrics:\nplain    %v\nobserved %v", e.sc.Name(), be, plain.Metrics, observed.Metrics)
			}
			if !reflect.DeepEqual(plain.Detail, observed.Detail) {
				t.Errorf("%s/%v: observers changed detail:\nplain    %+v\nobserved %+v", e.sc.Name(), be, plain.Detail, observed.Detail)
			}
			if run, ok := observed.Detail.(StorageRun); ok {
				checkStorageMeter(t, be, mt, run.Result)
			}
			if !e.traceable {
				if _, err := Run(e.sc, be, 3, Observers{Trace: &telemetry.Options{}}); err == nil {
					t.Errorf("%s/%v: trace request on an unobserved scenario was silently dropped", e.sc.Name(), be)
				}
				continue
			}
			if observed.Trace == nil || observed.Trace.Rec.Len() == 0 {
				t.Errorf("%s/%v: traced run recorded nothing", e.sc.Name(), be)
			}
			// Every offered flow that completed was metered once.
			flows, offered := mt.hists["fct_s"].Count(), float64(mt.offered)
			if completed, ok := plain.Metrics["completed"]; ok {
				offered = completed // chaos: stalled flows never complete
			}
			if flows == 0 || float64(flows) != offered {
				t.Errorf("%s/%v: metered %d flows of %v offered", e.sc.Name(), be, flows, offered)
			}
			if mt.hists["queue_depth_pkts"].Count() == 0 {
				t.Errorf("%s/%v: queue-depth histogram is empty; fabric hook not attached", e.sc.Name(), be)
			}
		}
	}
}

// checkStorageMeter: the storage scenario meters its GET and PUT sides
// under "get_"/"put_" names, and its attainment pools both tenants:
// Σmet / Σoffered, where a skipped GET is offered but never met.
func checkStorageMeter(t *testing.T, be store.BackendKind, mt *Meter, res *store.Result) {
	t.Helper()
	getF, getG := res.GetFCTs(), res.GetGoodputs()
	putF, putG := res.PutFCTs(), res.PutGoodputs()
	for name, n := range map[string]int{
		"get_fct_s": len(getF), "get_goodput_gbps": len(getG),
		"put_fct_s": len(putF), "put_goodput_gbps": len(putG),
	} {
		if got := mt.hists[name].Count(); n == 0 || got != uint64(n) {
			t.Errorf("storage/%v: %s holds %d samples, want %d (> 0)", be, name, got, n)
		}
	}
	if h, ok := mt.hists["fct_s"]; ok {
		t.Errorf("storage/%v: untenanted fct_s histogram with %d samples", be, h.Count())
	}
	met := 0
	for i, f := range getF {
		if mt.SLO.MetFCT(f) && mt.SLO.MetGoodput(getG[i]) {
			met++
		}
	}
	for i, f := range putF {
		if mt.SLO.MetFCT(f) && mt.SLO.MetGoodput(putG[i]) {
			met++
		}
	}
	want := float64(met) / float64(len(getF)+res.SkippedGets+len(putF))
	if got := mt.Attainment(); got != want {
		t.Errorf("storage/%v: attainment %v, want Σmet/Σoffered = %v", be, got, want)
	}
}

// TestRunDeterministicPerSeed: same seed, same result; another seed,
// another result — for every scenario that draws a workload.
func TestRunDeterministicPerSeed(t *testing.T) {
	for _, e := range tinyScenarios() {
		for _, be := range allBackends {
			if e.rqOnly && be != store.BackendPolyraptor {
				continue
			}
			// The DCTCP path once diverged run to run via map-ordered
			// RTT sampling in tcpsim; every backend repeats here.
			a, b := mustRun(t, e.sc, be, 5), mustRun(t, e.sc, be, 5)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%v: same seed diverged:\n%+v\n%+v", e.sc.Name(), be, a, b)
			}
		}
		if _, fixed := e.sc.(Straggler); fixed {
			continue // fixed hosts; the seed only drives decode overhead
		}
		a, c := mustRun(t, e.sc, store.BackendPolyraptor, 5), mustRun(t, e.sc, store.BackendPolyraptor, 6)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical results %+v", e.sc.Name(), a)
		}
	}
}

// TestRunRejectsBadConfigurations: every impossible configuration is
// a prompt error from Run — no panic, and none of the hangs the
// out-of-rack peer pickers used to fall into when asked for more hosts
// than the fabric has.
func TestRunRejectsBadConfigurations(t *testing.T) {
	badPlan := DefaultChaosOptions()
	badPlan.Fault.Frac = 9
	cases := []struct {
		name    string
		sc      Scenario
		backend store.BackendKind
	}{
		{"odd k", Incast{FatTreeK: 3, Senders: 2, Bytes: 1 << 10}, store.BackendTCP},
		{"incast fan-in beyond out-of-rack hosts", Incast{FatTreeK: 4, Senders: 15, Bytes: 1 << 10}, store.BackendPolyraptor},
		{"fig1 replicas beyond out-of-rack hosts", Fig1{Scale: Scale{FatTreeK: 2, Sessions: 10, Bytes: 1 << 10, LoadFactor: 0.3}, Replicas: 3}, store.BackendPolyraptor},
		{"fig1 odd k", Fig1{Scale: Scale{FatTreeK: 3, Sessions: 10, Bytes: 1 << 10, LoadFactor: 0.3}, Replicas: 1}, store.BackendPolyraptor},
		{"fig1 zero load", Fig1{Scale: Scale{FatTreeK: 4, Sessions: 10, Bytes: 1 << 10}, Replicas: 1}, store.BackendTCP},
		{"shuffle M+R beyond hosts", ShuffleOptions{FatTreeK: 4, Mappers: 20, Reducers: 4, BytesPerPair: 1 << 10}, store.BackendTCP},
		{"invalid chaos plan", badPlan, store.BackendPolyraptor},
		{"storage replicas beyond racks", Storage{Cluster: func() store.Config { c := store.DefaultConfig(); c.Replicas = 50; return c }()}, store.BackendTCP},
		{"hotspot senders beyond other pods", Hotspot(4, 0.3, 10, 2, 1<<10, 13), store.BackendPolyraptor},
		{"multi-source senders beyond hosts", func() Scenario { _, b := AblationESI(2, 2, 2, 1<<10); return b }(), store.BackendPolyraptor},
		{"straggler on tcp", Straggler{Bytes: 1 << 20}, store.BackendTCP},
		{"unknown backend", Incast{FatTreeK: 4, Senders: 2, Bytes: 1 << 10}, store.BackendKind(42)},
	}
	for _, c := range cases {
		done := make(chan error, 1)
		go func() {
			_, err := Run(c.sc, c.backend, 1, Observers{})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: accepted", c.name)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: Run hangs", c.name)
		}
	}
}

// TestLibraryFanoutValidation covers the reproducers of the picker
// hang: poly load's k=2 fig1a search, and Figure 1c with more senders
// than a k=4 fabric has out-of-rack hosts. All must fail up front.
func TestLibraryFanoutValidation(t *testing.T) {
	p := DefaultSweepParams()
	p.Fig1.FatTreeK = 2
	if _, err := newSweepCell("fig1a", store.BackendPolyraptor, p); err == nil {
		t.Error("fig1a cell on k=2 with 3 replicas accepted")
	}
	o := DefaultSaturationOptions("fig1a")
	o.Params, o.Rungs, o.Refine, o.Seeds = p, 2, 0, 1
	if _, err := FindSaturation(o, store.BackendPolyraptor); err == nil {
		t.Error("fig1a saturation search on k=2 with 3 replicas accepted")
	}
	_, err := Figure1c(DefaultIncast(), []int{15}, 1, 1)
	if err == nil {
		t.Error("Figure1c with 15 senders on k=4 accepted")
	}
	p = DefaultSweepParams()
	p.AblationK = 2
	if _, err := AblationCells(p); err == nil {
		t.Error("ablation cells on k=2 (A1 needs 12 out-of-rack hosts) accepted")
	}
}

// goldenSweep rebuilds the document `poly sweep -scenarios all -backends
// all -seeds 2 -format json` prints, through the library.
func goldenSweep(t *testing.T, p SweepParams, parallelism int) []byte {
	t.Helper()
	var cells []sweep.Cell
	for _, name := range SweepScenarios() {
		more, err := SweepCells(name, allBackends, p)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, more...)
	}
	ablations, err := AblationCells(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Matrix{Cells: append(cells, ablations...), Seeds: 2, BaseSeed: 1, Parallelism: parallelism}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf, "json"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSweeps is the refactor guard: the full 22-cell sweep —
// every registered scenario on every backend plus the ablations —
// reproduces, byte for byte, the golden documents, plain and metered,
// and does so at parallelism 1 and GOMAXPROCS alike. Their rq cells are
// those captured from polysweep at commit b5526c0 (before the harness
// was collapsed onto Run) plus the chaos cells' "partitioned" metric;
// the tcp and dctcp cells were regenerated when a new ACK began to lift
// the TCP sender's nextSeq. The plain document is kept to read; the
// metered one is its SHA-256 in testdata/goldens.sha256. It is also the
// serial==parallel determinism test for every scenario, and, because
// Run audits every run that drains, the conservation test: 192 of its
// 208 runs end with no session open and every packet accounted for (the
// rest stop at a chaos deadline). CI runs it under -race.
func TestGoldenSweeps(t *testing.T) {
	want, err := os.ReadFile("testdata/polysweep_all.json")
	if err != nil {
		t.Fatal(err)
	}
	metered := DefaultSweepParams()
	metered.SLO = &metrics.SLO{FCTDeadline: 0.005}
	for _, parallelism := range []int{1, 0} {
		if got := goldenSweep(t, DefaultSweepParams(), parallelism); !bytes.Equal(got, want) {
			t.Errorf("polysweep_all.json at parallelism %d: output differs from the golden (first difference at byte %d)",
				parallelism, firstDiff(got, want))
		}
		checkDigest(t, "testdata/goldens.sha256", "polysweep_all_metered.json", goldenSweep(t, metered, parallelism))
	}
}

// checkDigest requires the line "<sha256 of got>  name" in the
// sha256sum-format file digests, which CI checks with sha256sum -c.
// On a mismatch it keeps got in a temp file to diff.
func checkDigest(t *testing.T, digests, name string, got []byte) {
	t.Helper()
	list, err := os.ReadFile(digests)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("%x  %s\n", sha256.Sum256(got), name)
	if bytes.Contains(list, []byte(line)) {
		return
	}
	f, err := os.CreateTemp("", "*-"+name)
	if err == nil {
		_, err = f.Write(got)
		f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s is not in %s; the output is in %s", strings.TrimSpace(line), digests, f.Name())
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// A metered cell must report the same scalar metrics as the unmetered
// cell plus slo_attainment, and carry the pooled histograms.
func TestMeteredCellMatchesUnmetered(t *testing.T) {
	p := meteredTestParams()
	plain := p
	plain.SLO = nil
	for _, scenario := range SweepScenarios() {
		mc, err := newSweepCell(scenario, store.BackendPolyraptor, p)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := newSweepCell(scenario, store.BackendPolyraptor, plain)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := (sweep.Matrix{Cells: []sweep.Cell{mc}, Seeds: 2, BaseSeed: 1}).Run()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := (sweep.Matrix{Cells: []sweep.Cell{pc}, Seeds: 2, BaseSeed: 1}).Run()
		if err != nil {
			t.Fatal(err)
		}
		m, pl := mr.Cells[0], pr.Cells[0]
		for _, a := range pl.Metrics {
			if got, ok := m.Metric(a.Metric); !ok || got != a {
				t.Errorf("%s: metered %s = %+v (present %v), unmetered %+v", scenario, a.Metric, got, ok, a)
			}
		}
		att, ok := m.Metric("slo_attainment")
		if !ok || att.Mean < 0 || att.Mean > 1 {
			t.Errorf("%s: slo_attainment = %+v (present %v), want a fraction", scenario, att, ok)
		}
		want := "fct_s"
		if scenario == "storage" {
			want = "get_fct_s"
		}
		if _, ok := m.Hist(want); !ok {
			t.Errorf("%s: no %s histogram (have %d hists)", scenario, want, len(m.Hists))
		}
		if len(pl.Hists) != 0 {
			t.Errorf("%s: unmetered cell unexpectedly has histograms", scenario)
		}
	}
}

func meteredTestParams() SweepParams {
	p := tinySweepParams()
	p.SLO = &metrics.SLO{FCTDeadline: 0.05}
	return p
}

// TestTraceDeterministicAcrossSweepParallelism: the same seed must
// yield a byte-identical trace no matter how many sweep workers run
// concurrently — traces are per-run artifacts fed by per-run
// recorders, so worker interleaving may not leak into them.
func TestTraceDeterministicAcrossSweepParallelism(t *testing.T) {
	collect := func(parallelism int) map[string][]byte {
		p := tinySweepParams()
		p.Trace = &telemetry.Options{}
		var mu sync.Mutex
		out := map[string][]byte{}
		p.TraceSink = func(scenario, backend string, seed int64, tr *telemetry.Trace) {
			rendered := renderTrace(t, tr)
			mu.Lock()
			out[fmt.Sprintf("%s/%s/%d", scenario, backend, seed)] = rendered
			mu.Unlock()
		}
		var cells []sweep.Cell
		for _, scenario := range TraceableScenarios() {
			more, err := SweepCells(scenario, allBackends[:2], p)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, more...)
		}
		if _, err := (sweep.Matrix{Cells: cells, Seeds: 2, BaseSeed: 1, Parallelism: parallelism}).Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := collect(1)
	parallel := collect(0)
	if want := 2 * 2 * len(TraceableScenarios()); len(serial) != want || len(parallel) != want {
		t.Fatalf("expected %d traces per pass, got %d serial / %d parallel", want, len(serial), len(parallel))
	}
	for key, want := range serial {
		if got, ok := parallel[key]; !ok || !bytes.Equal(want, got) {
			t.Fatalf("trace %s differs between parallelism 1 and GOMAXPROCS (present %v)", key, ok)
		}
	}
}

// renderTrace serialises every trace export into one byte string, so
// determinism checks cover the Chrome JSON, both CSVs and the explain
// report at once.
func renderTrace(t *testing.T, tr *telemetry.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, write := range []func(w *bytes.Buffer) error{
		func(w *bytes.Buffer) error { return tr.WriteChrome(w) },
		func(w *bytes.Buffer) error { return tr.WriteCSV(w) },
		func(w *bytes.Buffer) error { return tr.WriteEventsCSV(w) },
		func(w *bytes.Buffer) error { return tr.WriteExplain(w) },
	} {
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSweepRejectsUntraceableScenario: asking for traces on a scenario
// that cannot deliver them is a cell-construction error, not a silent
// no-op.
func TestSweepRejectsUntraceableScenario(t *testing.T) {
	p := tinySweepParams()
	p.Trace = &telemetry.Options{}
	if _, err := newSweepCell("fig1a", store.BackendPolyraptor, p); err == nil {
		t.Fatal("fig1a cell accepted a trace request it cannot honour")
	}
	p.Trace = nil
	if _, err := newSweepCell("fig1a", store.BackendPolyraptor, p); err != nil {
		t.Fatalf("untraced fig1a cell rejected: %v", err)
	}
}
