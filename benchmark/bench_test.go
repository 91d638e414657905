package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// smoke is smaller than quick still: the tests check names, exactness and
// failure paths, not numbers.
var smoke = scale{
	sim:     simScale{k: 4, sessions: 20, bytes: 256 << 10, load: 0.33, replicas: 3},
	objects: 3, objectBytes: 512 << 10,
	fetches: 4, fetchBytes: 512 << 10,
}

func smokeRun(t *testing.T, name string, b bench, traced bool) result {
	t.Helper()
	res, err := runBench(name, b, 1, runOpts{minTimed: 1, traced: traced, traceDir: t.TempDir(), log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func declare(specs []metricSpec) []declared {
	var out []declared
	for _, m := range specs {
		out = append(out, declared{m.Name, m.Unit, m.Better, m.Bound})
	}
	return out
}

// TestSpecMatchesBenchmarkJSON: the ledger in spec.go and BENCHMARK.json
// declare the same workloads and the same metrics, with no drift either way.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, spec.go has %v", names, workloadNames)
	}
	if got, want := bj.EndToEnd, declare(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end drift:\n BENCHMARK.json %v\n spec.go        %v", got, want)
	}
	if got, want := bj.PerLayer, declare(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer drift:\n BENCHMARK.json %v\n spec.go        %v", got, want)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	seen := map[string]bool{}
	for _, m := range append(declare(endToEnd), declare(perLayer)...) {
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		known := false
		for _, e := range endToEnd {
			known = known || e.Name == m.Moves
		}
		if !known || len(m.On) == 0 {
			t.Errorf("%s: must name the end-to-end metric it moves and the workloads it is live on", m.Name)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics: every workload emits exactly the
// end-to-end names untraced and exactly the per-layer names traced; no
// end-to-end metric reads 0; a per-layer metric is non-zero only on the
// workloads its layer does work on.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	keys := func(m map[string]value) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	want := func(specs []metricSpec) []string {
		var ks []string
		for _, m := range specs {
			ks = append(ks, m.Name)
		}
		sort.Strings(ks)
		return ks
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b, err := newBench(name, smoke, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := smokeRun(t, name, b, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := keys(res.Metrics); !reflect.DeepEqual(got, want(endToEnd)) {
				t.Errorf("untraced metrics = %v, want %v", got, want(endToEnd))
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %v %q, want a positive value in %s", m.Name, v.Value, v.Unit, m.Unit)
				}
			}

			res = smokeRun(t, name, b, true)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if got := keys(res.Metrics); !reflect.DeepEqual(got, want(perLayer)) {
				t.Errorf("traced metrics = %v, want %v", got, want(perLayer))
			}
			for _, m := range perLayer {
				live := false
				for _, on := range m.On {
					live = live || on == name
				}
				if v := res.Metrics[m.Name].Value; !live && v != 0 {
					t.Errorf("%s = %v on %s, whose layers it does not belong to", m.Name, v, name)
				}
			}
		})
	}
}

// TestSimRepeatsExactly: two iterations of one seed give the same event
// count and simulated results, traced or not; another seed gives others.
func TestSimRepeatsExactly(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		w := &simWorkload{sc: smoke.sim, seed: 1, tcp: tcp}
		a, err := w.iterate(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.iterate(0, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if a.fingerprint != b.fingerprint || a.layer["sim.events"] != b.layer["sim.events"] {
			t.Errorf("tcp=%v: untraced %q, traced %q", tcp, a.fingerprint, b.fingerprint)
		}
		other := &simWorkload{sc: smoke.sim, seed: 2, tcp: tcp}
		for _, draw := range []struct {
			w       *simWorkload
			variant int
		}{{w, 1}, {other, 0}} {
			c, err := draw.w.iterate(draw.variant, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.fingerprint == a.fingerprint {
				t.Errorf("tcp=%v: seed %d variant %d repeats seed 1 variant 0: %q", tcp, draw.w.seed, draw.variant, a.fingerprint)
			}
		}
	}
}

// TestCorruptSymbolFailsRun: one wrong byte in one offered symbol fails an
// object, and the run exits non-zero after printing its result.
func TestCorruptSymbolFailsRun(t *testing.T) {
	w := &codecWorkload{sc: smoke, seed: 1, mangle: func(sbn int, esi uint32, sym []byte) {
		if sbn == 0 && esi == 3 {
			sym[0] ^= 0xff
		}
	}}
	res := smokeRun(t, wlCodec, w, false)
	if res.Failed == 0 {
		t.Fatal("a corrupted symbol did not fail any object")
	}
	var out bytes.Buffer
	if code := finish(wlCodec, res, &out, io.Discard); code == 0 {
		t.Error("exit code 0 with failed objects")
	}
	var printed result
	if err := json.Unmarshal(out.Bytes(), &printed); err != nil || printed.Failed != res.Failed {
		t.Errorf("result line %q: %v", out.String(), err)
	}
}

// corruptConn flips the last byte of every 50th datagram it reads.
type corruptConn struct {
	net.PacketConn
	reads int
}

func (c *corruptConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(p)
	if c.reads++; err == nil && n > 0 && c.reads%50 == 0 {
		p[n-1] ^= 0xff
	}
	return n, addr, err
}

// TestCorruptDatagramFailsFetch: a fetch that decodes to wrong bytes counts
// as failed.
func TestCorruptDatagramFailsFetch(t *testing.T) {
	w := &udpWorkload{sc: smoke, seed: 1, wrapClient: func(c net.PacketConn) net.PacketConn {
		return &corruptConn{PacketConn: c}
	}}
	res := smokeRun(t, wlUDP, w, false)
	if res.Failed == 0 {
		t.Fatal("corrupted datagrams did not fail any fetch")
	}
	if code := finish(wlUDP, res, io.Discard, io.Discard); code == 0 {
		t.Error("exit code 0 with failed fetches")
	}
}

// TestImportsStayInsideTheLayers: the benchmark may import the standard
// library, the root package and the layers it measures — never the
// harness, the sweep engine, the store or a command, so that those can be
// reshaped without editing the benchmark.
func TestImportsStayInsideTheLayers(t *testing.T) {
	allowed := map[string]bool{"polyraptor": true}
	for _, pkg := range []string{"sim", "netsim", "topology", "workload", "polyraptor", "tcpsim", "raptorq", "gf256", "wire", "rqudp", "metrics"} {
		allowed["polyraptor/internal/"+pkg] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			std := !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") && !strings.HasPrefix(path, "polyraptor")
			if !std && !allowed[path] {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}

func setOf(vals map[string][]float64) resultSet {
	var rs resultSet
	for i := 0; i < 10; i++ {
		for _, w := range workloadNames {
			m := map[string]value{}
			for _, e := range endToEnd {
				m[e.Name] = value{Value: 100, Unit: e.Unit}
			}
			for name, xs := range vals {
				m[name] = value{Value: xs[i%len(xs)]}
			}
			rs.Runs = append(rs.Runs, runRow{Workload: w, Seed: int64(i + 1), Result: result{Correct: true, Attempted: 1, Metrics: m}})
		}
	}
	return rs
}

// TestCompareVerdicts: within the bound is ok, beyond it a regression in
// the metric's own direction, and a spread wider than the bound unresolved.
func TestCompareVerdicts(t *testing.T) {
	bound := map[string]float64{}
	for _, m := range endToEnd {
		bound[m.Name] = m.Bound
	}
	by := func(name string, boundShare float64) map[string][]float64 {
		return map[string][]float64{name: {100 * (1 + boundShare*bound[name])}}
	}
	base := setOf(nil)
	var out bytes.Buffer
	if compareSets(base, setOf(by("run_s", 0.5)), &out) {
		t.Errorf("half a bound slower flagged:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(base, setOf(by("run_s", 1.5)), &out) || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("one and a half bounds slower not flagged:\n%s", out.String())
	}
	if !compareSets(base, setOf(by("goodput_mbps", -1.5)), io.Discard) {
		t.Error("one and a half bounds less goodput not flagged")
	}
	if compareSets(base, setOf(by("goodput_mbps", 1.5)), io.Discard) {
		t.Error("more goodput flagged")
	}
	out.Reset()
	noisy := setOf(map[string][]float64{"run_s": {60, 100, 140, 180, 220}})
	if compareSets(base, noisy, &out) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved:\n%s", out.String())
	}
	failing := setOf(nil)
	failing.Runs[0].Result.Failed = 1
	if !compareSets(base, failing, io.Discard) {
		t.Error("more failed operations not flagged")
	}
}

// TestBaselinesAgree: the two checked-in result sets of one commit agree
// within the benchmark's own bounds, and their simulated numbers exactly.
func TestBaselinesAgree(t *testing.T) {
	a, err := loadResultSet(filepath.Join("results", "baseline_a.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadResultSet(filepath.Join("results", "baseline_b.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if compareSets(a, b, &out) {
		t.Errorf("baseline_b regresses against baseline_a:\n%s", out.String())
	}
	if strings.Contains(out.String(), "unresolved") {
		t.Errorf("a metric's spread exceeds its bound:\n%s", out.String())
	}
	for _, wl := range []string{wlSimRQ, wlSimTCP} {
		if same, shared := exactRuns(a, b, wl); shared == 0 || same != shared {
			t.Errorf("%s: simulated results identical in %d of %d shared runs", wl, same, shared)
		}
	}
}

// TestSelfTimesSumToRoot: self time is a span's duration minus its
// same-track children, so the rows add up to the root.
func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []span{
		{Name: "run", ID: 1, DurNs: 100},
		{Name: "a", ID: 2, Parent: 1, DurNs: 60},
		{Name: "b", ID: 3, Parent: 2, DurNs: 25, Count: 5},
		{Name: "a", ID: 4, Parent: 1, DurNs: 10},
		{Name: "server", ID: 5, Parent: 2, DurNs: 1000, Track: "server"},
	}
	rows := selfTimes(spans, 1, &estimate{Span: "a", Parts: []timeRow{{Name: "a: probe", SelfS: 20e-9}}, Rest: "a: other"})
	got := map[string]float64{}
	sum := 0.0
	for _, r := range rows {
		got[r.Name] = r.SelfS * 1e9
		sum += r.SelfS * 1e9
	}
	want := map[string]float64{"run": 30, "a: probe": 20, "a: other": 25, "b": 25}
	for k, v := range want {
		if d := got[k] - v; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s self = %v ns, want %v", k, got[k], v)
		}
	}
	if d := sum - 100; d > 1e-6 || d < -1e-6 {
		t.Errorf("rows sum to %v ns, want 100", sum)
	}
}
