package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"polyraptor/internal/sim"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, 1, EvSymbol, 2, 3)
	r.RecordLabel(0, 1, EvRouteDrop, -1, "core-0")
	r.OpenFlow(0, 1, "rq", 0, 1, 1024, 1)
	r.CloseFlow(0, 1, 1)
	if r.Len() != 0 || r.Dropped() != 0 || r.Flows() != nil || r.Flow(1) != nil {
		t.Fatal("nil recorder must observe nothing")
	}
	r.Events(func(Event) { t.Fatal("nil recorder has no events") })

	var p *Probe
	p.Gauge("x", "u", func() float64 { return 0 })
	p.Start(sim.NewEngine())
	if p.Samples() != 0 || p.Series() != nil {
		t.Fatal("nil probe must observe nothing")
	}
}

// A nil *Recorder is the disabled state, and hooks are called through
// it unconditionally, so every exported method must open with the
// nil-receiver guard. Reflection finds the methods: a new one, or an
// old one that loses its guard, panics here with zero-valued
// arguments instead of in whichever untraced scenario reaches it.
func TestEveryRecorderMethodIsNilSafe(t *testing.T) {
	nilRec := reflect.ValueOf((*Recorder)(nil))
	typ := nilRec.Type()
	if typ.NumMethod() == 0 {
		t.Fatal("*Recorder has no exported methods")
	}
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		t.Run(m.Name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("(*Recorder)(nil).%s panics: %v", m.Name, p)
				}
			}()
			args := []reflect.Value{nilRec}
			for j := 1; j < m.Type.NumIn(); j++ {
				args = append(args, reflect.Zero(m.Type.In(j)))
			}
			if m.Type.IsVariadic() {
				m.Func.CallSlice(args)
			} else {
				m.Func.Call(args)
			}
		})
	}
}

func TestRecorderRingWrap(t *testing.T) {
	// Capacity of one block: appending two blocks' worth must keep
	// only the newest block-full of events.
	r := NewRecorder(1)
	n := 2 * blockSize
	for i := 0; i < n; i++ {
		r.Record(sim.Time(i), int32(i), EvSymbol, 0, int64(i))
	}
	if r.Len() != blockSize {
		t.Fatalf("Len = %d, want %d", r.Len(), blockSize)
	}
	if r.Dropped() != uint64(blockSize) {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), blockSize)
	}
	first := true
	var prev sim.Time
	r.Events(func(ev Event) {
		if first {
			if ev.At != sim.Time(blockSize) {
				t.Fatalf("oldest surviving event at %d, want %d", ev.At, blockSize)
			}
			first = false
		} else if ev.At != prev+1 {
			t.Fatalf("events out of order: %d after %d", ev.At, prev)
		}
		prev = ev.At
	})
	if prev != sim.Time(n-1) {
		t.Fatalf("newest event at %d, want %d", prev, n-1)
	}
}

func TestRecorderUnboundedAndLabels(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < blockSize+10; i++ {
		r.RecordLabel(sim.Time(i), 0, EvRouteDrop, -1, "core-1")
	}
	r.RecordLabel(sim.Time(0), 0, EvLinkDrop, -1, "agg-0-0:2")
	if r.Len() != blockSize+11 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	// Interning: the repeated label shares one ID.
	seen := map[int64]bool{}
	r.Events(func(ev Event) { seen[ev.Arg] = true })
	if len(seen) != 2 {
		t.Fatalf("expected 2 distinct label IDs, got %d", len(seen))
	}
	if r.LabelName(0) != "core-1" || r.LabelName(1) != "agg-0-0:2" {
		t.Fatalf("label names wrong: %q %q", r.LabelName(0), r.LabelName(1))
	}
	if r.LabelName(99) != "" {
		t.Fatal("out-of-range label must be empty")
	}
}

func TestFlowLifecycleAndGoodput(t *testing.T) {
	r := NewRecorder(0)
	r.OpenFlow(sim.Time(1e6), 7, "rq", 3, -1, 1_000_000, 2)
	f := r.Flow(7)
	if f == nil || f.Done() {
		t.Fatal("flow must exist and be open")
	}
	r.CloseFlow(sim.Time(5e6), 7, 10)
	if f.Done() {
		t.Fatal("one of two receivers done must not complete the flow")
	}
	r.CloseFlow(sim.Time(9e6), 7, 11)
	if !f.Done() {
		t.Fatal("flow must be done")
	}
	// 2 MB over 8 ms = 2 Gbps.
	if g := f.GoodputGbps(); g < 1.99 || g > 2.01 {
		t.Fatalf("goodput = %v, want ~2", g)
	}
	// Reopening is a no-op for the table.
	r.OpenFlow(sim.Time(2e6), 7, "rq", 4, -1, 5, 1)
	if got := r.Flow(7); got.Src != 3 || got.Bytes != 1_000_000 {
		t.Fatal("reopen must not clobber flow metadata")
	}
	if len(r.Flows()) != 1 {
		t.Fatalf("Flows() = %d entries, want 1", len(r.Flows()))
	}
}

func TestProbeSamplesAndStops(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProbe(sim.Time(1e6))
	var depth float64
	p.Gauge("q", "pkt", func() float64 { return depth })
	// Protocol events at 0.5 ms intervals for 5 ms, mutating the gauge.
	for i := 1; i <= 10; i++ {
		eng.At(sim.Time(i)*5e5, func() { depth++ })
	}
	p.Start(eng)
	eng.Run()
	// Sample at t=0 plus ticks at 1..5 ms (the 6 ms tick fires with an
	// empty queue... it still samples, then stops rescheduling).
	n := p.Samples()
	if n < 6 || n > 8 {
		t.Fatalf("samples = %d, want ~7", n)
	}
	s := p.Series()
	if len(s) != 1 || s[0].Name != "q" || len(s[0].Vals) != n || len(s[0].Times) != n {
		t.Fatalf("bad series shape: %+v", s)
	}
	if s[0].Vals[0] != 0 || s[0].Vals[n-1] != 10 {
		t.Fatalf("gauge progression wrong: %v", s[0].Vals)
	}
	if eng.Pending() != 0 {
		t.Fatal("probe must let the engine drain")
	}
}

// buildTestTrace assembles a small trace by hand: one completed rq
// flow, one stalled blackholed tcp flow, one stalled starved flow.
func buildTestTrace() *Trace {
	tr := New(Options{Interval: sim.Time(1e6)})
	tr.SetMeta("scenario", "unit")
	tr.SetMeta("seed", "1")
	r := tr.Rec
	r.OpenFlow(0, 1, "rq", 0, 5, 1436_00, 1)
	for i := 0; i < 100; i++ {
		r.Record(sim.Time(i)*1e4, 1, EvPull, 5, 0)
		r.Record(sim.Time(i)*1e4+5e3, 1, EvSymbol, 5, int64(i))
	}
	r.CloseFlow(sim.Time(1e6), 1, 5)

	r.OpenFlow(0, 2, "tcp", 1, 6, 1_000_000, 1)
	r.Record(2e4, 2, EvCwnd, 1, 10_000)
	for i := 0; i < 20; i++ {
		r.RecordLabel(sim.Time(i)*1e5, 2, EvRouteDrop, -1, "core-2")
	}
	r.Record(5e5, 2, EvTimeout, 1, 1)
	r.Record(5e5, 2, EvRetransmit, 1, 0)

	r.OpenFlow(0, 3, "rq", 2, 7, 1024, 1)
	r.Record(1e5, 3, EvPull, 7, 2)
	r.Record(3e5, 3, EvStall, 7, 4)

	tr.Finish(sim.Time(2e6))
	return tr
}

func TestExplainVerdicts(t *testing.T) {
	tr := buildTestTrace()
	diags := tr.Explain()
	if len(diags) != 3 {
		t.Fatalf("got %d diagnoses", len(diags))
	}
	byFlow := map[int32]FlowDiagnosis{}
	for _, d := range diags {
		byFlow[d.Info.Flow] = d
	}
	if d := byFlow[1]; d.Verdict != VerdictCompleted || d.Stalled || d.Symbols != 100 || d.Pulls != 100 {
		t.Fatalf("flow 1: %+v", d)
	}
	if d := byFlow[2]; d.Verdict != VerdictDeadPath || !d.Stalled || d.RouteDrops != 20 ||
		d.TopDropSite != "core-2" || d.TopDropCount != 20 {
		t.Fatalf("flow 2: %+v", d)
	}
	if d := byFlow[3]; d.Verdict != VerdictStarvation || d.Stalls != 1 {
		t.Fatalf("flow 3: %+v", d)
	}

	var buf bytes.Buffer
	if err := tr.WriteExplain(&buf); err != nil {
		t.Fatal(err)
	}
	rep := buf.String()
	for _, want := range []string{
		"3 flows, 1 completed, 2 stalled",
		"verdict: dead-path — 20 packets blackholed, worst at core-2 (20)",
		"verdict: sender-starvation",
		"STALLED",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("explain report missing %q:\n%s", want, rep)
		}
	}
}

func TestWriteChromeIsValidTraceJSON(t *testing.T) {
	tr := buildTestTrace()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
		TraceEvents     []map[string]any  `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.OtherData["scenario"] != "unit" || doc.OtherData["seed"] != "1" {
		t.Fatalf("metadata missing: %v", doc.OtherData)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event missing ph: %v", ev)
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		if _, ok := ev["ts"]; !ok {
			t.Fatalf("event missing ts: %v", ev)
		}
		phases[ph]++
	}
	// Lanes, instants, counters and metadata must all be present.
	for _, ph := range []string{"X", "i", "C", "M"} {
		if phases[ph] == 0 {
			t.Fatalf("no %q events in trace (got %v)", ph, phases)
		}
	}
	if phases["X"] != 3 {
		t.Fatalf("want one span per flow, got %d", phases["X"])
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildTestTrace().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildTestTrace().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome export is not deterministic")
	}
}

func TestWriteCSV(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(Options{Interval: sim.Time(1e6)})
	var v float64
	tr.Probe.Gauge("q edge-0-0:1", "pkt", func() float64 { return v })
	tr.Probe.Gauge("dead", "pkt", func() float64 { return 0 })
	eng.At(2e6, func() { v = 3 })
	tr.Start(eng)
	eng.Run()
	tr.Finish(eng.Now())

	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "series,unit,t_ns,value" {
		t.Fatalf("bad header %q", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("too few rows: %v", lines)
	}
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "dead,") {
			t.Fatal("all-zero series must be skipped")
		}
	}

	var ebuf bytes.Buffer
	tr.Rec.RecordLabel(0, 9, EvQueueDrop, -1, "edge-0-0:1")
	if err := tr.WriteEventsCSV(&ebuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ebuf.String(), "0,9,queue-drop,-1,edge-0-0:1") {
		t.Fatalf("events CSV wrong:\n%s", ebuf.String())
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(sim.Time(i), 1, EvSymbol, 2, int64(i))
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	r := NewRecorder(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(sim.Time(i), 1, EvSymbol, 2, int64(i))
	}
}
