package metrics

import (
	"math"
	"testing"
)

func TestRegistryInterning(t *testing.T) {
	r := NewRegistry()
	l := Labels{Scenario: "incast", Backend: "rq"}
	h1 := r.Histogram("fct_s", l)
	h2 := r.Histogram("fct_s", Labels{Scenario: "incast", Backend: "rq"})
	if h1 != h2 {
		t.Fatal("same (name, labels) must return the same histogram")
	}
	if r.Histogram("fct_s", Labels{Scenario: "incast", Backend: "tcp"}) == h1 {
		t.Fatal("different labels must return a different histogram")
	}
	c := r.Counter("flows", l)
	if c != r.Counter("flows", l) {
		t.Fatal("same counter must be returned")
	}
	g := r.Gauge("peak", l)
	if g != r.Gauge("peak", l) {
		t.Fatal("same gauge must be returned")
	}
}

func TestRegistryNilChains(t *testing.T) {
	var r *Registry
	// The nil registry hands out nil instruments; recording through
	// them must be a no-op, not a panic — the disabled path.
	r.Histogram("x", Labels{}).Record(1)
	r.Counter("x", Labels{}).Add(1)
	r.Gauge("x", Labels{}).Set(1)
	r.EachHistogram(func(string, Labels, *Histogram) { t.Fatal("nil registry visited a histogram") })
	r.EachCounter(func(string, Labels, *Counter) { t.Fatal("nil registry visited a counter") })
	r.EachGauge(func(string, Labels, *Gauge) { t.Fatal("nil registry visited a gauge") })
}

func TestRegistryDeterministicOrder(t *testing.T) {
	build := func() []string {
		r := NewRegistry()
		r.Histogram("z_last", Labels{Scenario: "b"})
		r.Histogram("a_first", Labels{Scenario: "b"})
		r.Histogram("a_first", Labels{Scenario: "a"})
		var names []string
		r.EachHistogram(func(name string, l Labels, h *Histogram) {
			names = append(names, name+":"+l.String())
		})
		return names
	}
	want := build()
	if len(want) != 3 || want[0] != "a_first:b/" {
		t.Fatalf("unexpected order: %v (labels iterate in interning order)", want)
	}
	for i := 0; i < 10; i++ {
		got := build()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iteration order not deterministic: %v vs %v", got, want)
			}
		}
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-1)
	if c.Value() != 2 {
		t.Fatalf("Counter = %d, want 2", c.Value())
	}
	var c2 Counter
	c2.Add(5)
	c.Merge(&c2)
	if c.Value() != 7 {
		t.Fatalf("merged Counter = %d, want 7", c.Value())
	}
	var g Gauge
	g.Set(3)
	g.Set(1) // gauges keep the peak so merges are order-independent
	if g.Value() != 3 {
		t.Fatalf("Gauge = %g, want peak 3", g.Value())
	}
	var g2 Gauge
	g2.Set(9)
	g.Merge(&g2)
	if g.Value() != 9 {
		t.Fatalf("merged Gauge = %g, want 9", g.Value())
	}
	var nilC *Counter
	var nilG *Gauge
	nilC.Add(1)
	nilG.Set(1)
	if nilC.Value() != 0 || nilG.Value() != 0 {
		t.Fatal("nil counter/gauge must read 0")
	}
}

func TestCounterGaugeAllocFree(t *testing.T) {
	c := &Counter{}
	if allocs := testing.AllocsPerRun(100, func() { c.Add(1) }); allocs != 0 {
		t.Errorf("Counter.Add allocates %v per op, want 0", allocs)
	}
	g := &Gauge{}
	if allocs := testing.AllocsPerRun(100, func() { g.Set(2) }); allocs != 0 {
		t.Errorf("Gauge.Set allocates %v per op, want 0", allocs)
	}
}

func TestSLO(t *testing.T) {
	var none SLO
	if none.Enabled() {
		t.Fatal("zero SLO must be disabled")
	}
	s := SLO{FCTDeadline: 0.5, GoodputFloor: 1.0}
	if !s.Enabled() {
		t.Fatal("SLO with criteria must be enabled")
	}
	if none.Validate() != nil || s.Validate() != nil {
		t.Fatal("valid SLO rejected")
	}
	if (SLO{FCTDeadline: -1}).Validate() == nil || (SLO{GoodputFloor: -1}).Validate() == nil {
		t.Fatal("negative SLO criterion accepted")
	}
	if !s.MetFCT(0.4) || s.MetFCT(0.6) {
		t.Fatal("FCT deadline misapplied")
	}
	if !s.MetGoodput(1.5) || s.MetGoodput(0.5) {
		t.Fatal("goodput floor misapplied")
	}
	// A stalled flow (NaN FCT, NaN/zero goodput) always misses.
	if s.MetFCT(math.NaN()) || s.MetGoodput(math.NaN()) {
		t.Fatal("NaN must miss an enabled criterion")
	}
	if (SLO{GoodputFloor: 1}).MetFCT(math.NaN()) {
		t.Fatal("NaN FCT must miss even with the deadline disabled")
	}
}
