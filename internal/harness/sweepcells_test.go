package harness

import (
	"reflect"
	"strings"
	"testing"

	"polyraptor/internal/metrics"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
)

// tinySweepParams keeps each cell sub-second while still simulating
// real transfers on a real fabric.
func tinySweepParams() SweepParams {
	p := DefaultSweepParams()
	p.Fig1.Bytes, p.Fig1.Sessions = 32<<10, 30
	p.Incast.Senders, p.Incast.Bytes = 4, 32<<10
	p.Shuffle.BytesPerPair = 32 << 10
	c := &p.Storage.Cluster
	c.Objects, c.ObjectBytes, c.Requests = 8, 64<<10, 30
	return p
}

// newSweepCell is SweepCells for a single backend.
func newSweepCell(scenario string, backend store.BackendKind, p SweepParams) (sweep.Cell, error) {
	cells, err := SweepCells(scenario, []store.BackendKind{backend}, p)
	if err != nil {
		return sweep.Cell{}, err
	}
	return cells[0], nil
}

// TestNewSweepCellFig1 runs the fig1a and fig1b cells for one seed
// each across all three backends.
func TestNewSweepCellFig1(t *testing.T) {
	p := tinySweepParams()
	for _, scenario := range []string{"fig1a", "fig1b"} {
		for _, be := range []store.BackendKind{store.BackendPolyraptor, store.BackendTCP, store.BackendDCTCP} {
			cell, err := newSweepCell(scenario, be, p)
			if err != nil {
				t.Fatalf("newSweepCell(%s, %v): %v", scenario, be, err)
			}
			m, _, err := cell.Run(sweep.SubSeed(1, 0))
			if err != nil {
				t.Fatalf("%s/%v: %v", scenario, be, err)
			}
			if m["goodput_mean_gbps"] <= 0 {
				t.Fatalf("%s/%v goodput_mean_gbps = %v, want > 0", scenario, be, m)
			}
			if m["goodput_p99_gbps"] < m["goodput_p50_gbps"] {
				t.Fatalf("%s/%v percentiles inverted: %v", scenario, be, m)
			}
		}
	}
}

// TestNewSweepCellRejectsUnknown: unknown scenarios and impossible
// storage templates fail at matrix-build time.
func TestNewSweepCellRejectsUnknown(t *testing.T) {
	if _, err := newSweepCell("figure9", store.BackendTCP, tinySweepParams()); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	p := tinySweepParams()
	p.Storage.Cluster.Replicas = 50 // 51 racks needed, k=4 has 8
	if _, err := newSweepCell("storage", store.BackendTCP, p); err == nil {
		t.Fatal("impossible storage template accepted")
	}
}

// TestAblationCells: every ablation cell runs and reports both arms.
func TestAblationCells(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation cells are slow")
	}
	p := tinySweepParams()
	cells, err := AblationCells(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("AblationCells returned %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		m, _, err := c.Run(sweep.SubSeed(1, 0))
		if err != nil {
			t.Fatalf("%s: %v", c.Scenario, err)
		}
		if len(m) != 2 {
			t.Fatalf("%s reported %d metrics, want 2 arms: %v", c.Scenario, len(m), m)
		}
		for name, v := range m {
			if v <= 0 {
				t.Fatalf("%s metric %s = %v, want > 0", c.Scenario, name, v)
			}
		}
	}
}

// TestSweepCellsSharedSeeds: the -runs path of the scenario CLIs — one
// cell per backend, every backend on the same derived seed stream.
func TestSweepCellsSharedSeeds(t *testing.T) {
	p := tinySweepParams()
	cells, err := SweepCells("storage", []store.BackendKind{store.BackendPolyraptor, store.BackendTCP}, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Matrix{Cells: cells, Seeds: 2, BaseSeed: p.Storage.Cluster.Seed}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	want := sweep.SubSeeds(p.Storage.Cluster.Seed, 2)
	for _, c := range res.Cells {
		if len(c.Seeds) != 2 || c.Seeds[0] != want[0] || c.Seeds[1] != want[1] {
			t.Fatalf("cell %s seeds = %v, want %v", c.Backend, c.Seeds, want)
		}
		if a, ok := c.Metric("get_gbps"); !ok || a.N != 2 {
			t.Fatalf("cell %s get_gbps = %+v ok=%v", c.Backend, a, ok)
		}
	}
	if out := res.Table(nil); !strings.Contains(out, "storage/polyraptor") {
		t.Fatalf("table missing cell row:\n%s", out)
	}
	if _, err := SweepCells("storage", nil, p); err == nil {
		t.Fatal("empty backend list accepted")
	}
}

// TestReplayRoundTrip: a cell's replay line carries exactly the option
// flags that differ from the defaults, and parsing them back through
// the scenario's flag set sizes the same scenario.
func TestReplayRoundTrip(t *testing.T) {
	for _, tc := range []struct{ scenario, flags, want string }{
		{"fig1a", "", ""},
		{"fig1b", "-replicas 1 -load 0.5", " -load=0.5 -replicas=1"},
		{"incast", "-senders 12 -bytes 71680 -k 4", " -bytes=71680 -senders=12"},
		{"shuffle", "-mappers 3 -skew 0", " -mappers=3 -skew=0"},
		{"storage", "-fail server -load 0.6", " -fail=server -load=0.6"},
		{"chaos", "-chaos-fault loss -chaos-loss-rate 0.2 -chaos-fail-at 2ms", " -chaos-fail-at=2ms -chaos-fault=loss -chaos-loss-rate=0.2"},
		{"ablations", "-k 6", " -k=6"},
	} {
		p := DefaultSweepParams()
		fs, err := p.Flags(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Parse(strings.Fields(tc.flags)); err != nil {
			t.Fatal(err)
		}
		head := "poly sweep -scenarios=" + tc.scenario + " -backends=polyraptor -seed=3 -seeds=4"
		if got := p.replay(tc.scenario, "polyraptor")(3, 4); got != head+tc.want {
			t.Errorf("%s %q: replay %q, want %q", tc.scenario, tc.flags, got, head+tc.want)
		}
		metered := p
		metered.SLO = &metrics.SLO{FCTDeadline: 0.005}
		if got := metered.replay(tc.scenario, "polyraptor")(3, 4); got != head+tc.want+" -slo-fct=5ms" {
			t.Errorf("%s: metered replay %q lacks -slo-fct=5ms", tc.scenario, got)
		}
		back := DefaultSweepParams()
		fs, _ = back.Flags(tc.scenario)
		if err := fs.Parse(strings.Fields(tc.want)); err != nil {
			t.Fatalf("%s: replay flags %q: %v", tc.scenario, tc.want, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("%s: replay flags %q size %+v, want %+v", tc.scenario, tc.want, back, p)
		}
	}
}
