package harness

import (
	"strings"
	"testing"

	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
)

// tinySweepParams keeps each cell sub-second while still simulating
// real transfers on a real fabric.
func tinySweepParams() SweepParams {
	p := DefaultSweepParams()
	p.Senders = 4
	p.Bytes = 32 << 10
	p.Sessions = 30
	st := store.ShortConfig()
	st.Objects = 8
	st.ObjectBytes = 64 << 10
	st.Requests = 30
	p.Store = st
	return p
}

// TestNewSweepCellFig1 runs the fig1a and fig1b cells for one seed
// each across all three backends.
func TestNewSweepCellFig1(t *testing.T) {
	p := tinySweepParams()
	for _, scenario := range []string{"fig1a", "fig1b"} {
		for _, be := range []store.BackendKind{store.BackendPolyraptor, store.BackendTCP, store.BackendDCTCP} {
			cell, err := NewSweepCell(scenario, be, p)
			if err != nil {
				t.Fatalf("NewSweepCell(%s, %v): %v", scenario, be, err)
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
	if _, err := NewSweepCell("figure9", store.BackendTCP, tinySweepParams()); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	p := tinySweepParams()
	p.Store.Replicas = 50 // 51 racks needed, k=4 has 8
	if _, err := NewSweepCell("storage", store.BackendTCP, p); err == nil {
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
	res, err := sweep.Matrix{Cells: cells, Seeds: 2, BaseSeed: p.Store.Seed}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	want := sweep.SubSeeds(p.Store.Seed, 2)
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
