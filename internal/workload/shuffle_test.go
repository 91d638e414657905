package workload

import (
	"testing"

	"polyraptor/internal/netsim"
	"polyraptor/internal/topology"
)

func shuffleFabric(t *testing.T) *topology.FatTree {
	t.Helper()
	ft, err := topology.NewFatTree(4, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestGenerateShuffleUniform(t *testing.T) {
	ft := shuffleFabric(t)
	cfg := ShuffleConfig{Mappers: 3, Reducers: 4, BytesPerPair: 64 << 10, Seed: 1}
	sh := GenerateShuffle(cfg, ft)
	if len(sh.Mappers) != 3 || len(sh.Reducers) != 4 {
		t.Fatalf("sets %dx%d, want 3x4", len(sh.Mappers), len(sh.Reducers))
	}
	seen := map[int]bool{}
	for _, h := range append(append([]int{}, sh.Mappers...), sh.Reducers...) {
		if seen[h] {
			t.Fatalf("host %d appears twice across mapper/reducer sets", h)
		}
		seen[h] = true
	}
	if sh.Straggler != -1 {
		t.Fatalf("straggler = %d with factor disabled, want -1", sh.Straggler)
	}
	for m, row := range sh.Bytes {
		for r, b := range row {
			if b != cfg.BytesPerPair {
				t.Fatalf("skew=0 pair (%d,%d) = %d bytes, want exactly %d", m, r, b, cfg.BytesPerPair)
			}
		}
	}
	if got, want := sh.TotalBytes(), cfg.BytesPerPair*3*4; got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

func TestGenerateShuffleSkewAndStraggler(t *testing.T) {
	ft := shuffleFabric(t)
	cfg := ShuffleConfig{
		Mappers: 4, Reducers: 4, BytesPerPair: 64 << 10,
		Skew: 1.0, StragglerFactor: 4, Seed: 2,
	}
	sh := GenerateShuffle(cfg, ft)
	if sh.Straggler < 0 || sh.Straggler >= 4 {
		t.Fatalf("straggler index = %d, want in [0,4)", sh.Straggler)
	}
	// Zipf skew: reducer 0 is the hottest partition on every row.
	for m, row := range sh.Bytes {
		for r := 1; r < len(row); r++ {
			if row[r] > row[0] {
				t.Fatalf("mapper %d: reducer %d (%d B) larger than hottest reducer 0 (%d B)", m, r, row[r], row[0])
			}
		}
	}
	// The straggler's row dominates every other row pairwise.
	for m, row := range sh.Bytes {
		if m == sh.Straggler {
			continue
		}
		for r := range row {
			if want := row[r] * 4; sh.Bytes[sh.Straggler][r] != want {
				t.Fatalf("straggler pair %d = %d B, want %dx of mapper %d's %d B",
					r, sh.Bytes[sh.Straggler][r], 4, m, row[r])
			}
		}
	}
	// Mean preserved per non-straggler row.
	var rowTotal int64
	for _, b := range sh.Bytes[(sh.Straggler+1)%4] {
		rowTotal += b
	}
	mean := rowTotal / 4
	if mean < cfg.BytesPerPair*95/100 || mean > cfg.BytesPerPair*105/100 {
		t.Fatalf("row mean %d strays from BytesPerPair %d", mean, cfg.BytesPerPair)
	}
}

func TestGenerateShuffleDeterministic(t *testing.T) {
	ft := shuffleFabric(t)
	cfg := ShuffleConfig{Mappers: 3, Reducers: 5, BytesPerPair: 32 << 10, Skew: 0.9, StragglerFactor: 2, Seed: 7}
	a := GenerateShuffle(cfg, ft)
	b := GenerateShuffle(cfg, ft)
	if a.Straggler != b.Straggler {
		t.Fatal("straggler draw not deterministic")
	}
	for i := range a.Mappers {
		if a.Mappers[i] != b.Mappers[i] {
			t.Fatal("mapper selection not deterministic")
		}
	}
	for i := range a.Reducers {
		if a.Reducers[i] != b.Reducers[i] {
			t.Fatal("reducer selection not deterministic")
		}
	}
	for m := range a.Bytes {
		for r := range a.Bytes[m] {
			if a.Bytes[m][r] != b.Bytes[m][r] {
				t.Fatal("partition matrix not deterministic")
			}
		}
	}
	cfg.Seed = 8
	c := GenerateShuffle(cfg, ft)
	same := true
	for i := range a.Mappers {
		if a.Mappers[i] != c.Mappers[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical mapper sets")
	}
}

func TestGenerateShuffleValidation(t *testing.T) {
	ft := shuffleFabric(t)
	for _, c := range []struct {
		name string
		cfg  ShuffleConfig
	}{
		{"no mappers", ShuffleConfig{Mappers: 0, Reducers: 1, BytesPerPair: 1}},
		{"no reducers", ShuffleConfig{Mappers: 1, Reducers: 0, BytesPerPair: 1}},
		{"too many hosts", ShuffleConfig{Mappers: 10, Reducers: 7, BytesPerPair: 1}}, // k=4 has 16 hosts
		{"zero bytes", ShuffleConfig{Mappers: 1, Reducers: 1, BytesPerPair: 0}},
		{"negative skew", ShuffleConfig{Mappers: 1, Reducers: 1, BytesPerPair: 1, Skew: -1}},
		{"fractional straggler", ShuffleConfig{Mappers: 1, Reducers: 1, BytesPerPair: 1, StragglerFactor: 0.5}},
	} {
		name, cfg := c.name, c.cfg
		if cfg.Validate(ft.NumHosts()) == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: GenerateShuffle did not panic", name)
				}
			}()
			GenerateShuffle(cfg, ft)
		}()
	}
	ok := ShuffleConfig{Mappers: 8, Reducers: 8, BytesPerPair: 1, StragglerFactor: 1}
	if err := ok.Validate(ft.NumHosts()); err != nil {
		t.Errorf("Validate rejected a full-fabric shuffle: %v", err)
	}
}
