package store

import (
	"reflect"
	"testing"

	"polyraptor/internal/netsim"
	"polyraptor/internal/sim"
	"polyraptor/internal/topology"
)

func testTree(t *testing.T, k int) *topology.FatTree {
	t.Helper()
	ft, err := topology.NewFatTree(k, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestPlacementInvariants checks the catalogue's placement rules: R
// distinct hosts, pairwise-distinct racks, never the writer's rack,
// never a dead host.
func TestPlacementInvariants(t *testing.T) {
	ft := testTree(t, 4)
	cat := NewCatalog(ft)
	cat.Kill([]int{5})
	rng := sim.RNG(7, "test-placement")
	for trial := 0; trial < 500; trial++ {
		writer := trial % ft.NumHosts()
		reps := cat.Place(rng, ft.RackOf(writer), 3)
		if len(reps) != 3 {
			t.Fatalf("trial %d: got %d replicas, want 3", trial, len(reps))
		}
		racks := map[int]bool{ft.RackOf(writer): true}
		hosts := map[int]bool{}
		for _, h := range reps {
			if h == 5 {
				t.Fatalf("trial %d: placed replica on dead host 5", trial)
			}
			if hosts[h] {
				t.Fatalf("trial %d: duplicate replica host %d", trial, h)
			}
			hosts[h] = true
			if racks[ft.RackOf(h)] {
				t.Fatalf("trial %d: rack %d used twice (or is the writer's)", trial, ft.RackOf(h))
			}
			racks[ft.RackOf(h)] = true
		}
	}
}

// TestPlaceRepairRestoresRackDisjointness checks that a replacement
// replica never lands in a rack a surviving replica occupies, and that
// exhaustion returns -1 instead of spinning.
func TestPlaceRepair(t *testing.T) {
	ft := testTree(t, 4)
	cat := NewCatalog(ft)
	// Replicas in racks 1, 2, 3 (hosts 2, 4, 6); rack 0 = hosts 0,1.
	cat.Add(1<<20, []int{2, 4, 6})
	cat.Kill([]int{6})
	rng := sim.RNG(3, "test-repair")
	for trial := 0; trial < 200; trial++ {
		h := cat.PlaceRepair(rng, 0)
		if h < 0 {
			t.Fatal("PlaceRepair found no host on a healthy fabric")
		}
		if r := ft.RackOf(h); r == ft.RackOf(2) || r == ft.RackOf(4) {
			t.Fatalf("repair landed in occupied rack %d", r)
		}
		if h == 6 || !cat.Alive(h) {
			t.Fatalf("repair landed on dead host %d", h)
		}
	}
	// Kill everything except the racks the survivors occupy: no
	// eligible rack remains.
	var rest []int
	for h := 0; h < ft.NumHosts(); h++ {
		if r := ft.RackOf(h); r != ft.RackOf(2) && r != ft.RackOf(4) {
			rest = append(rest, h)
		}
	}
	cat.Kill(rest)
	if h := cat.PlaceRepair(rng, 0); h != -1 {
		t.Fatalf("PlaceRepair = %d on exhausted fabric, want -1", h)
	}
}

// TestPlaceExhaustion: when failures leave fewer alive racks than the
// placement needs, Place returns nil instead of spinning (the engine
// then skips the PUT).
func TestPlaceExhaustion(t *testing.T) {
	ft := testTree(t, 4) // 8 racks of 2 hosts
	cat := NewCatalog(ft)
	// Kill racks 4..7: 4 alive racks left; a PUT from rack 0 wanting
	// R=4 needs 5.
	var dead []int
	for r := 4; r < 8; r++ {
		dead = append(dead, ft.RackHosts(r)...)
	}
	cat.Kill(dead)
	rng := sim.RNG(1, "test-exhaustion")
	if got := cat.Place(rng, 0, 4); got != nil {
		t.Fatalf("Place on exhausted fabric = %v, want nil", got)
	}
	// R=3 still fits (racks 1,2,3) and must succeed.
	if got := cat.Place(rng, 0, 3); len(got) != 3 {
		t.Fatalf("Place with exactly enough racks = %v, want 3 hosts", got)
	}
}

// TestConfigValidation: bad configurations are errors, not hangs or
// codec panics.
func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	for name, mutate := range map[string]func(*Config){
		"negative zipf":  func(c *Config) { c.ZipfSkew = -0.5 },
		"zero rate":      func(c *Config) { c.Lambda = 0; c.LoadFactor = 0 },
		"zero replicas":  func(c *Config) { c.Replicas = 0 },
		"zero objects":   func(c *Config) { c.Objects = 0 },
		"negative bytes": func(c *Config) { c.ObjectBytes = -1 },
		"putfrac > 1":    func(c *Config) { c.PutFrac = 1.5 },
		"negative reqs":  func(c *Config) { c.Requests = -1 },
		"negative delay": func(c *Config) { c.DetectDelay = -1 },
		"too many racks": func(c *Config) { c.Replicas = 8 }, // k=4 has 8 racks, needs 9
	} {
		cfg := base
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", name)
		}
	}
}

// TestKillReportsDegradedObjects checks the repair work list.
func TestKillReportsDegradedObjects(t *testing.T) {
	ft := testTree(t, 4)
	cat := NewCatalog(ft)
	cat.Add(1<<20, []int{0, 2, 4}) // racks 0,1,2
	cat.Add(1<<20, []int{6, 8, 10})
	cat.Add(1<<20, []int{1, 3, 5})
	got := cat.Kill([]int{0, 1}) // rack 0
	if want := []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Kill degraded %v, want %v", got, want)
	}
	if n := len(cat.AliveReplicas(0)); n != 2 {
		t.Fatalf("object 0 has %d alive replicas, want 2", n)
	}
	if cat.FullyReplicated(3) {
		t.Fatal("catalogue claims full replication after losing replicas")
	}
	cat.AddReplica(0, 7)
	cat.AddReplica(2, 9)
	if !cat.FullyReplicated(3) {
		t.Fatal("catalogue not fully replicated after repairs")
	}
}

// TestRunDeterministicPerSeed runs the same short config twice and
// demands identical transfer logs — the property the paper's
// five-seed error bars rest on.
func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Requests = 60
	cfg.Objects = 24
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Gets, b.Gets) || !reflect.DeepEqual(a.Puts, b.Puts) ||
		!reflect.DeepEqual(a.Repairs, b.Repairs) {
		t.Fatal("identical seeds produced different transfer logs")
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Fatalf("identical seeds produced different recoveries:\n%+v\n%+v", a.Recovery, b.Recovery)
	}

	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Gets, c.Gets) {
		t.Fatal("different seeds produced identical GET logs")
	}
}

// TestRecoveryStorm runs the k=4 rack-failure scenario end to end and
// asserts the storm returns every object to full R-way, rack-disjoint
// replication.
func TestRecoveryStorm(t *testing.T) {
	for _, mode := range []FailMode{FailServer, FailRack} {
		cfg := DefaultConfig()
		cfg.FailMode = mode
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := res.Recovery
		if rec.Mode != mode {
			t.Fatalf("%v: recovery mode %v", mode, rec.Mode)
		}
		wantHosts := 1
		if mode == FailRack {
			wantHosts = 2 // k=4: two hosts per rack
		}
		if len(rec.FailedHosts) != wantHosts {
			t.Fatalf("%v: killed %d hosts, want %d", mode, len(rec.FailedHosts), wantHosts)
		}
		if rec.LostReplicas == 0 {
			t.Fatalf("%v: failure cost no replicas — storm untested", mode)
		}
		if rec.Repaired != rec.LostReplicas || rec.Unrepairable != 0 {
			t.Fatalf("%v: repaired %d of %d lost (%d unrepairable)",
				mode, rec.Repaired, rec.LostReplicas, rec.Unrepairable)
		}
		if !rec.FullyReplicated {
			t.Fatalf("%v: cluster not fully replicated after recovery", mode)
		}
		if rec.Duration() <= 0 {
			t.Fatalf("%v: non-positive recovery duration %v", mode, rec.Duration())
		}
		if rec.DetectedAt != rec.InjectedAt+cfg.DetectDelay {
			t.Fatalf("%v: detection at %v, want %v", mode, rec.DetectedAt, rec.InjectedAt+cfg.DetectDelay)
		}
		if len(res.Repairs) != rec.Repaired {
			t.Fatalf("%v: %d repair transfers logged, %d repaired", mode, len(res.Repairs), rec.Repaired)
		}
	}
}

// TestBackendsShareSchedule checks that the request mix is identical
// across backends for the same seed (same GET/PUT counts and arrival
// pattern), so cross-backend comparisons are apples to apples.
func TestBackendsShareSchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailMode = FailNone
	cfg.Requests = 80
	var gets, puts int
	for i, be := range []BackendKind{BackendPolyraptor, BackendTCP} {
		cfg.Backend = be
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			gets, puts = len(res.Gets), len(res.Puts)
			continue
		}
		if len(res.Gets) != gets || len(res.Puts) != puts {
			t.Fatalf("backend %v saw %d/%d gets/puts, polyraptor saw %d/%d",
				be, len(res.Gets), len(res.Puts), gets, puts)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	for _, c := range []struct {
		name string
		want BackendKind
	}{{"polyraptor", BackendPolyraptor}, {"rq", BackendPolyraptor}, {"tcp", BackendTCP}, {"dctcp", BackendDCTCP}} {
		got, ok := ParseBackend(c.name)
		if !ok || got != c.want {
			t.Fatalf("ParseBackend(%q) = %v,%v", c.name, got, ok)
		}
	}
	if _, ok := ParseBackend("quic"); ok {
		t.Fatal("ParseBackend accepted quic")
	}
	for _, c := range []struct {
		name string
		want FailMode
	}{{"none", FailNone}, {"server", FailServer}, {"rack", FailRack}} {
		var got FailMode
		if err := got.UnmarshalText([]byte(c.name)); err != nil || got != c.want {
			t.Fatalf("UnmarshalText(%q) = %v, %v", c.name, got, err)
		}
		if text, _ := got.MarshalText(); string(text) != c.name {
			t.Fatalf("MarshalText(%v) = %q", got, text)
		}
	}
	var m FailMode
	if err := m.UnmarshalText([]byte("meteor")); err == nil {
		t.Fatal("UnmarshalText accepted meteor")
	}
}

// TestAuditCatchesLeaks: a drained run balances its books on every
// backend; a packet that never came back, or one freed twice, does not.
func TestAuditCatchesLeaks(t *testing.T) {
	for _, kind := range []BackendKind{BackendPolyraptor, BackendTCP, BackendDCTCP} {
		ft, err := topology.NewFatTree(4, kind.NetConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTransport(kind, ft.Net, ft, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.Multicast(0, []int{5, 9, 13}, 256<<10, nil)
		tr.MultiSource([]int{6, 10, 14}, 1, 256<<10, nil)
		ft.Net.Eng.RunUntil(100 * sim.Time(1000))
		if err := tr.Audit(); err != nil {
			t.Fatalf("%v: a run still in flight was audited: %v", kind, err)
		}
		ft.Net.Eng.Run()
		if err := tr.Audit(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		leaked := ft.Net.AllocPacket()
		if tr.Audit() == nil {
			t.Fatalf("%v: a leaked packet passed the audit", kind)
		}
		ft.Net.FreePacket(leaked)
		ft.Net.FreePacket(leaked)
		if tr.Audit() == nil {
			t.Fatalf("%v: a packet freed twice passed the audit", kind)
		}
	}
}
