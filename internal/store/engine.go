package store

import (
	"fmt"
	"math"
	"math/rand"

	"polyraptor/internal/sim"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

// Config parametrises one storage-cluster run.
type Config struct {
	// FatTreeK is the fabric arity (hosts = k^3/4, racks = k^2/2).
	FatTreeK int
	// Backend selects the transport under the store.
	Backend BackendKind
	// Objects is the number of pre-loaded catalogue objects; GETs draw
	// from this set under the Zipf popularity.
	Objects int
	// ObjectBytes is the object (block) size.
	ObjectBytes int64
	// Replicas is R, the replication factor. Placement needs R+1
	// distinct racks (R replica racks plus the writer's).
	Replicas int
	// ZipfSkew is the popularity exponent (0 = uniform, ~1 = web-like).
	ZipfSkew float64
	// Requests is the total number of client requests issued.
	Requests int
	// PutFrac is the fraction of requests that are PUTs.
	PutFrac float64
	// Lambda is the Poisson request arrival rate in requests/second.
	// Zero derives it from LoadFactor so scaled-down runs keep per-host
	// delivered load constant (same normalisation as harness.Scale).
	Lambda float64
	// LoadFactor is the target per-host delivered load fraction used
	// when Lambda is zero.
	LoadFactor float64
	// FailMode selects the mid-run failure, if any.
	FailMode FailMode
	// FailFrac positions the failure at the arrival time of request
	// floor(FailFrac * Requests).
	FailFrac float64
	// DetectDelay is the lag between failure and the start of the
	// re-replication storm (the master's heartbeat timeout).
	DetectDelay sim.Time
	// Seed drives every random choice.
	Seed int64
}

// DefaultConfig returns a small cluster: a 16-host fabric (k=4), 48
// objects of 256 KB, 3-way replication, web-like skew, 160 requests
// with 10% writes, a rack failure mid-run.
func DefaultConfig() Config {
	return Config{
		FatTreeK:    4,
		Backend:     BackendPolyraptor,
		Objects:     48,
		ObjectBytes: 256 << 10,
		Replicas:    3,
		ZipfSkew:    0.9,
		Requests:    160,
		PutFrac:     0.1,
		LoadFactor:  0.3,
		FailMode:    FailRack,
		FailFrac:    0.5,
		DetectDelay: 10 * 1e6, // 10 ms heartbeat timeout
		Seed:        1,
	}
}

// Hosts returns the fabric's host count, k^3/4 — the one place the
// formula lives.
func (cfg Config) Hosts() int {
	return cfg.FatTreeK * cfg.FatTreeK * cfg.FatTreeK / 4
}

// Racks returns the fabric's rack (edge switch) count, k^2/2.
func (cfg Config) Racks() int {
	return cfg.FatTreeK * cfg.FatTreeK / 2
}

// lambda returns the configured or derived arrival rate.
func (cfg Config) lambda(linkRate int64) float64 {
	if cfg.Lambda > 0 {
		return cfg.Lambda
	}
	// A GET delivers one copy to the client's downlink; a PUT delivers
	// R copies across replica downlinks.
	mult := cfg.PutFrac*float64(cfg.Replicas) + (1 - cfg.PutFrac)
	return cfg.LoadFactor * float64(cfg.Hosts()) * float64(linkRate) / (8 * float64(cfg.ObjectBytes) * mult)
}

// Validate checks every field combination against the fabric the
// config itself describes (racks = k^2/2), without building anything —
// CLIs call it before the engine runs, so an impossible matrix (e.g.
// R+1 racks on a fabric with fewer) is a clear immediate error instead
// of a failure deep in placement.
func (cfg Config) Validate() error {
	if cfg.FatTreeK < 2 || cfg.FatTreeK%2 != 0 {
		return fmt.Errorf("store: fat-tree arity k=%d must be even and >= 2", cfg.FatTreeK)
	}
	if cfg.Replicas < 1 {
		return fmt.Errorf("store: Replicas must be >= 1, got %d", cfg.Replicas)
	}
	if cfg.Objects < 1 {
		return fmt.Errorf("store: Objects must be >= 1, got %d", cfg.Objects)
	}
	if cfg.ObjectBytes < 1 {
		return fmt.Errorf("store: ObjectBytes must be >= 1, got %d", cfg.ObjectBytes)
	}
	if cfg.Replicas+1 > cfg.Racks() {
		return fmt.Errorf("store: R=%d needs %d distinct racks (replicas + writer), k=%d fabric has %d (k^2/2)",
			cfg.Replicas, cfg.Replicas+1, cfg.FatTreeK, cfg.Racks())
	}
	if cfg.PutFrac < 0 || cfg.PutFrac > 1 {
		return fmt.Errorf("store: PutFrac must be in [0,1], got %g", cfg.PutFrac)
	}
	if cfg.ZipfSkew < 0 {
		return fmt.Errorf("store: ZipfSkew must be non-negative, got %g", cfg.ZipfSkew)
	}
	if cfg.Lambda < 0 {
		return fmt.Errorf("store: Lambda must be >= 0, got %g", cfg.Lambda)
	}
	if cfg.Lambda <= 0 && cfg.LoadFactor <= 0 {
		return fmt.Errorf("store: either Lambda or LoadFactor must be positive")
	}
	if cfg.Requests < 0 {
		return fmt.Errorf("store: Requests must be >= 0, got %d", cfg.Requests)
	}
	if cfg.FailFrac < 0 || cfg.FailFrac > 1 {
		return fmt.Errorf("store: FailFrac must be in [0,1], got %g", cfg.FailFrac)
	}
	if cfg.DetectDelay < 0 {
		return fmt.Errorf("store: DetectDelay must be >= 0, got %v", cfg.DetectDelay)
	}
	return nil
}

// Xfer records one completed transfer (GET, PUT or repair).
type Xfer struct {
	// Object is the catalogue object ID.
	Object int
	// Client is the reading host (GET), writing host (PUT) or the
	// replacement replica host (repair).
	Client int
	// Bytes is the object size.
	Bytes int64
	// Start and End bound the transfer.
	Start, End sim.Time
}

// FCT returns the flow completion time.
func (x Xfer) FCT() sim.Time { return x.End - x.Start }

// GoodputGbps returns application goodput in Gbit/s.
func (x Xfer) GoodputGbps() float64 {
	d := x.FCT().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(x.Bytes*8) / d / 1e9
}

// Result is everything one run measured.
type Result struct {
	Backend BackendKind
	// Gets, Puts and Repairs are completed transfers in completion
	// order.
	Gets, Puts, Repairs []Xfer
	// SkippedGets counts GETs that found no alive replica (data
	// unavailable at issue time).
	SkippedGets int
	// SkippedPuts counts PUTs that found no eligible placement
	// (failures left fewer alive racks than R+1).
	SkippedPuts int
	// Recovery describes the failure and the re-replication storm.
	Recovery Recovery
	// Makespan is the simulated time when the last event ran.
	Makespan sim.Time
}

// GetGoodputs returns per-GET goodput in Gbps.
func (r *Result) GetGoodputs() []float64 { return Goodputs(r.Gets) }

// PutGoodputs returns per-PUT goodput in Gbps.
func (r *Result) PutGoodputs() []float64 { return Goodputs(r.Puts) }

// GetFCTs returns per-GET completion times in seconds.
func (r *Result) GetFCTs() []float64 { return FCTs(r.Gets) }

// PutFCTs returns per-PUT completion times in seconds.
func (r *Result) PutFCTs() []float64 { return FCTs(r.Puts) }

// GetsDuringRecovery returns the GETs issued while the re-replication
// storm was in flight — from failure detection (when the storm
// starts) to the last repair's completion. GETs in the degraded-but-
// storm-free window [InjectedAt, DetectedAt) belong to neither this
// set nor GetsBeforeFailure, so the interference ratio compares a
// clean baseline against genuinely storm-contended reads. Empty when
// no failure was injected.
func (r *Result) GetsDuringRecovery() []Xfer {
	if r.Recovery.Mode == FailNone {
		return nil
	}
	var out []Xfer
	for _, x := range r.Gets {
		if x.Start >= r.Recovery.DetectedAt && x.Start < r.Recovery.CompletedAt {
			out = append(out, x)
		}
	}
	return out
}

// GetsBeforeFailure returns the GETs that completed before the
// failure — the clean interference baseline (a GET merely issued
// before the failure can finish mid-storm with an inflated FCT) — or
// all GETs when no failure was injected.
func (r *Result) GetsBeforeFailure() []Xfer {
	if r.Recovery.Mode == FailNone {
		return r.Gets
	}
	var out []Xfer
	for _, x := range r.Gets {
		if x.End <= r.Recovery.InjectedAt {
			out = append(out, x)
		}
	}
	return out
}

// Goodputs maps transfers to per-transfer goodput in Gbps.
func Goodputs(xs []Xfer) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.GoodputGbps()
	}
	return out
}

// FCTs maps transfers to completion times in seconds.
func FCTs(xs []Xfer) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.FCT().Seconds()
	}
	return out
}

// engine is one in-flight run.
type engine struct {
	cfg Config
	ft  *topology.FatTree
	cat *Catalog
	tr  *Transport

	zipf    *workload.Zipf
	kindRng *rand.Rand
	objRng  *rand.Rand
	cliRng  *rand.Rand
	plcRng  *rand.Rand

	res Result

	repairQ     map[int][]repair
	repairsLeft int
}

type repair struct {
	object int
	dst    int
}

// Run executes one storage-cluster simulation and returns its
// measurements. Everything — catalogue, schedule, failure, repairs —
// is deterministic per Config.Seed.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ft, err := topology.NewFatTree(cfg.FatTreeK, cfg.Backend.NetConfig(cfg.Seed))
	if err != nil {
		return nil, err
	}
	tr, err := NewTransport(cfg.Backend, ft.Net, ft, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:     cfg,
		ft:      ft,
		cat:     NewCatalog(ft),
		tr:      tr,
		zipf:    workload.NewZipf(cfg.Objects, cfg.ZipfSkew),
		kindRng: sim.RNG(cfg.Seed, "store-kind"),
		objRng:  sim.RNG(cfg.Seed, "store-objects"),
		cliRng:  sim.RNG(cfg.Seed, "store-clients"),
		plcRng:  sim.RNG(cfg.Seed, "store-placement"),
		repairQ: map[int][]repair{},
	}
	e.res.Backend = cfg.Backend

	// Pre-load the catalogue. Seeded objects have no writer, so no
	// writer-rack exclusion applies.
	for i := 0; i < cfg.Objects; i++ {
		e.cat.Add(cfg.ObjectBytes, e.cat.Place(e.plcRng, -1, cfg.Replicas))
	}

	// Poisson request schedule, generated up front so the failure can
	// be pinned to a request index.
	arrivals := sim.RNG(cfg.Seed, "store-arrivals")
	lambda := cfg.lambda(ft.Net.Cfg.LinkRate)
	times := make([]sim.Time, cfg.Requests)
	var t sim.Time
	for i := range times {
		gap := -math.Log(1-arrivals.Float64()) / lambda
		t += sim.Time(gap * 1e9)
		times[i] = t
	}
	for i := range times {
		ft.Net.Eng.At(times[i], e.issueRequest)
	}
	if cfg.FailMode != FailNone && cfg.Requests > 0 {
		idx := int(cfg.FailFrac * float64(cfg.Requests))
		if idx < 0 {
			idx = 0
		}
		if idx >= cfg.Requests {
			idx = cfg.Requests - 1
		}
		ft.Net.Eng.At(times[idx], e.injectFailure)
	}

	ft.Net.Eng.Run()
	e.res.Makespan = ft.Net.Now()
	return &e.res, tr.Audit()
}

// issueRequest draws and starts one GET or PUT.
func (e *engine) issueRequest() {
	if e.kindRng.Float64() < e.cfg.PutFrac {
		e.issuePut()
	} else {
		e.issueGet()
	}
}

func (e *engine) issuePut() {
	client := e.drawClient(nil)
	replicas := e.cat.Place(e.plcRng, e.ft.RackOf(client), e.cfg.Replicas)
	if replicas == nil {
		e.res.SkippedPuts++
		return
	}
	// The catalogue registers placement at issue time (the master
	// grants the lease immediately); the transfer below models the data
	// path. GETs never target PUT-created objects — the Zipf domain is
	// the pre-loaded set — so no read observes a write in flight.
	obj := e.cat.Add(e.cfg.ObjectBytes, replicas)
	start := e.ft.Net.Now()
	group := int32(-1) // no group on TCP or for a single replica
	each := func(c Completion) {
		if c.Left > 0 {
			return
		}
		e.ft.RemoveMulticastGroup(group)
		e.res.Puts = append(e.res.Puts, Xfer{
			Object: obj.ID, Client: client, Bytes: obj.Bytes,
			Start: start, End: e.ft.Net.Now(),
		})
	}
	if len(replicas) == 1 {
		e.tr.Unicast(client, replicas[0], obj.Bytes, each)
	} else {
		group = e.tr.Multicast(client, replicas, obj.Bytes, each)
	}
}

func (e *engine) issueGet() {
	id := e.zipf.Sample(e.objRng)
	srcs := e.cat.AliveReplicas(id)
	if len(srcs) == 0 {
		e.res.SkippedGets++
		return
	}
	client := e.drawClient(srcs)
	o := e.cat.Object(id)
	start := e.ft.Net.Now()
	e.tr.MultiSource(srcs, client, o.Bytes, func(c Completion) {
		if c.Left > 0 {
			return
		}
		e.res.Gets = append(e.res.Gets, Xfer{
			Object: id, Client: client, Bytes: o.Bytes,
			Start: start, End: e.ft.Net.Now(),
		})
	})
}

// drawClient picks an alive host outside `exclude` (a GET client must
// not already hold a replica: a local read would bypass the network).
func (e *engine) drawClient(exclude []int) int {
	n := e.ft.NumHosts()
	for tries := 0; tries < 100*n; tries++ {
		h := e.cliRng.Intn(n)
		if !e.cat.Alive(h) {
			continue
		}
		ok := true
		for _, x := range exclude {
			if x == h {
				ok = false
				break
			}
		}
		if ok {
			return h
		}
	}
	panic("store: no eligible client host")
}
