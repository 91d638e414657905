package harness

import (
	"strconv"

	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
)

// Storage is the storage-cluster scenario — the experiment the
// PolyStore subsystem exists for: Polyraptor's one-to-many PUTs and
// many-to-one GETs against TCP/DCTCP emulation on the same request
// schedule. Cluster is the store configuration; its Backend and Seed
// are overridden per run. Result.Detail is the StorageRun.
type Storage struct {
	Cluster store.Config
}

func (s Storage) Name() string { return "storage" }

func (s Storage) Params() map[string]string {
	return map[string]string{
		"k":        strconv.Itoa(s.Cluster.FatTreeK),
		"replicas": strconv.Itoa(s.Cluster.Replicas),
		"requests": strconv.Itoa(s.Cluster.Requests),
		"fail":     s.Cluster.FailMode.String(),
	}
}

func (s Storage) Validate() error { return s.Cluster.Validate() }

func (s Storage) LoadKnob() string { return "load_factor" }
func (s Storage) Headline() string { return "get_gbps" }

func (s Storage) ScaleLoad(mult float64) (Loadable, float64) {
	s.Cluster.Lambda = 0 // re-derive the arrival rate from the scaled load factor
	s.Cluster.LoadFactor *= mult
	return s, s.Cluster.LoadFactor
}

// Run runs the cluster once. The store engine owns its fabric and
// request loop, so the run is metered from the finished result: the
// GET and PUT sides are separate tenants of the registry (their
// latency targets differ in practice, and the pooled histograms stay
// separable). A skipped GET (its object lost) never ran, so it counts
// as offered but cannot meet the SLO.
func (s Storage) Run(env *Env) (Result, error) {
	cfg := s.Cluster
	cfg.Backend = env.Backend
	cfg.Seed = env.Seed
	res, err := store.Run(cfg)
	if err != nil {
		return Result{}, err
	}
	gm, pm := env.mt.tenant("get"), env.mt.tenant("put")
	getF, getG := res.GetFCTs(), res.GetGoodputs()
	putF, putG := res.PutFCTs(), res.PutGoodputs()
	gm.offered(len(getF) + res.SkippedGets)
	pm.offered(len(putF))
	for i, f := range getF {
		gm.flow(f, getG[i])
	}
	for i, f := range putF {
		pm.flow(f, putG[i])
	}
	run := StorageRun{
		Backend:      res.Backend.String(),
		GetFCT:       stats.Summarize(getF),
		PutFCT:       stats.Summarize(putF),
		GetGoodput:   stats.Summarize(getG),
		PutGoodput:   stats.Summarize(putG),
		GetFCTBefore: stats.Summarize(store.FCTs(res.GetsBeforeFailure())),
		GetFCTDuring: stats.Summarize(store.FCTs(res.GetsDuringRecovery())),
		Result:       res,
	}
	return Result{Metrics: storageMetrics(run), Detail: run}, nil
}

// StorageRun is one backend's reduced measurements.
type StorageRun struct {
	// Backend names the transport.
	Backend string
	// GetFCT and PutFCT summarise foreground completion times in
	// seconds; GetGoodput and PutGoodput summarise per-request goodput
	// in Gbps.
	GetFCT, PutFCT         stats.Summary
	GetGoodput, PutGoodput stats.Summary
	// GetFCTBefore summarises GETs that completed before the failure;
	// GetFCTDuring those issued while the re-replication storm ran
	// (detection to last repair). The storm's interference is the gap
	// between them.
	GetFCTBefore, GetFCTDuring stats.Summary
	// Result is the raw run output for callers that need more.
	Result *store.Result
}

// Interference returns the ratio of mean GET latency during recovery
// to the pre-failure baseline — how hard the re-replication storm hit
// foreground reads. ok is false when either window holds no GETs, in
// which case the ratio is unmeasured.
func (r StorageRun) Interference() (ratio float64, ok bool) {
	if r.GetFCTDuring.N == 0 || r.GetFCTBefore.Mean <= 0 {
		return 0, false
	}
	return r.GetFCTDuring.Mean / r.GetFCTBefore.Mean, true
}

// storageMetrics reduces one storage run to headline scalars (the
// table columns of cmd/polystore). Goodput means are taken over the
// requests in completion order, as every BENCH and golden file has
// them — not the sorted-sample mean of the summaries.
func storageMetrics(r StorageRun) sweep.Metrics {
	res := r.Result
	m := sweep.Metrics{
		"get_gbps":      stats.Mean(res.GetGoodputs()),
		"get_fct_p50_s": r.GetFCT.P50,
		"get_fct_p99_s": r.GetFCT.P99,
		"put_gbps":      stats.Mean(res.PutGoodputs()),
		"put_fct_p99_s": r.PutFCT.P99,
		"skipped_gets":  float64(res.SkippedGets),
	}
	if res.Recovery.Mode != store.FailNone {
		m["recovery_s"] = res.Recovery.Duration().Seconds()
	}
	if ratio, ok := r.Interference(); ok {
		m["interference_x"] = ratio
	}
	return m
}
