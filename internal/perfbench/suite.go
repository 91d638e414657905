package perfbench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"polyraptor/internal/chaos"
	"polyraptor/internal/gf256"
	"polyraptor/internal/harness"
	"polyraptor/internal/metrics"
	"polyraptor/internal/netshim"
	"polyraptor/internal/netsim"
	"polyraptor/internal/raptorq"
	"polyraptor/internal/rqudp"
	"polyraptor/internal/sim"
	"polyraptor/internal/store"
	"polyraptor/internal/tcpsim"
	"polyraptor/internal/telemetry"
	"polyraptor/internal/topology"
)

// rowLen is the row length for the gf256 kernels: the 1436-byte
// MTU-sized symbol the object encoder uses on the wire.
const rowLen = 1436

// Suite returns the fixed benchmark suite. Names are stable across
// PRs; quick shrinks the workloads for CI smoke runs.
func Suite(quick bool) []Case {
	var cases []Case
	cases = append(cases, gf256Cases()...)
	cases = append(cases, codecCases(quick)...)
	cases = append(cases, simCases()...)
	cases = append(cases, tcpsimCases()...)
	cases = append(cases, telemetryCases()...)
	cases = append(cases, metricsCases()...)
	cases = append(cases, e2eCases(quick)...)
	cases = append(cases, udpFetchCases(quick)...)
	cases = append(cases, newServerCase(quick))
	return cases
}

// newServerCase is a server's set-up: NewServer on an object of 16 MiB
// (1 MiB quick), its socket opened once on the first run. NewServer builds
// views of the object's blocks and precodes none, so the cell is O(blocks)
// in time and allocations; its allocs/op is locked in ALLOC_BUDGET.json.
func newServerCase(quick bool) Case {
	size := 16 << 20
	if quick {
		size = 1 << 20
	}
	var (
		object []byte
		conn   net.PacketConn
	)
	return Case{
		Name: fmt.Sprintf("rqudp/NewServer/%dMiB", size>>20),
		Fn: func(n int) {
			if conn == nil {
				c, err := net.ListenPacket("udp", "127.0.0.1:0")
				if err != nil {
					panic(err)
				}
				object, conn = make([]byte, size), c
			}
			for i := 0; i < n; i++ {
				if _, err := rqudp.NewServer(conn, object, rqudp.DefaultConfig()); err != nil {
					panic(err)
				}
			}
		},
		Close: func() {
			if conn != nil {
				conn.Close()
			}
		},
	}
}

// metricsCases measures the PolyMeter hot paths: the enabled histogram
// record (bucket index + counter bump), the disabled path — a nil
// receiver, which must stay a single branch so metering can be
// threaded through every flow-completion path unconditionally — and
// the snapshot merge that pools per-seed histograms. All three are
// locked at 0 allocs/op in ALLOC_BUDGET.json.
func metricsCases() []Case {
	enabled := Case{
		Name:       "metrics/Record/enabled",
		RateName:   "samples_per_sec",
		UnitsPerOp: 1,
	}
	{
		h := metrics.NewHistogram()
		// A few decades of FCT-like values; the modulo keeps the bucket
		// walk from degenerating into a single hot cache line.
		vals := make([]float64, 1024)
		for i := range vals {
			vals[i] = 1e-4 * float64(i+1)
		}
		enabled.Fn = func(n int) {
			for i := 0; i < n; i++ {
				h.Record(vals[i&1023])
			}
		}
	}
	disabled := Case{
		Name:       "metrics/Record/disabled",
		RateName:   "samples_per_sec",
		UnitsPerOp: 1,
	}
	{
		var h *metrics.Histogram // metering off: nil receiver
		disabled.Fn = func(n int) {
			for i := 0; i < n; i++ {
				h.Record(float64(i))
			}
		}
	}
	merge := Case{
		Name:       "metrics/Merge",
		RateName:   "merges_per_sec",
		UnitsPerOp: 1,
	}
	{
		// Two well-populated histograms, as the sweep aggregator sees
		// them: one per seed, pooled pairwise in seed order.
		src := metrics.NewHistogram()
		for i := 0; i < 4096; i++ {
			src.Record(1e-5 * float64(i+1))
		}
		dst := metrics.NewHistogram()
		merge.Fn = func(n int) {
			for i := 0; i < n; i++ {
				dst.Merge(src)
			}
		}
	}
	return []Case{enabled, disabled, merge}
}

// telemetryCases measures the PolyScope flight recorder: the enabled
// hot path (arena append) and the disabled path, which must stay a
// single nil-check branch — the guarantee that lets the recorder be
// threaded through every sim hot path unconditionally.
func telemetryCases() []Case {
	enabled := Case{
		Name:       "telemetry/Record/enabled",
		RateName:   "events_per_sec",
		UnitsPerOp: 1,
	}
	{
		// A bounded ring, as the CLIs configure it: once warm, appends
		// recycle arena blocks and allocate nothing.
		rec := telemetry.NewRecorder(1 << 16)
		enabled.Fn = func(n int) {
			for i := 0; i < n; i++ {
				rec.Record(sim.Time(i), int32(i&7), telemetry.EvSymbol, 3, int64(i))
			}
		}
	}
	disabled := Case{
		Name:       "telemetry/Record/disabled",
		RateName:   "events_per_sec",
		UnitsPerOp: 1,
	}
	{
		var rec *telemetry.Recorder // tracing off: nil receiver
		disabled.Fn = func(n int) {
			for i := 0; i < n; i++ {
				rec.Record(sim.Time(i), int32(i&7), telemetry.EvSymbol, 3, int64(i))
			}
		}
	}
	return []Case{enabled, disabled}
}

func gf256Cases() []Case {
	mk := func(name string, fn func(dst, src []byte, n int)) Case {
		dst := make([]byte, rowLen)
		src := make([]byte, rowLen)
		for i := range src {
			src[i] = byte(i*31 + 1)
		}
		return Case{
			Name:       fmt.Sprintf("gf256/%s/%d", name, rowLen),
			BytesPerOp: rowLen,
			Fn:         func(n int) { fn(dst, src, n) },
		}
	}
	return []Case{
		mulAddRowsCase(),
		addSlotsCase(),
		mk("AddRow", func(dst, src []byte, n int) {
			for i := 0; i < n; i++ {
				gf256.AddRow(dst, src)
			}
		}),
		mk("AddRowScalar", func(dst, src []byte, n int) {
			for i := 0; i < n; i++ {
				gf256.AddRowScalar(dst, src)
			}
		}),
		mk("MulAddRow", func(dst, src []byte, n int) {
			for i := 0; i < n; i++ {
				gf256.MulAddRow(dst, src, 0x35)
			}
		}),
		mk("MulAddRowScalar", func(dst, src []byte, n int) {
			for i := 0; i < n; i++ {
				gf256.MulAddRowScalar(dst, src, 0x35)
			}
		}),
		// ScaleRow cases operate on the initialized src buffer (not the
		// zero dst): scaling by a non-zero coefficient is a bijection,
		// so the data stays representative across iterations, while an
		// all-zero row would only measure the scalar path's zero-skip
		// branch.
		mk("ScaleRow", func(_, src []byte, n int) {
			for i := 0; i < n; i++ {
				gf256.ScaleRow(src, 0x35)
			}
		}),
		mk("ScaleRowScalar", func(_, src []byte, n int) {
			for i := 0; i < n; i++ {
				gf256.ScaleRowScalar(src, 0x35)
			}
		}),
	}
}

// mulAddRowsCase is one call of the multi-row kernel at the shape of a
// partial decode: 8 missing symbols recovered from 256 inputs of 1,024
// bytes. Its bytes are row-operation bytes, 8*256 rows of 1,024 a call,
// so its MB/s reads against MulAddRow's.
func mulAddRowsCase() Case {
	const rows, ns, n = 8, 256, 1024
	rng := rand.New(rand.NewSource(9))
	src, dst, c := make([][]byte, ns), make([][]byte, rows), make([][]byte, rows)
	for i := range src {
		src[i] = make([]byte, n)
		rng.Read(src[i])
	}
	for j := range dst {
		dst[j], c[j] = make([]byte, n), make([]byte, ns)
		rng.Read(c[j])
	}
	var mats []uint64
	return Case{
		Name:       fmt.Sprintf("gf256/MulAddRows/%dx%d/%d", rows, ns, n),
		BytesPerOp: rows * ns * n,
		Fn: func(k int) {
			for i := 0; i < k; i++ {
				mats = gf256.MulAddRows(dst, src, c, mats)
			}
		},
	}
}

// addSlotsCase is one call of the multi-source XOR at the shape of a
// schedule's back-substitution row: ten 1,436-byte slots of an arena
// summed into a row. Its bytes are row-operation bytes, ten rows a call,
// so its MB/s reads against AddRow's.
func addSlotsCase() Case {
	const ns, n = 10, rowLen
	rng := rand.New(rand.NewSource(10))
	arena, dst := make([]byte, 4*ns*n), make([]byte, n)
	rng.Read(arena)
	idx := make([]int32, ns)
	for i := range idx {
		idx[i] = int32(4*i + 1)
	}
	return Case{
		Name:       fmt.Sprintf("gf256/AddSlots/%dx%d", ns, n),
		BytesPerOp: ns * n,
		Fn: func(k int) {
			for i := 0; i < k; i++ {
				gf256.AddSlots(dst, arena, n, idx)
			}
		},
	}
}

func codecSymbols(k, t int) [][]byte {
	rng := rand.New(rand.NewSource(7))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, t)
		rng.Read(src[i])
	}
	return src
}

// codecCases measures the layered codec pipeline in its steady state:
// encoders and decoders are constructed once and reused via Reset, so
// the cells capture the replayed-schedule/arena regime the transport
// actually runs in (one warm round happens inside runCase's Fn(1)
// warmup). The Encode, DecodeSystematic, Decode5pctLoss,
// Decode30pctLoss, DecodeCold30pct and DecodePartial cells are locked at
// 0 allocs/op in ALLOC_BUDGET.json.
func codecCases(quick bool) []Case {
	k := 256
	if quick {
		k = 64
	}
	const t = 1024
	src := codecSymbols(k, t)

	enc, err := raptorq.NewEncoder(src)
	if err != nil {
		panic(err)
	}
	encCase := Case{
		Name:       fmt.Sprintf("codec/Encode/K=%d", k),
		BytesPerOp: int64(k * t),
		RateName:   "symbols_per_sec",
		UnitsPerOp: float64(k),
		Fn: func(n int) {
			// Reset re-keys the encoder to the block and replays the
			// cached precode elimination schedule over the arena — the
			// steady-state cost of encoding one fresh block.
			for i := 0; i < n; i++ {
				if err := enc.Reset(src); err != nil {
					panic(err)
				}
			}
		},
	}

	buf := make([]byte, 0, t)
	repairCase := Case{
		Name:       fmt.Sprintf("codec/RepairSymbol/K=%d", k),
		BytesPerOp: t,
		RateName:   "symbols_per_sec",
		UnitsPerOp: 1,
		Fn: func(n int) {
			// A 1024-ESI window mirrors serving one object to many
			// receivers: the same repair ESIs recur across sessions.
			for i := 0; i < n; i++ {
				buf = enc.AppendSymbol(buf[:0], uint32(k+i%1024))
			}
		},
	}

	// Decode cells: one reused decoder per loss regime, each regime
	// exercising a different pipeline layer — keep=1 the no-matrix
	// systematic path, 5% the partial-systematic m x m solve, 30% the
	// full inactivation decode: plan, then replay. The mask is fixed, so
	// the 30% cell plans the same system every op; DecodeCold30pct below
	// draws a new one.
	mkDecode := func(name string, keep float64) Case {
		srcEnc, err := raptorq.NewEncoder(src)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(11))
		type arrival struct {
			esi uint32
			sym []byte
		}
		var arrivals []arrival
		for i := 0; i < k; i++ {
			if rng.Float64() < keep {
				arrivals = append(arrivals, arrival{uint32(i), srcEnc.Symbol(uint32(i))})
			}
		}
		for esi := uint32(k); len(arrivals) < k+2; esi++ {
			arrivals = append(arrivals, arrival{esi, srcEnc.Symbol(esi)})
		}
		dec, err := raptorq.NewDecoder(k, t)
		if err != nil {
			panic(err)
		}
		return Case{
			Name:       fmt.Sprintf("codec/%s/K=%d", name, k),
			BytesPerOp: int64(k * t),
			RateName:   "symbols_per_sec",
			UnitsPerOp: float64(k),
			Fn: func(n int) {
				for i := 0; i < n; i++ {
					dec.Reset()
					for _, a := range arrivals {
						if _, err := dec.AddSymbol(a.esi, a.sym); err != nil {
							panic(err)
						}
					}
					if _, err := dec.Decode(); err != nil {
						panic(err)
					}
				}
			},
		}
	}

	// The case a lossy fabric actually produces: one reused decoder, a
	// loss mask nobody has seen before on every block. Symbols come from
	// a pregenerated pool; only the choice of survivors is drawn per op.
	coldCase := Case{
		Name:       fmt.Sprintf("codec/DecodeCold30pct/K=%d", k),
		BytesPerOp: int64(k * t),
		RateName:   "symbols_per_sec",
		UnitsPerOp: float64(k),
	}
	pool := make([][]byte, 2*k)
	for i := range pool {
		pool[i] = enc.Symbol(uint32(i))
	}
	{
		dec, err := raptorq.NewDecoder(k, t)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(17))
		var extra []byte
		coldCase.Fn = func(n int) {
			for i := 0; i < n; i++ {
				dec.Reset()
				got := 0
				for esi := 0; esi < k; esi++ {
					if rng.Float64() < 0.70 {
						dec.AddSymbol(uint32(esi), pool[esi])
						got++
					}
				}
				for esi := k; got < k+2; esi++ {
					dec.AddSymbol(uint32(esi), pool[esi])
					got++
				}
				// Singular at K+2 is a ~1e-4 event: top up from past the pool.
				for esi := uint32(2 * k); ; esi++ {
					if _, err := dec.Decode(); err == nil {
						break
					}
					extra = enc.AppendSymbol(extra[:0], esi)
					dec.AddSymbol(esi, extra)
				}
			}
		}
	}

	// The partial-systematic path alone: exactly m sources missing, a
	// fresh choice of them every op, m+2 repair symbols. m=13 is the
	// median block of a 5 % loss fabric, m=32 the most the path takes
	// on at K=256.
	mkPartial := func(m int) Case {
		dec, err := raptorq.NewDecoder(k, t)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(int64(19 + m)))
		perm := make([]int, k)
		for i := range perm {
			perm[i] = i
		}
		gone := make([]bool, k)
		return Case{
			Name:       fmt.Sprintf("codec/DecodePartial/m=%d/K=%d", m, k),
			BytesPerOp: int64(k * t),
			RateName:   "symbols_per_sec",
			UnitsPerOp: float64(k),
			Fn: func(n int) {
				for i := 0; i < n; i++ {
					clear(gone)
					for j := 0; j < m; j++ {
						r := j + rng.Intn(k-j)
						perm[j], perm[r] = perm[r], perm[j]
						gone[perm[j]] = true
					}
					dec.Reset()
					for esi := 0; esi < k; esi++ {
						if !gone[esi] {
							dec.AddSymbol(uint32(esi), pool[esi])
						}
					}
					for esi := k; esi < k+m+2; esi++ {
						dec.AddSymbol(uint32(esi), pool[esi])
					}
					// A singular draw is rare: top up until it decodes.
					for esi := k + m + 2; ; esi++ {
						if _, err := dec.Decode(); err == nil {
							break
						}
						dec.AddSymbol(uint32(esi), pool[esi])
					}
				}
			},
		}
	}
	partialMs := []int{1, 13, 32}
	if quick {
		partialMs = partialMs[:1] // K=64 takes the partial path up to m=8
	}

	// Block-parallel object encode: partition a multi-block object and
	// solve the per-block precodes up front on the worker pool
	// (GOMAXPROCS-wide; output is identical for every worker count).
	// Construction-heavy by design — it carries the non-steady-state cost.
	objBytes := 2 << 20
	if quick {
		objBytes = 256 << 10
	}
	objData := make([]byte, objBytes)
	objRNG := rand.New(rand.NewSource(13))
	objRNG.Read(objData)
	objCase := Case{
		Name:       fmt.Sprintf("codec/ObjectEncodeParallel/%dKB", objBytes>>10),
		BytesPerOp: int64(objBytes),
		RateName:   "blocks_per_sec",
		UnitsPerOp: 0, // patched below once the layout is known
		Fn: func(n int) {
			for i := 0; i < n; i++ {
				if _, err := raptorq.NewObjectEncoderWorkers(objData, rowLen, k, 0); err != nil {
					panic(err)
				}
			}
		},
	}
	layout, err := raptorq.NewBlockLayout(int64(objBytes), rowLen, k)
	if err != nil {
		panic(err)
	}
	objCase.UnitsPerOp = float64(layout.Z())

	cases := []Case{
		encCase,
		repairCase,
		mkDecode("DecodeSystematic", 1.01),
		mkDecode("Decode5pctLoss", 0.95),
		mkDecode("Decode30pctLoss", 0.70),
		coldCase,
	}
	for _, m := range partialMs {
		cases = append(cases, mkPartial(m))
	}
	return append(cases, objCase)
}

func simCases() []Case {
	runCase := Case{
		Name:       "sim/EventEngine/ScheduleRun",
		RateName:   "events_per_sec",
		UnitsPerOp: 1,
	}
	{
		const depth = 1024
		e := sim.NewEngine()
		var refill func()
		refill = func() { e.After(time.Microsecond, refill) }
		for i := 0; i < depth; i++ {
			e.After(sim.Time(i), refill)
		}
		runCase.Fn = func(n int) {
			for i := 0; i < n; i++ {
				e.Step()
			}
		}
	}
	cancelCase := Case{
		Name:       "sim/EventEngine/ScheduleCancel",
		RateName:   "timers_per_sec",
		UnitsPerOp: 1,
	}
	{
		e := sim.NewEngine()
		var keepalive func()
		keepalive = func() { e.After(time.Microsecond, keepalive) }
		e.After(time.Microsecond, keepalive)
		nop := func() {}
		cancelCase.Fn = func(n int) {
			for i := 0; i < n; i++ {
				tm := e.After(time.Millisecond, nop)
				tm.Cancel()
				if i%1024 == 0 {
					e.Step()
				}
			}
		}
	}
	// ScheduleRun keeps one delay pending, which the engine serves from
	// a single FIFO lane. NetsimMix is the hold model (every fired event
	// schedules its successor) at the depth and delay mix PolyBench's
	// sim_rq pass actually shows: about 1300 pending events, 45 % link
	// propagation, 25 % header and 25 % data serialization, and 5 %
	// timers with a delay of their own — RTOs and one-offs, which go to
	// the heap — half of which are cancelled before they fire.
	mixCase := Case{
		Name:       "sim/EventEngine/NetsimMix",
		RateName:   "events_per_sec",
		UnitsPerOp: 1,
	}
	{
		const depth = 1300
		const prop, hdr, data = 10 * time.Microsecond, 512 * time.Nanosecond, 12 * time.Microsecond
		mix := [20]sim.Time{prop, hdr, data, prop, hdr, prop, data, prop, hdr, prop, data, prop, hdr, prop, data, prop, hdr, prop, data, 0}
		e := sim.NewEngine()
		x := uint64(0x9E3779B97F4A7C15) // xorshift64 state: deterministic and allocation-free
		var doomed sim.Timer
		var hold func()
		hold = func() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			d := mix[x%uint64(len(mix))]
			if d == 0 {
				tm := e.After(time.Microsecond+sim.Time(x>>32%200000), hold)
				if x&(1<<20) != 0 {
					doomed = tm
				}
				return
			}
			e.After(d, hold)
			if doomed.Active() {
				// Cancelled like an RTO by the next arrival; its
				// successor keeps the depth constant.
				doomed.Cancel()
				e.After(d, hold)
			}
		}
		for i := 0; i < depth; i++ {
			e.After(sim.Time(i)*10*time.Nanosecond, hold)
		}
		mixCase.Fn = func(n int) {
			for i := 0; i < n; i++ {
				e.Step()
			}
		}
	}
	return []Case{runCase, cancelCase, mixCase}
}

// tcpsimCases measures the TCP model's ACK clock: a flow between two
// hosts whose switch forwards at half the NIC rate, an op being one
// segment acknowledged — the sender's transmit, four link events each
// way, the receiver's ACK, the sender's RTT sample, window update and RTO
// re-arm. After the slow-start overshoot the flow saws along in
// congestion avoidance, one drop-tail loss and fast retransmit per cycle.
// None of that allocates (TestAckClockAllocatesNothing in tcpsim); a flow
// is 2^18 segments and the next starts as it ends, which is the cell's
// ~5e-5 allocations per op.
func tcpsimCases() []Case {
	const segs = 1 << 18 // 2 MB of sent table, made on the first call
	var eng *sim.Engine
	acked := 0
	return []Case{{
		Name:       "tcpsim/AckClock",
		RateName:   "segments_per_sec",
		UnitsPerOp: 1,
		Fn: func(n int) {
			if eng == nil {
				cfg := netsim.DefaultConfig()
				cfg.Trimming = false
				st := topology.NewStar(2, cfg)
				st.SW.Ports[1].SetRate(cfg.LinkRate / 2)
				sys := tcpsim.NewSystem(st.Net, tcpsim.TunedConfig())
				deliver := st.Hosts[0].Deliver
				st.Hosts[0].Deliver = func(pkt *netsim.Packet) {
					acked++ // the receiver acknowledges every segment
					deliver(pkt)
				}
				var next func(tcpsim.FlowResult)
				next = func(tcpsim.FlowResult) { sys.StartFlow(0, 1, segs*int64(sys.Cfg.SegPayload), next) }
				next(tcpsim.FlowResult{})
				eng = st.Net.Eng
			}
			for until := acked + n; acked < until && eng.Step(); {
			}
		},
	}}
}

func e2eCases(quick bool) []Case {
	// Every cell is one harness.Run on the Polyraptor backend. The
	// scenarios are fixed and valid, so a failure is a bug: panic.
	run := func(sc harness.Scenario, seed int64) harness.Result {
		res, err := harness.Run(sc, store.BackendPolyraptor, seed, harness.Observers{})
		if err != nil {
			panic(err)
		}
		return res
	}

	// The Fig1 of poly bench's bench scale; the table and its flag
	// lines are fixed, so a failure is a bug too.
	_, p, err := harness.LookupFigureScale("bench")
	if err != nil {
		panic(err)
	}
	sc := p.Fig1
	sc.Pattern = harness.PatternMulticast
	if quick {
		sc.Sessions = 40
	}
	var fig1aMean float64
	fig1a := Case{
		Name:    fmt.Sprintf("e2e/Fig1aRQ3/sessions=%d", sc.Sessions),
		OneShot: true,
		Fn: func(n int) {
			for i := 0; i < n; i++ {
				goodputs, _ := run(sc, 1).Detail.([]float64)
				fig1aMean = mean(goodputs)
			}
		},
		Metrics: func() map[string]float64 {
			return map[string]float64{"mean_goodput_gbps": fig1aMean}
		},
	}

	iopt := harness.Incast{FatTreeK: p.Incast.FatTreeK, Senders: 12, Bytes: 256 << 10}
	if quick {
		iopt.Senders, iopt.Bytes = 8, 70<<10
	}
	var incastGoodput float64
	incast := Case{
		Name:    fmt.Sprintf("e2e/IncastRQ/%dx%dKB", iopt.Senders, iopt.Bytes>>10),
		OneShot: true,
		Fn: func(n int) {
			for i := 0; i < n; i++ {
				incastGoodput = run(iopt, 1).Metrics["goodput_gbps"]
			}
		},
		Metrics: func() map[string]float64 {
			return map[string]float64{"goodput_gbps": incastGoodput}
		},
	}

	// The many-to-many pattern: an M×R transfer matrix of concurrently
	// pulled sessions — the scenario with the most live sessions per
	// host, so it tracks the cost of the session-lifecycle layer.
	sopt := harness.ShuffleOptions{FatTreeK: 4, Mappers: 8, Reducers: 8, BytesPerPair: 128 << 10, Skew: 0.9}
	if quick {
		sopt.Mappers, sopt.Reducers, sopt.BytesPerPair = 4, 4, 32<<10
	}
	var shuffleRun harness.ShuffleRun
	shuffle := Case{
		Name:    fmt.Sprintf("e2e/ShuffleRQ/%dx%dx%dKB", sopt.Mappers, sopt.Reducers, sopt.BytesPerPair>>10),
		OneShot: true,
		Fn: func(n int) {
			for i := 0; i < n; i++ {
				shuffleRun, _ = run(sopt, 1).Detail.(harness.ShuffleRun)
			}
		},
		Metrics: func() map[string]float64 {
			return map[string]float64{
				"shuffle_s":    shuffleRun.CompletionTime,
				"goodput_gbps": shuffleRun.GoodputGbps,
			}
		},
	}

	// Fault injection: cross-pod flows with a quarter of the core
	// links blackholed mid-flow. Stall-guard recovery makes this the
	// scenario with the most timer churn and re-primed pulls per
	// session — it tracks the cost of the failure paths themselves.
	copt := harness.ChaosOptions{
		FatTreeK: 4, Pattern: "one2one", Flows: 8, Bytes: 256 << 10,
		Fault: chaos.Plan{
			Kind: chaos.KindLinkDown, Layer: chaos.LayerCore,
			Frac: 0.25, FailAt: 500 * time.Microsecond,
		},
		Deadline: time.Second,
	}
	if quick {
		copt.Flows, copt.Bytes = 4, 64<<10
	}
	var chaosRun harness.ChaosRun
	chaosCase := Case{
		Name:    fmt.Sprintf("e2e/ChaosRQ/%dx%dKB-frac0.25", copt.Flows, copt.Bytes>>10),
		OneShot: true,
		Fn: func(n int) {
			for i := 0; i < n; i++ {
				chaosRun, _ = run(copt, 1).Detail.(harness.ChaosRun)
			}
		},
		Metrics: func() map[string]float64 {
			return map[string]float64{
				"completed":    float64(chaosRun.Completed),
				"stall_rate":   chaosRun.StallRate(),
				"fct_p99_s":    chaosRun.FCT.P99,
				"goodput_gbps": chaosRun.GoodputGbps,
			}
		},
	}
	return []Case{fig1a, incast, shuffle, chaosCase}
}

// udpFetchCases are the real transport end to end. The first is
// PolyBench's udp_fetch operation: one multi-source fetch of a 1 MiB
// object from two servers over loopback UDP (default transport config,
// one codec worker, one fetcher socket reused across fetches),
// byte-compared; ns/op is a fetch, MB/s is object bytes, and allocs/op —
// the servers' included — is locked in ALLOC_BUDGET.json. The rest are
// the loss ladder: the same fetch of 1 and 8 MiB with each server behind
// a hostile-network shim that loses that percentage of the symbols,
// reporting what the loss cost in stall recoveries, re-grants and symbols
// received. They are measurements, with no ceiling: what a fetch
// allocates under loss depends on which blocks the loss touched.
func udpFetchCases(quick bool) []Case {
	if quick {
		return []Case{
			udpFetchCase("e2e/UDPFetch2x256KiB", 256<<10, -1),
			udpFetchCase("e2e/UDPFetchLoss/256KiBx5", 256<<10, 5),
		}
	}
	cases := []Case{udpFetchCase("e2e/UDPFetch2x1MiB", 1<<20, -1)}
	for _, size := range []int{1, 8} {
		for _, pct := range []float64{0.1, 1, 5, 25} {
			cases = append(cases, udpFetchCase(fmt.Sprintf("e2e/UDPFetchLoss/%dMiBx%g", size, pct), size<<20, pct))
		}
	}
	return cases
}

// udpFetchCase is one cell of udpFetchCases: fetches of size bytes from
// two servers, behind shims losing lossPct percent of their symbols
// unless that is negative. The sockets open on the first run, because
// Suite is also called just to list names, and Close releases them.
func udpFetchCase(name string, size int, lossPct float64) Case {
	cfg := rqudp.DefaultConfig()
	cfg.Workers = 1
	var (
		object  []byte
		servers []*rqudp.Server
		shims   []*netshim.Shim
		remotes []net.Addr
		conn    net.PacketConn
		flow    uint32
		runs    int // fetches in the last Fn, which total sums
		total   rqudp.FetchStats
	)
	listen := func() net.PacketConn {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		return c
	}
	start := func() {
		object = make([]byte, size)
		rand.New(rand.NewSource(23)).Read(object)
		for i := 0; i < 2; i++ {
			srv, err := rqudp.NewServer(listen(), object, cfg)
			if err != nil {
				panic(err)
			}
			go func() { _ = srv.Serve() }()
			servers = append(servers, srv)
			remote := srv.Addr()
			if lossPct >= 0 {
				sh, err := netshim.New(remote, netshim.Config{Seed: int64(23 + i), Down: netshim.Faults{Loss: lossPct / 100}})
				if err != nil {
					panic(err)
				}
				shims, remote = append(shims, sh), sh.Addr()
			}
			remotes = append(remotes, remote)
		}
		conn = listen()
	}
	return Case{
		Name:       name,
		BytesPerOp: int64(size),
		Fn: func(n int) {
			if conn == nil {
				start()
			}
			total, runs = rqudp.FetchStats{}, n
			for i := 0; i < n; i++ {
				flow++
				got, st, err := rqudp.FetchMultiSourceStats(context.Background(), conn, remotes, flow, cfg)
				if err != nil || !bytes.Equal(got, object) {
					panic(fmt.Sprintf("perfbench: loopback fetch %d failed: %v", flow, err))
				}
				total.Symbols += st.Symbols
				total.Datagrams += st.Datagrams
				total.ReadCalls += st.ReadCalls
				total.PullsSent += st.PullsSent
				total.Retries += st.Retries
				total.Regrants += st.Regrants
			}
		},
		Metrics: func() map[string]float64 {
			for _, sh := range shims {
				if err := sh.Err(); err != nil {
					panic(fmt.Sprintf("perfbench: %s: %v", name, err))
				}
			}
			var sent rqudp.ServerStats // since the servers started: every run so far
			for _, srv := range servers {
				st := srv.Stats()
				sent.SendCalls += st.SendCalls
				sent.SymbolsSent += st.SymbolsSent
				sent.Precoded += st.Precoded
			}
			m := map[string]float64{
				"datagrams_per_read": float64(total.Datagrams) / float64(total.ReadCalls),
				"pulls_per_symbol":   float64(total.PullsSent) / float64(total.Symbols),
				"symbols_per_send":   float64(sent.SymbolsSent) / float64(sent.SendCalls),
				"symbols_per_fetch":  float64(total.Symbols) / float64(runs),
				// Blocks precoded since the servers started, over the fetches
				// since then (flow counts them): the blocks repair was sent of.
				"precoded_per_fetch": float64(sent.Precoded) / float64(flow),
			}
			if lossPct >= 0 {
				m["retries_per_fetch"] = float64(total.Retries) / float64(runs)
				m["regrants_per_fetch"] = float64(total.Regrants) / float64(runs)
			}
			return m
		},
		Close: func() {
			for _, srv := range servers {
				srv.Close()
			}
			for _, sh := range shims {
				sh.Close()
			}
			if conn != nil {
				conn.Close()
			}
		},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
