package main

// The metric ledger. BENCHMARK.json at the repository root declares the
// same names, units, directions and bounds; TestSpecMatchesBenchmarkJSON
// fails on drift in either direction.

// Workload names, in the order the suite runs them.
const (
	wlSimRQ  = "sim_rq"
	wlSimTCP = "sim_tcp"
	wlCodec  = "codec_object"
	wlUDP    = "udp_fetch"
)

var workloadNames = []string{wlSimRQ, wlSimTCP, wlCodec, wlUDP}

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry none. Moves and On record, for a
// per-layer metric, which end-to-end metric it should move and on which
// workloads the layer does any work (it reads 0 on the others).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	On     []string
}

// endToEnd lists what a user of the repository sees, per workload. Every
// workload reports every one. The transfer metrics use the workload's own
// clock: simulated time on sim_*, host time on codec_object and udp_fetch
// (README.md, "End-to-end metrics"). A bound holds for all four workloads,
// so the noisiest sets it: host time on udp_fetch and the simulated TCP tail
// both move 10-13 % from run to run on the machine the baselines come from.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_run", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "goodput_mbps", Unit: "Mbit/s", Better: "higher", Bound: 0.25},
	{Name: "xfer_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "xfer_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

var (
	onSim   = []string{wlSimRQ, wlSimTCP}
	onRQ    = []string{wlSimRQ}
	onTCP   = []string{wlSimTCP}
	onCodec = []string{wlCodec}
	onUDP   = []string{wlUDP}
)

// perLayer is the ledger measured from outside each module, named
// <module>.<metric>.
var perLayer = []metricSpec{
	// sim: the event engine.
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Moves: "run_s", On: onSim},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "sim.sim_s_per_wall_s", Unit: "ratio", Better: "higher", Moves: "run_s", On: onSim},
	{Name: "sim.pending_peak", Unit: "count", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "sim.heap_probe_ns_per_event", Unit: "ns", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "sim.engine_share_est", Unit: "ratio", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "sim.bench7_fig1a_match", Unit: "bool", Better: "higher", Moves: "goodput_mbps", On: onRQ},

	// netsim: ports, queues, switches.
	{Name: "netsim.enqueued", Unit: "count", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "netsim.host_pkts", Unit: "count", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "netsim.trim_frac", Unit: "ratio", Better: "lower", Moves: "xfer_p95_ms", On: onRQ},
	{Name: "netsim.drop_frac", Unit: "ratio", Better: "lower", Moves: "xfer_p95_ms", On: onTCP},
	{Name: "netsim.marked_frac", Unit: "ratio", Better: "lower", Moves: "xfer_p95_ms", On: onTCP},
	{Name: "netsim.events_per_host_pkt", Unit: "ratio", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "netsim.forward_probe_ns_per_hop", Unit: "ns", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "netsim.forward_share_est", Unit: "ratio", Better: "lower", Moves: "run_s", On: onSim},

	// polyraptor: the simulated protocol agent.
	{Name: "polyraptor.deliver_s", Unit: "s", Better: "lower", Moves: "run_s", On: onRQ},
	{Name: "polyraptor.deliver_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "run_s", On: onRQ},
	{Name: "polyraptor.deliver_share", Unit: "ratio", Better: "lower", Moves: "run_s", On: onRQ},
	{Name: "polyraptor.start_s", Unit: "s", Better: "lower", Moves: "run_s", On: onRQ},
	{Name: "polyraptor.symbol_overhead", Unit: "ratio", Better: "lower", Moves: "goodput_mbps", On: onRQ},
	{Name: "polyraptor.trims_per_symbol", Unit: "ratio", Better: "lower", Moves: "goodput_mbps", On: onRQ},
	{Name: "polyraptor.pull_pkts_per_symbol", Unit: "ratio", Better: "lower", Moves: "goodput_mbps", On: onRQ},
	{Name: "polyraptor.stalls", Unit: "count", Better: "lower", Moves: "xfer_p95_ms", On: onRQ},

	// tcpsim: the simulated TCP/DCTCP baseline.
	{Name: "tcpsim.deliver_s", Unit: "s", Better: "lower", Moves: "run_s", On: onTCP},
	{Name: "tcpsim.deliver_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "run_s", On: onTCP},
	{Name: "tcpsim.deliver_share", Unit: "ratio", Better: "lower", Moves: "run_s", On: onTCP},
	{Name: "tcpsim.retransmit_frac", Unit: "ratio", Better: "lower", Moves: "goodput_mbps", On: onTCP},
	{Name: "tcpsim.timeouts", Unit: "count", Better: "lower", Moves: "xfer_p95_ms", On: onTCP},

	// Set-up layers of the simulations, and the benchmark itself.
	{Name: "topology.build_s", Unit: "s", Better: "lower", Moves: "setup_s", On: onSim},
	{Name: "workload.generate_s", Unit: "s", Better: "lower", Moves: "setup_s", On: onSim},
	{Name: "bench.on_complete_s", Unit: "s", Better: "lower", Moves: "run_s", On: onSim},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "run_s", On: workloadNames},

	// raptorq: the codec.
	{Name: "raptorq.encode_mb_s", Unit: "MB/s", Better: "higher", Moves: "run_s", On: onCodec},
	{Name: "raptorq.decode_mb_s", Unit: "MB/s", Better: "higher", Moves: "goodput_mbps", On: onCodec},
	{Name: "raptorq.encode_precode_mb_s", Unit: "MB/s", Better: "higher", Moves: "run_s", On: onCodec},
	{Name: "raptorq.symbol_gen_mb_s", Unit: "MB/s", Better: "higher", Moves: "run_s", On: onCodec},
	{Name: "raptorq.add_symbol_ns", Unit: "ns", Better: "lower", Moves: "xfer_p50_ms", On: onCodec},
	{Name: "raptorq.decode_mb_s.loss0", Unit: "MB/s", Better: "higher", Moves: "goodput_mbps", On: onCodec},
	{Name: "raptorq.decode_mb_s.loss5", Unit: "MB/s", Better: "higher", Moves: "xfer_p50_ms", On: onCodec},
	{Name: "raptorq.decode_mb_s.loss30", Unit: "MB/s", Better: "higher", Moves: "xfer_p95_ms", On: onCodec},
	{Name: "raptorq.decode_fail_frac", Unit: "ratio", Better: "lower", Moves: "xfer_p95_ms", On: onCodec},
	{Name: "raptorq.allocs_per_block", Unit: "count", Better: "lower", Moves: "allocs_per_run", On: onCodec},

	// gf256: the kernels under the codec.
	{Name: "gf256.addrow_gb_s", Unit: "GB/s", Better: "higher", Moves: "goodput_mbps", On: onCodec},
	{Name: "gf256.muladdrow_gb_s", Unit: "GB/s", Better: "higher", Moves: "goodput_mbps", On: onCodec},

	// wire: packet marshalling.
	{Name: "wire.data_roundtrip_ns", Unit: "ns", Better: "lower", Moves: "xfer_p50_ms", On: onUDP},
	{Name: "wire.marshal_share_est", Unit: "ratio", Better: "lower", Moves: "xfer_p50_ms", On: onUDP},

	// rqudp: the real transport over loopback UDP.
	{Name: "rqudp.goodput_mb_s", Unit: "MB/s", Better: "higher", Moves: "goodput_mbps", On: onUDP},
	{Name: "rqudp.client_read_wait_s", Unit: "s", Better: "lower", Moves: "run_s", On: onUDP},
	{Name: "rqudp.client_write_s", Unit: "s", Better: "lower", Moves: "run_s", On: onUDP},
	{Name: "rqudp.client_cpu_s", Unit: "s", Better: "lower", Moves: "run_s", On: onUDP},
	{Name: "rqudp.server_read_wait_s", Unit: "s", Better: "lower", Moves: "xfer_p50_ms", On: onUDP},
	{Name: "rqudp.server_write_s", Unit: "s", Better: "lower", Moves: "xfer_p50_ms", On: onUDP},
	{Name: "rqudp.pkts_per_symbol", Unit: "ratio", Better: "lower", Moves: "xfer_p50_ms", On: onUDP},
	{Name: "rqudp.symbol_overhead", Unit: "ratio", Better: "lower", Moves: "goodput_mbps", On: onUDP},
	{Name: "rqudp.duplicates", Unit: "count", Better: "lower", Moves: "goodput_mbps", On: onUDP},
	{Name: "rqudp.retries", Unit: "count", Better: "lower", Moves: "xfer_p95_ms", On: onUDP},
	{Name: "rqudp.allocs_per_symbol", Unit: "count", Better: "lower", Moves: "allocs_per_run", On: onUDP},
	{Name: "rqudp.goodput_vs_codec", Unit: "ratio", Better: "higher", Moves: "goodput_mbps", On: onUDP},
	{Name: "rqudp.new_server_s", Unit: "s", Better: "lower", Moves: "setup_s", On: onUDP},
}
