package main

// metricDef declares one metric: its unit, which direction is better,
// and — for end-to-end metrics — the share of the baseline median by
// which it may worsen before compare calls it a regression. The same
// names, units and directions are in BENCHMARK.json; TestBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	kind   metricKind
}

type metricKind int

const (
	// driverE2E metrics apply to every workload and are the
	// end_to_end list of BENCHMARK.json.
	driverE2E metricKind = iota
	// workloadE2E metrics are end-to-end but exist on some workloads
	// only (alert delay, push acknowledgement, wire ratio, error
	// rate). BENCHMARK.json wants every end-to-end metric on every
	// workload and never zero, so there they are listed with the
	// per-layer rows; compare still holds them to their bounds.
	workloadE2E
	perLayer
)

// Bounds are max(stated floor, 3 × the relative IQR seen over ten
// runs at ten seeds on the commit that added the benchmark), capped at
// a quarter. The timed loop runs on one core (run.go, timedProcs), where
// consecutive runs repeat within 3 % while the host holds still; but
// the sandbox's co-tenants shift the machine between speed regimes
// 10–40 % apart — most for memory-bound code — for minutes at a time,
// CPU time with wall time, so ten runs that straddle a shift spread by
// 8–18 % and only the quarter bound clears it. Peak RSS repeats within
// 4.5 %; alert latency within 2.5 %, push acknowledgement within 10 to
// 20 %, the wire ratio within 0.2 %.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, driverE2E},
	{"throughput_mbps", "MB/s", "higher", 0.25, driverE2E},
	{"cpu_ms_per_mb", "ms/MB", "lower", 0.25, driverE2E},
	{"peak_rss_mb", "MB", "lower", 0.15, driverE2E},

	{"alert_latency_ms_p50", "ms", "lower", 0.10, workloadE2E},
	{"alert_latency_ms_p95", "ms", "lower", 0.25, workloadE2E},
	{"push_ack_ms_p50", "ms", "lower", 0.25, workloadE2E},
	{"push_ack_ms_p95", "ms", "lower", 0.25, workloadE2E},
	{"wire_ratio", "x", "higher", 0.02, workloadE2E},
	{"error_rate", "ratio", "lower", 0, workloadE2E},

	{"netpkt.read_ns_per_pkt", "ns", "lower", 0, perLayer},
	{"netpkt.pcapng_ns_per_pkt", "ns", "lower", 0, perLayer},
	{"netpkt.allocs_per_pkt", "count", "lower", 0, perLayer},
	{"netpkt.parse_errors", "count", "lower", 0, perLayer},
	{"classify.ns_per_pkt", "ns", "lower", 0, perLayer},
	{"classify.selected_ratio", "ratio", "lower", 0, perLayer},
	{"reasm.feed_ns_per_pkt", "ns", "lower", 0, perLayer},
	{"reasm.allocs_per_pkt", "count", "lower", 0, perLayer},
	{"reasm.buffered_bytes_peak", "B", "lower", 0, perLayer},
	{"reasm.dgram_feed_ns_per_pkt", "ns", "lower", 0, perLayer},
	{"reasm.dgram_evict_ns_per_flow", "ns", "lower", 0, perLayer},
	{"extract.ns_per_kb", "ns", "lower", 0, perLayer},
	{"extract.frames_per_stream", "ratio", "lower", 0, perLayer},
	{"extract.frame_byte_ratio", "ratio", "lower", 0, perLayer},
	{"extract.coap_us_per_conv", "us", "lower", 0, perLayer},
	{"core.fingerprint_ns_per_kb", "ns", "lower", 0, perLayer},
	{"x86.decode_ns_per_byte", "ns", "lower", 0, perLayer},
	{"x86.viable_start_ratio", "ratio", "lower", 0, perLayer},
	{"ir.lift_ns_per_inst", "ns", "lower", 0, perLayer},
	{"sem.analyze_us_per_frame", "us", "lower", 0, perLayer},
	{"sem.match_self_us_per_frame", "us", "lower", 0, perLayer},
	{"sem.benign_us_per_kb", "us", "lower", 0, perLayer},
	{"sem.detect_frame_ratio", "ratio", "higher", 0, perLayer},
	{"sem.sketch_us_per_frame", "us", "lower", 0, perLayer},
	{"sem.allocs_per_frame", "count", "lower", 0, perLayer},
	{"sem.compile_ms", "ms", "lower", 0, perLayer},
	{"engine.process_ns_per_pkt", "ns", "lower", 0, perLayer},
	{"engine.drain_ms", "ms", "lower", 0, perLayer},
	{"engine.allocs_per_pkt", "count", "lower", 0, perLayer},
	{"engine.cache_hit_ratio", "ratio", "higher", 0, perLayer},
	{"engine.cache_rejected", "count", "lower", 0, perLayer},
	{"engine.shed_pkts", "count", "lower", 0, perLayer},
	{"engine.queue_depth_max", "count", "lower", 0, perLayer},
	{"engine.shard_skew", "ratio", "lower", 0, perLayer},
	{"engine.shard_speedup_x", "x", "higher", 0, perLayer},
	{"engine.overhead_share", "ratio", "lower", 0, perLayer},
	{"incident.publish_ns_per_event", "ns", "lower", 0, perLayer},
	{"incident.events_per_pkt", "ratio", "lower", 0, perLayer},
	{"incident.events_dropped", "count", "lower", 0, perLayer},
	{"incident.export_ms", "ms", "lower", 0, perLayer},
	{"incident.derive_ms", "ms", "lower", 0, perLayer},
	{"lineage.observe_ns_per_event", "ns", "lower", 0, perLayer},
	{"lineage.merge_ms", "ms", "lower", 0, perLayer},
	{"lineage.trace_ms_1e3", "ms", "lower", 0, perLayer},
	{"lineage.trace_ms_1e4", "ms", "lower", 0, perLayer},
	{"lineage.trace_ms_1e5", "ms", "lower", 0, perLayer},
	{"fed.write_export_mbps", "MB/s", "higher", 0, perLayer},
	{"fed.read_export_mbps", "MB/s", "higher", 0, perLayer},
	{"fed.merge_ms_per_export", "ms", "lower", 0, perLayer},
	{"fed.checkpoint_ms_p50", "ms", "lower", 0, perLayer},
	{"compress.encode_mbps", "MB/s", "higher", 0, perLayer},
	{"compress.decode_mbps", "MB/s", "higher", 0, perLayer},
	{"compress.ratio", "x", "higher", 0, perLayer},
	{"transport.fold_ms_per_push", "ms", "lower", 0, perLayer},
	{"transport.rejects", "count", "lower", 0, perLayer},
	{"telemetry.observe_ns", "ns", "lower", 0, perLayer},
	{"bench.gen_lag_ms_p95", "ms", "lower", 0, perLayer},
	{"trace.overhead_pct", "%", "lower", 0, perLayer},
	{"report.render_ms", "ms", "lower", 0, perLayer},
}

// metricIndex is the metric's position in metricDefs — the order rows
// are printed in — or len(metricDefs) for an undeclared name.
func metricIndex(name string) int {
	for i := range metricDefs {
		if metricDefs[i].name == name {
			return i
		}
	}
	return len(metricDefs)
}

func metricByName(name string) *metricDef {
	if i := metricIndex(name); i < len(metricDefs) {
		return &metricDefs[i]
	}
	return nil
}

func unitOf(name string) string {
	if d := metricByName(name); d != nil {
		return d.unit
	}
	panic("bench: metric " + name + " is not declared in metricDefs")
}

// driverMetrics lists the metric names one run must report to the
// driver: the end_to_end list with tracing off, everything else with
// tracing on.
func driverMetrics(trace bool) []string {
	var names []string
	for _, d := range metricDefs {
		if (d.kind == driverE2E) != trace {
			names = append(names, d.name)
		}
	}
	return names
}
