package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/fed"
	"semnids/internal/fed/compress"
	"semnids/internal/fed/transport"
	"semnids/internal/incident"
	"semnids/internal/lineage"
	"semnids/internal/netpkt"
	"semnids/internal/sem"
	"semnids/internal/telemetry"
)

// div is a/b, or 0 when the layer saw no input on this workload — a
// per-layer row that reads 0 means "not exercised here".
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroLayerMetrics gives every per-layer row a value, so the result is
// complete whatever subset a workload exercises.
func zeroLayerMetrics(res *runResult) {
	for _, name := range driverMetrics(true) {
		if _, ok := res.Metrics[name]; !ok {
			res.set(name, 0)
		}
	}
}

// layerSpans are the span names whose self time is a layer's busy
// time; their sum against a shards-1 job's CPU time gives
// engine.overhead_share. x86.sweep, x86.viable and ir.lift are left
// out: sem.analyze repeats that work.
var layerSpans = []string{
	"netpkt.read", "classify.classify", "reasm.feed", "reasm.dgram_feed", "reasm.dgram_evict",
	"extract.extract", "extract.datagrams", "core.fingerprint", "sem.analyze", "sem.sketch",
	"incident.publish", "lineage.observe", "lineage.trace", "report.render",
}

// tracedRun is the traced run of a packet workload: the staged pass
// with spans on (the per-layer rows) and off (the tracing overhead),
// an instrumented engine pass for the rows only a running engine has,
// shards-1 against shards-2 jobs, the latency phase where the workload
// has one, and the input-independent layer micro-measurements.
func tracedRun(o *runOpts, prep *prepared, res *runResult, total *tally) error {
	// One pass to warm the page cache and the heap, discarded; then
	// tracedPasses pairs of the pass with spans recorded and with
	// recording off. Each per-layer row is the median over the recorded
	// passes, the tracing overhead the recorded passes' median wall
	// time against the unrecorded ones'.
	if _, err := stagedPass(o.w, prep.dir, nil); err != nil {
		return err
	}
	rows := make(map[string][]float64)
	var recorded, plain []float64
	var rec *recorder
	for i := 0; i < tracedPasses; i++ {
		rec = newRecorder(o.w.name)
		out, err := stagedPass(o.w, prep.dir, rec)
		if err != nil {
			return err
		}
		total.check(out.digest == prep.refDigest, "staged pass report %s differs from the shards-1 job's %s", out.digest, prep.refDigest)
		for name, v := range passRows(o.w, out, aggregate(rec.spans)) {
			rows[name] = append(rows[name], v)
		}
		recorded = append(recorded, out.wall.Seconds())
		if out, err = stagedPass(o.w, prep.dir, nil); err != nil {
			return err
		}
		plain = append(plain, out.wall.Seconds())
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(o.outDir, "trace-"+o.w.name+".jsonl"), rec.spans); err != nil {
		return err
	}
	for name, vals := range rows {
		if name != layerBusyNS {
			res.setSummary(name, summarize(vals))
		}
	}
	res.set("trace.overhead_pct", 100*(percentile(recorded, 0.5)/percentile(plain, 0.5)-1))
	layerNS := percentile(rows[layerBusyNS], 0.5)

	if err := enginePass(o, prep, res); err != nil {
		return err
	}
	if err := shardJobs(o, prep, res, total, layerNS); err != nil {
		return err
	}
	if o.w.latencySpeed > 0 {
		if err := latencyMetrics(o, prep, res, total); err != nil {
			return err
		}
	}
	if err := pcapngRead(prep.dir, o.scratch, res); err != nil {
		return err
	}
	inputFreeLayers(res)
	zeroLayerMetrics(res)
	return nil
}

// tracedPasses is how many recorded passes the per-layer rows are the
// median of.
const tracedPasses = 3

// layerBusyNS is passRows' private row: Σ self time of layerSpans.
const layerBusyNS = "layer busy ns"

// passRows derives the per-layer rows one recorded staged pass gives.
func passRows(w *workload, out *stagedOut, agg map[string]*layerTotals) map[string]float64 {
	get := func(name string) layerTotals {
		if t := agg[name]; t != nil {
			return *t
		}
		return layerTotals{}
	}
	self := func(name string) float64 { return float64(get(name).SelfNS) }
	in := func(name string) float64 { return float64(get(name).In) }
	nbytes := func(name string) float64 { return float64(get(name).Bytes) }
	kb := func(name string) float64 { return nbytes(name) / 1e3 }

	pkts, frames := float64(out.packets), float64(out.uniqueFrames)
	// What AnalyzeFrameCached spends beyond decoding and lifting the
	// same frames: matching, prefilters and the data-level detector.
	match := self("sem.analyze") - self("x86.sweep") - self("x86.viable") - self("ir.lift")
	rows := map[string]float64{
		"netpkt.read_ns_per_pkt":        div(self("netpkt.read"), pkts),
		"netpkt.allocs_per_pkt":         div(float64(out.readAllocs), pkts),
		"netpkt.parse_errors":           float64(out.parseErrors),
		"classify.ns_per_pkt":           div(self("classify.classify"), pkts),
		"classify.selected_ratio":       div(float64(get("classify.classify").Out), pkts),
		"reasm.feed_ns_per_pkt":         div(self("reasm.feed"), in("reasm.feed")),
		"reasm.allocs_per_pkt":          div(float64(out.reasmAllocs), in("reasm.feed")),
		"reasm.buffered_bytes_peak":     float64(out.bufferedPeak),
		"reasm.dgram_feed_ns_per_pkt":   div(self("reasm.dgram_feed"), in("reasm.dgram_feed")),
		"reasm.dgram_evict_ns_per_flow": div(self("reasm.dgram_evict"), float64(out.dgramEvicted)),
		"extract.ns_per_kb":             div(self("extract.extract"), kb("extract.extract")),
		"extract.frames_per_stream":     div(float64(out.frames), in("extract.extract")+in("extract.datagrams")),
		"extract.frame_byte_ratio":      div(float64(out.frameBytes), float64(out.viewBytes)),
		"extract.coap_us_per_conv":      div(self("extract.datagrams")/1e3, in("extract.datagrams")),
		"core.fingerprint_ns_per_kb":    div(self("core.fingerprint"), kb("core.fingerprint")),
		"x86.decode_ns_per_byte":        div(self("x86.sweep"), nbytes("x86.sweep")),
		"x86.viable_start_ratio":        div(float64(out.viableStarts), float64(out.starts)),
		"ir.lift_ns_per_inst":           div(self("ir.lift"), float64(out.liftedInsts)),
		"sem.analyze_us_per_frame":      div(self("sem.analyze")/1e3, frames),
		"sem.match_self_us_per_frame":   div(max(match, 0)/1e3, frames),
		"sem.benign_us_per_kb":          div(float64(out.benignNS)/1e3, float64(out.benignBytes)/1e3),
		"sem.detect_frame_ratio":        div(float64(out.detectedFrames), frames),
		"sem.sketch_us_per_frame":       div(self("sem.sketch")/1e3, in("sem.sketch")),
		"sem.allocs_per_frame":          div(float64(out.analyzeAllocs), frames),
		"incident.publish_ns_per_event": div(self("incident.publish"), float64(out.events)),
		"incident.events_per_pkt":       div(float64(out.events), pkts),
		"incident.export_ms":            self("incident.export") / 1e6,
		"incident.derive_ms":            self("incident.derive") / 1e6,
		"lineage.observe_ns_per_event":  div(self("lineage.observe"), in("lineage.observe")),
		"report.render_ms":              self("report.render") / 1e6,
		"engine.shard_skew":             div(float64(max(out.shardLoad[0], out.shardLoad[1])), float64(out.shardLoad[0]+out.shardLoad[1])/shards),
	}
	if w.engine.Correlate {
		rows["incident.events_dropped"] = float64(out.events - out.eventsReceived)
	}
	for _, name := range layerSpans {
		rows[layerBusyNS] += self(name)
	}
	return rows
}

// enginePass feeds the capture's packets to a shards-2 engine wired as
// nids.NewEngine wires it (correlator and lineage store on the event
// tap) and times Engine.Process and Drain from outside, in chunks; the
// engine's own counters give the cache and queue rows.
func enginePass(o *runOpts, prep *prepared, res *runResult) error {
	f, err := os.Open(filepath.Join(prep.dir, traceFile))
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := netpkt.NewTraceReader(bufio.NewReaderSize(f, 1<<18))
	if err != nil {
		return err
	}
	pool := netpkt.NewPacketPool()
	tr.SetPool(pool)

	cfg := o.w.engine
	ecfg := engine.Config{
		Classify:       classifyConfig(cfg.Config),
		Shards:         shards,
		DatagramFlows:  cfg.DatagramFlows,
		DatagramIdleUS: uint64(cfg.DatagramIdle / time.Microsecond),
		Lineage:        cfg.Lineage,
	}
	var corr *incident.Correlator
	if cfg.Correlate {
		corr = incident.New(incident.Config{})
		defer corr.Stop()
		ecfg.OnEvent = corr.Publish
		if cfg.Lineage {
			store := lineage.NewStore(lineage.StoreConfig{Sensor: "sensor"})
			ecfg.OnEvent = func(ev core.Event) {
				store.Observe(ev)
				corr.Publish(ev)
			}
		}
	}
	e := engine.New(ecfg)
	defer e.Stop()

	// Reading stays outside the timed region: a chunk is read, then
	// offered.
	chunk := make([]*netpkt.Packet, 0, chunkInputs)
	var processNS int64
	var packets, queueMax int
	m0 := mallocs()
	for done := false; !done; {
		chunk = chunk[:0]
		for len(chunk) < chunkInputs {
			p, err := tr.NextPacket(nil)
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				return err
			}
			chunk = append(chunk, p)
		}
		t0 := time.Now()
		for _, p := range chunk {
			e.Process(p)
		}
		processNS += time.Since(t0).Nanoseconds()
		packets += len(chunk)
		for _, s := range e.Snapshot().Shards {
			queueMax = max(queueMax, s.QueueLen)
		}
	}
	t0 := time.Now()
	e.Drain()
	if corr != nil {
		corr.Flush()
	}
	drain := time.Since(t0)
	allocs := mallocs() - m0
	m := e.Snapshot()
	res.set("engine.process_ns_per_pkt", div(float64(processNS), float64(packets)))
	res.set("engine.drain_ms", float64(drain.Nanoseconds())/1e6)
	res.set("engine.allocs_per_pkt", div(float64(allocs), float64(packets)))
	res.set("engine.cache_hit_ratio", div(float64(m.CacheHits), float64(m.CacheHits+m.CacheMisses)))
	res.set("engine.cache_rejected", float64(m.CacheRejected))
	res.set("engine.shed_pkts", float64(m.Dropped))
	res.set("engine.queue_depth_max", float64(queueMax))
	return nil
}

// shardJobs alternates shards-1 and shards-2 jobs for the shard
// speed-up and, from the shards-1 jobs' CPU time against the staged
// pass's layer busy time, the share of a job that is dispatch, queues,
// cache and events.
func shardJobs(o *runOpts, prep *prepared, res *runResult, total *tally, layerNS float64) error {
	const reps = 3
	var wall [shards + 1][]float64
	var cpu1 []float64
	for i := 0; i < reps; i++ {
		for _, n := range []int{1, shards} {
			job, err := runJob(o.w, prep.dir, n)
			if err != nil {
				return err
			}
			total.add(checkJob(o.w, &prep.truth, job, prep.refDigest))
			wall[n] = append(wall[n], job.wall.Seconds())
			if n == 1 {
				cpu1 = append(cpu1, float64(job.cpu.Nanoseconds()))
			}
		}
	}
	if runtime.NumCPU() >= shards {
		res.set("engine.shard_speedup_x", percentile(wall[1], 0.5)/percentile(wall[shards], 0.5))
	} else {
		res.Invalid = append(res.Invalid, fmt.Sprintf("engine.shard_speedup_x unresolved: %d CPU for %d shards", runtime.NumCPU(), shards))
	}
	res.set("engine.overhead_share", 1-layerNS/percentile(cpu1, 0.5))
	return nil
}

// pcapngRead rewrites the head of the capture as pcapng and times the
// same pooled read path over it.
func pcapngRead(dir, scratch string, res *runResult) error {
	const maxPackets = 65536
	src, err := os.Open(filepath.Join(dir, traceFile))
	if err != nil {
		return err
	}
	defer src.Close()
	pr, err := netpkt.NewPcapReader(bufio.NewReaderSize(src, 1<<18))
	if err != nil {
		return err
	}
	path := filepath.Join(scratch, fmt.Sprintf("head-%d.pcapng", os.Getpid()))
	dst, err := os.Create(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	bw := bufio.NewWriterSize(dst, 1<<18)
	writePcapNGHeader(bw)
	n := 0
	for ; n < maxPackets; n++ {
		frame, ts, err := pr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			dst.Close()
			return err
		}
		writePcapNGPacket(bw, frame, ts)
	}
	if err := bw.Flush(); err != nil {
		dst.Close()
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := netpkt.NewTraceReader(bufio.NewReaderSize(f, 1<<18))
	if err != nil {
		return err
	}
	tr.SetPool(netpkt.NewPacketPool())
	t0 := time.Now()
	read := 0
	for {
		p, err := tr.NextPacket(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		p.Release()
		read++
	}
	if read != n {
		return fmt.Errorf("pcapng round trip: wrote %d packets, read %d", n, read)
	}
	res.set("netpkt.pcapng_ns_per_pkt", div(float64(time.Since(t0).Nanoseconds()), float64(read)))
	return nil
}

// inputFreeLayers measures the layers whose cost does not depend on
// the workload's trace: template compilation, the telemetry record
// path, and lineage merge and trace over planted trees of 10³, 10⁴ and
// 10⁵ observations.
func inputFreeLayers(res *runResult) {
	const compiles = 32
	t0 := time.Now()
	for i := 0; i < compiles; i++ {
		sem.NewAnalyzer(sem.BuiltinTemplates())
	}
	res.set("sem.compile_ms", float64(time.Since(t0).Nanoseconds())/1e6/compiles)

	reg := telemetry.NewRegistry()
	hist, ctr := reg.Histogram("bench_ns", "bench"), reg.Counter("bench_total", "bench")
	const n = 1 << 20
	t0 = time.Now()
	for i := 0; i < n; i++ {
		hist.Observe(int64(i))
		ctr.Add(1)
	}
	res.set("telemetry.observe_ns", float64(time.Since(t0).Nanoseconds())/n)

	for _, size := range []struct {
		name string
		n    int
	}{{"lineage.trace_ms_1e3", 1e3}, {"lineage.trace_ms_1e4", 1e4}, {"lineage.trace_ms_1e5", 1e5}} {
		obs := plantedTree(size.n, 1)
		t0 = time.Now()
		trees := lineage.Trace(obs)
		res.set(size.name, float64(time.Since(t0).Nanoseconds())/1e6)
		if len(trees) == 0 {
			res.Invalid = append(res.Invalid, size.name+": planted tree traced to no ancestry")
		}
	}
	a, b := plantedTree(1e4, 1), plantedTree(1e4, 2)
	t0 = time.Now()
	lineage.Merge(a, b)
	res.set("lineage.merge_ms", float64(time.Since(t0).Nanoseconds())/1e6)
}

// plantedTree synthesizes the lineage observations of one polymorphic
// outbreak of n deliveries: every observation is a distinct exact
// payload of one family (one decoded tail), delivered by a host that
// an earlier observation infected. salt varies the exact payloads, so
// two trees of different salt merge without collapsing.
func plantedTree(n int, salt uint64) []lineage.Observation {
	host := func(i int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	tail := core.Fingerprint{A: 0x7461696c, B: 0x66616d, N: 64}
	obs := make([]lineage.Observation, n)
	state := salt*0x9e3779b97f4a7c15 + 1
	for i := range obs {
		state = state*6364136223846793005 + 1442695040888963407
		parent := 0
		if i > 0 {
			parent = int(state>>33) % i
		}
		obs[i] = lineage.Observation{
			Exact:   core.Fingerprint{A: state, B: salt, N: 512},
			Tail:    tail,
			FirstUS: uint64(i+1) * 1000,
			Src:     host(parent),
			Dst:     host(i + 1),
			Sensors: []string{"sensor"},
		}
	}
	return obs
}

// tracedFedRun is the traced run of the federation workload: encode →
// compress → decompress → read → merge → checkpoint → trace over the
// 64 checkpoints, each call a span, plus the aggregator's fold timed
// without a socket and a short closed loop for the push rows.
func tracedFedRun(o *runOpts, prep *prepared, res *runResult, total *tally) error {
	in := prep.fed
	run := func(rec *recorder) (time.Duration, error) {
		start := time.Now()
		root := rec.begin("pass")
		defer func() { rec.end(root, fedSensors*fedCheckpoints, 1, in.rawBytes) }()
		var exports []*incident.EvidenceExport
		var wires [][]byte

		h := rec.begin("read")
		for s := range in.bodies {
			for k := range in.bodies[s] {
				c := rec.begin("fed.read_export")
				ex, err := fed.ReadExport(bytes.NewReader(in.bodies[s][k]))
				rec.end(c, 1, 1, int64(len(in.bodies[s][k])))
				if err != nil {
					return 0, err
				}
				exports = append(exports, ex)
			}
		}
		rec.end(h, int64(len(exports)), int64(len(exports)), in.rawBytes)

		h = rec.begin("encode")
		for _, ex := range exports {
			var buf bytes.Buffer
			c := rec.begin("fed.write_export")
			err := fed.WriteExport(&buf, ex)
			rec.end(c, 1, 1, int64(buf.Len()))
			if err != nil {
				return 0, err
			}
		}
		rec.end(h, int64(len(exports)), int64(len(exports)), in.rawBytes)

		h = rec.begin("compress")
		var wireBytes int64
		for s := range in.bodies {
			for k := range in.bodies[s] {
				c := rec.begin("compress.encode")
				wire, err := lzss(in.bodies[s][k])
				rec.end(c, 1, 1, int64(len(in.bodies[s][k])))
				if err != nil {
					return 0, err
				}
				wires = append(wires, wire)
				wireBytes += int64(len(wire))
			}
		}
		rec.end(h, int64(len(wires)), int64(len(wires)), wireBytes)

		h = rec.begin("decompress")
		for _, wire := range wires {
			c := rec.begin("compress.decode")
			plain, err := io.ReadAll(compress.NewReader(bytes.NewReader(wire)))
			rec.end(c, 1, 1, int64(len(plain)))
			if err != nil {
				return 0, err
			}
		}
		rec.end(h, int64(len(wires)), int64(len(wires)), in.rawBytes)

		h = rec.begin("merge")
		var state *incident.EvidenceExport
		for _, ex := range exports {
			c := rec.begin("fed.merge")
			var err error
			if state == nil {
				state = ex
			} else {
				state, err = fed.Merge(state, ex)
			}
			rec.end(c, 1, 1, 0)
			if err != nil {
				return 0, err
			}
		}
		rec.end(h, int64(len(exports)), 1, 0)

		h = rec.begin("checkpoint")
		dir, err := os.MkdirTemp(o.scratch, "sink-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		sink, err := fed.OpenSink(fed.SinkConfig{Dir: dir, Export: func() *incident.EvidenceExport { return state }})
		if err != nil {
			return 0, err
		}
		for i := 0; i < fedCheckpoints; i++ {
			c := rec.begin("fed.checkpoint")
			err := sink.Checkpoint()
			rec.end(c, 1, 1, 0)
			if err != nil {
				sink.Close()
				return 0, err
			}
		}
		sink.Close()
		rec.end(h, fedCheckpoints, fedCheckpoints, 0)

		h = rec.begin("trace")
		c := rec.begin("incident.derive")
		incs, err := incident.DeriveIncidents(state)
		rec.end(c, int64(len(state.Sources)), int64(len(incs)), 0)
		if err != nil {
			return 0, err
		}
		c = rec.begin("lineage.trace")
		trees := lineage.Trace(state.Lineage)
		rec.end(c, int64(len(state.Lineage)), int64(len(trees)), 0)
		c = rec.begin("report.render")
		_, err = reportDigest(nil, incs, trees)
		rec.end(c, int64(len(incs)+len(trees)), 1, 0)
		rec.end(h, 0, 0, 0)
		return time.Since(start), err
	}
	if _, err := run(nil); err != nil { // warm-up, as in tracedRun
		return err
	}
	rec := newRecorder(o.w.name)
	traced, err := run(rec)
	if err != nil {
		return err
	}
	plain, err := run(nil)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(o.outDir, "trace-"+o.w.name+".jsonl"), rec.spans); err != nil {
		return err
	}
	res.set("trace.overhead_pct", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())

	agg := aggregate(rec.spans)
	mbps := func(name string) float64 {
		return div(float64(agg[name].Bytes)/1e6, float64(agg[name].SelfNS)/1e9)
	}
	res.set("fed.read_export_mbps", mbps("fed.read_export"))
	res.set("fed.write_export_mbps", mbps("fed.write_export"))
	res.set("compress.encode_mbps", mbps("compress.encode"))
	res.set("compress.decode_mbps", mbps("compress.decode"))
	res.set("compress.ratio", div(float64(in.rawBytes), float64(agg["compress"].Bytes)))
	res.set("fed.merge_ms_per_export", float64(agg["fed.merge"].SelfNS)/1e6/float64(agg["fed.merge"].Spans))
	var ckptMS []float64
	for _, s := range rec.spans {
		if s.Name == "fed.checkpoint" {
			ckptMS = append(ckptMS, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	res.setSummary("fed.checkpoint_ms_p50", summarize(ckptMS))
	res.set("incident.derive_ms", float64(agg["incident.derive"].SelfNS)/1e6)
	res.set("report.render_ms", float64(agg["report.render"].SelfNS)/1e6)

	if err := foldWithoutSocket(o, in, res); err != nil {
		return err
	}
	if err := pushMetrics(o, prep, res, total); err != nil {
		return err
	}
	inputFreeLayers(res)
	zeroLayerMetrics(res)
	return nil
}

// foldWithoutSocket times Aggregator.ServeHTTP itself — decode, merge
// and the fsynced checkpoint behind a durable ack — through a response
// recorder, so loopback and the HTTP stack are not in the figure.
func foldWithoutSocket(o *runOpts, in *fedInputs, res *runResult) error {
	dir, err := os.MkdirTemp(o.scratch, "fold-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	agg, err := transport.NewAggregator(transport.AggregatorConfig{Dir: dir})
	if err != nil {
		return err
	}
	defer agg.Close()
	var foldMS []float64
	for k := 0; k < fedCheckpoints; k++ {
		for s := 0; s < fedSensors; s++ {
			wire, err := lzss(in.bodies[s][k])
			if err != nil {
				return err
			}
			req := httptest.NewRequest(http.MethodPost, "/push", bytes.NewReader(wire))
			req.Header.Set("Content-Encoding", compress.ContentEncoding)
			rr := httptest.NewRecorder()
			t0 := time.Now()
			agg.ServeHTTP(rr, req)
			foldMS = append(foldMS, float64(time.Since(t0).Nanoseconds())/1e6)
			if rr.Code != http.StatusOK {
				return fmt.Errorf("fold %s: status %d: %s", checkpointFile(s, k), rr.Code, rr.Body.String())
			}
		}
	}
	res.setSummary("transport.fold_ms_per_push", summarize(foldMS))
	res.set("transport.rejects", float64(agg.Metrics().Rejected))
	return nil
}
