// Package engine is the packet pipeline: the paper's five stages
// (classify → extract → disassemble → IR → match, Figure 3) behind
// flow-sharded ingestion, built to run forever under load. Every
// front end — one pcap, a paced replay, live frames — feeds this one
// engine:
//
//   - Ingestion is sharded: packets are dispatched by FlowKey hash to
//     N shards, each owning its flow table, reassembler slice and
//     analysis bookkeeping, so shards run lock-free and scale across
//     cores. The cheap classification stage runs on the ingest
//     goroutine; only selected packets cross a shard queue.
//   - Flow lifecycles are managed: a periodic tick (driven by trace
//     time) analyzes-then-evicts idle streams and enforces a byte
//     budget per shard with LRU eviction, so abandoned and long-lived
//     flows cannot grow state without bound.
//   - Verdicts are cached by payload fingerprint: a worm outbreak
//     delivering millions of identical payloads hits the semantic
//     analyzer once.
//   - Shard queues are bounded with an explicit overload policy:
//     block (backpressure) or shed (drop + count), never silent
//     unbounded buffering.
//   - Drain flushes all in-progress flows and leaves the engine live
//     for the next trace; Stop terminates it. Both are idempotent and
//     safe alongside concurrent Alerts/Snapshot reads.
package engine

import (
	"encoding/binary"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/netpkt"
	"semnids/internal/sem"
	"semnids/internal/telemetry"
)

// OverloadPolicy selects what Process does when a shard queue is full.
type OverloadPolicy uint8

const (
	// PolicyBlock applies backpressure: Process blocks until the
	// owning shard has queue room. No packet is lost; ingestion slows
	// to the analysis rate.
	PolicyBlock OverloadPolicy = iota
	// PolicyShed drops the packet and counts it in Metrics.Dropped.
	// Ingestion never blocks; a saturated sensor degrades by sampling
	// instead of stalling the capture loop.
	PolicyShed
)

// Config parameterizes the streaming engine.
type Config struct {
	// Classify configures the traffic classification stage (shared by
	// all shards; it runs on the ingest goroutine).
	Classify classify.Config

	// Templates is the semantic template set (default: the built-in
	// set).
	Templates []*sem.Template

	// SensorID names this engine instance in exported incident
	// evidence: every evidence record a tap-fed correlator exports
	// carries it as provenance, so federated merges stay traceable to
	// the sensor that observed each piece (default DefaultSensorID).
	SensorID string

	// Shards is the number of ingest shards (default: GOMAXPROCS).
	Shards int

	// QueueDepth bounds each shard's packet queue (default 1024).
	QueueDepth int

	// BatchSize is the shard dispatch granularity: selected packets
	// accumulate into per-shard batches of this many packets and cross
	// the shard queue in one send, amortizing the handoff (and its
	// consumer wakeup) that used to be paid per packet. Batches also
	// flush when trace time advances a tick, so latency is bounded by
	// TickIntervalUS. Default 64, capped at QueueDepth so tiny queues
	// keep per-packet overload semantics.
	BatchSize int

	// Overload selects the full-queue policy (default PolicyBlock).
	Overload OverloadPolicy

	// FlowIdleTimeoutUS evicts flows idle for this many trace
	// microseconds; their unanalyzed tail is still analyzed (default
	// 60s).
	FlowIdleTimeoutUS uint64

	// TickIntervalUS is how often, in trace time, each shard runs its
	// eviction tick (default 1s). Ticks advance with selected
	// traffic; Drain covers quiet periods.
	TickIntervalUS uint64

	// ShardByteBudget caps reassembly buffering per shard;
	// least-recently-active flows are evicted (and tail-analyzed)
	// beyond it (default 64 MiB).
	ShardByteBudget int

	// DatagramFlows enables conversation tracking for non-TCP traffic:
	// each direction of a datagram exchange accumulates into an
	// idle-windowed buffer (with per-datagram boundaries preserved)
	// that is concatenated-and-swept like a TCP stream, so payload
	// spread across many datagrams — CoAP block transfers, chunked DNS
	// abuse — is analyzed whole. Off by default: single-datagram
	// analysis behavior is then byte-identical to prior releases.
	DatagramFlows bool

	// DatagramIdleUS is the idle window for datagram conversations in
	// trace microseconds: a datagram flow quiet this long is evicted
	// (its buffered tail analyzed first). Defaults to
	// FlowIdleTimeoutUS; set lower to expire chatty short exchanges
	// ahead of TCP flows. Also bounds the flow-open dedup window when
	// DatagramFlows is off.
	DatagramIdleUS uint64

	// VerdictCacheSize is the payload-fingerprint cache capacity in
	// entries: 0 selects the default (8192), negative disables the
	// cache.
	VerdictCacheSize int

	// MinAnalyzeBytes is the stream size that triggers a first
	// analysis before the connection closes (default 256).
	MinAnalyzeBytes int

	// FullScan disables classification pruning and binary extraction
	// and sweeps eight disassembly offsets instead of the analyzer's
	// four (the exhaustive baseline).
	FullScan bool

	// Lineage enables structural-fingerprint computation: frames whose
	// analysis produced detections are additionally sketched
	// (template/statement symbols plus the emulator-decoded tail, see
	// sem.Sketch) and the sketch rides the alert/fingerprint events —
	// the input to payload lineage tracing. Sketches are memoized in
	// the verdict cache alongside detections, so the emulation cost is
	// paid once per distinct hostile payload, never for benign frames.
	Lineage bool

	// OnAlert, when non-nil, is invoked synchronously for each alert
	// (from shard goroutines).
	OnAlert func(core.Alert)

	// Telemetry receives the engine's live metric series (counters and
	// gauges bridged at scrape time, latency histograms fed from the
	// hot path). Nil creates a private registry, so instrumentation
	// handles are always valid and the hot path carries no nil checks;
	// pass a shared registry to expose the series over HTTP. Each
	// engine needs its own registry (per-shard series are named by
	// shard id).
	Telemetry *telemetry.Registry

	// OnEvent, when non-nil, taps the shard hot path: flow opens,
	// alerts (with payload fingerprints), per-frame fingerprint
	// observations and flow evictions are published as typed events —
	// the feed the incident correlator consumes. Events are plain
	// values; a nil tap costs a single branch and no allocation.
	// Invoked from shard goroutines; alert/fingerprint events carry
	// fingerprints even when the verdict cache is disabled.
	OnEvent func(core.Event)
}

// Metrics is a snapshot of engine counters and gauges.
type Metrics struct {
	// Packets offered to the engine; Selected passed classification;
	// Dropped were shed under overload (PolicyShed only). Unparsed
	// frames never became packets: frames read = Unparsed + Packets,
	// and Packets − Selected is what classification filtered.
	Packets, Selected, Dropped, Unparsed uint64

	// StreamsAnalyzed counts stream views (TCP stream prefixes,
	// datagram-flow buffers, lone datagram payloads) handed to
	// extraction; Frames and FrameBytes what extraction forwarded to the
	// analyzer; Alerts the deduplicated detections.
	StreamsAnalyzed, Frames, FrameBytes, Alerts uint64

	// CacheHits and CacheMisses count verdict-cache lookups; a hit
	// skips disassembly, lifting and matching entirely.
	// WitnessRejected counts frames resolved with no lookup: no
	// template's byte witness holds in them and no data-level detector
	// fires, so their verdict is empty without a decode
	// (sem.Analyzer.Screen). With the cache on, Frames = CacheHits +
	// CacheMisses + WitnessRejected.
	CacheHits, CacheMisses, WitnessRejected uint64

	// FlowsEvictedIdle and FlowsEvictedLRU count tick evictions (the
	// evicted flows' unanalyzed tails were analyzed first).
	// FlowsEvictedUDPIdle counts datagram flows expired by the
	// dedicated datagram idle window (DatagramIdleUS tighter than
	// FlowIdleTimeoutUS).
	FlowsEvictedIdle, FlowsEvictedLRU, FlowsEvictedUDPIdle uint64

	// CacheRejected counts inserts the verdict cache's TinyLFU
	// admission policy refused (one-shot payloads kept from churning
	// hot entries).
	CacheRejected uint64

	// SweepStarts counts the sweep offsets the semantic analyzer
	// considered on cache misses, SweepStartsLifted those it lifted
	// and matched; the rest were skipped by the sweep-start viability
	// pass (sem.Analyzer.SweepStats).
	SweepStarts, SweepStartsLifted uint64

	// Sketches counts structural-fingerprint computations (lineage
	// mode: detected frames emulated and sketched; cache hits reuse
	// the memoized sketch and are not counted).
	Sketches uint64

	// SketchAttempts counts the emulation attempts those sketches made
	// from sweep offsets, and the other three how they ended: run to a
	// stop or an emulator error, merged into an earlier attempt over
	// the same frame, or cut off at the step limit; SketchAttempts =
	// SketchAttemptsRun + SketchAttemptsMerged +
	// SketchAttemptsStepLimit (sem.Analyzer.SketchAttempts).
	SketchAttempts, SketchAttemptsRun, SketchAttemptsMerged, SketchAttemptsStepLimit uint64

	// SearchesExhausted counts template searches the analyzer's
	// backtracking budget cut off; each counted as no match
	// (sem.Analyzer.SearchesExhausted).
	SearchesExhausted uint64

	// FlowsActive and BufferedBytes are gauges summed over shards;
	// CacheEntries is the verdict cache's current size.
	// UDPFlowsActive and UDPBufferedBytes are the datagram-flow subset
	// of those gauges (zero with DatagramFlows off).
	FlowsActive      int
	BufferedBytes    int
	UDPFlowsActive   int
	UDPBufferedBytes int
	CacheEntries     int

	// Shards holds per-shard load gauges, indexed by shard id — the
	// overload early-warning: queue depth climbing toward capacity
	// (or EWMA throughput flattening) is visible before Dropped
	// increments.
	Shards []ShardMetrics
}

// ShardMetrics is one shard's load view.
type ShardMetrics struct {
	// QueueLen counts the packets currently dispatched to the shard
	// and not yet processed (including the batch in progress);
	// QueueCap is the configured QueueDepth.
	QueueLen, QueueCap int

	// PacketsPerSec is an exponentially-weighted moving average of the
	// shard's processing rate in trace time, updated at each lifecycle
	// tick.
	PacketsPerSec float64
}

// Engine is a running streaming detector. Feed packets with Process
// (or the public wrappers) from one goroutine; analysis runs on the
// shard goroutines.
type Engine struct {
	cfg        Config
	classifier *classify.Classifier
	analyzer   *sem.Analyzer
	cache      *verdictCache
	shards     []*shard

	// feeder is the default ingestion handle behind Engine.Process;
	// parallel capture loops create their own with NewFeeder. feedMu
	// serializes its batching state so Drain/Stop (which flush it) can
	// run concurrently with a Process loop, as they always could — an
	// uncontended lock costs nanoseconds against the per-packet
	// classification work.
	feedMu sync.Mutex
	feeder *Feeder

	mu     sync.Mutex
	alerts []core.Alert

	stopOnce sync.Once
	stopped  atomic.Bool

	m struct {
		packets, selected, dropped          atomic.Uint64
		unparsed                            atomic.Uint64
		streams, frames, frameBytes, alerts atomic.Uint64
		cacheHits, cacheMisses              atomic.Uint64
		witnessRejected                     atomic.Uint64
		evictedIdle, evictedLRU             atomic.Uint64
		evictedDgram                        atomic.Uint64
		sketches                            atomic.Uint64
	}

	// tel holds the hot-path telemetry handles. The registry itself
	// mostly bridges the m counters via scrape-time funcs; only the
	// latency histograms are written from the packet path, and each
	// write is a handful of atomic adds (0 allocs, pinned by
	// TestEngineTelemetryAllocs).
	tel struct {
		reg *telemetry.Registry

		// ingestNS: batch first-append to batch fully analyzed (the
		// ingest→verdict pipeline latency, batch-amortized so the hot
		// path pays one clock read per batch, not per packet).
		// dispatchWaitNS: time a feeder spent blocked handing a batch
		// to a full shard queue (backpressure wait; ~0 when healthy).
		// frameNS: one semantic analysis of one frame (cache misses
		// and uncached runs; hits and witness-rejected frames bypass
		// analysis and the clock).
		ingestNS       *telemetry.Histogram
		dispatchWaitNS *telemetry.Histogram
		frameNS        *telemetry.Histogram
	}
}

// DefaultSensorID is Config.SensorID's default.
const DefaultSensorID = "sensor"

// New builds and starts an engine: its shard goroutines run until
// Stop.
func New(cfg Config) *Engine {
	if cfg.SensorID == "" {
		cfg.SensorID = DefaultSensorID
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.BatchSize > cfg.QueueDepth {
		cfg.BatchSize = cfg.QueueDepth
	}
	if cfg.FlowIdleTimeoutUS == 0 {
		cfg.FlowIdleTimeoutUS = 60e6
	}
	if cfg.DatagramIdleUS == 0 {
		cfg.DatagramIdleUS = cfg.FlowIdleTimeoutUS
	}
	if cfg.TickIntervalUS == 0 {
		cfg.TickIntervalUS = 1e6
	}
	if cfg.ShardByteBudget <= 0 {
		cfg.ShardByteBudget = 64 << 20
	}
	if cfg.MinAnalyzeBytes <= 0 {
		cfg.MinAnalyzeBytes = 256
	}
	if cfg.FullScan {
		cfg.Classify.Disabled = true
	}
	if cfg.Templates == nil {
		cfg.Templates = sem.BuiltinTemplates()
	}
	e := &Engine{
		cfg:        cfg,
		classifier: classify.New(cfg.Classify),
		analyzer:   sem.NewAnalyzer(cfg.Templates),
	}
	if cfg.FullScan {
		e.analyzer.SweepOffsets = []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	if cfg.VerdictCacheSize >= 0 {
		size := cfg.VerdictCacheSize
		if size == 0 {
			size = 8192
		}
		e.cache = newVerdictCache(size)
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	e.registerTelemetry()
	for _, s := range e.shards {
		go s.run()
	}
	e.feeder = e.NewFeeder()
	return e
}

// registerTelemetry installs the engine's metric series. Counters the
// engine already maintains are bridged with scrape-time funcs (zero
// hot-path cost); only the latency histograms are recorded inline.
func (e *Engine) registerTelemetry() {
	if e.cfg.Telemetry == nil {
		e.cfg.Telemetry = telemetry.NewRegistry()
	}
	reg := e.cfg.Telemetry
	e.tel.reg = reg

	cf := func(name, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, help, v.Load)
	}
	cf("semnids_engine_packets_total", "Packets offered to the engine.", &e.m.packets)
	cf("semnids_engine_selected_total", "Packets passing classification into shard analysis.", &e.m.selected)
	cf("semnids_engine_dropped_total", "Packets shed under overload (PolicyShed).", &e.m.dropped)
	cf("semnids_engine_unparsed_frames_total", "Frames the packet parser rejected (never offered as packets).", &e.m.unparsed)
	cf("semnids_engine_streams_analyzed_total", "Stream views handed to extraction+analysis.", &e.m.streams)
	cf("semnids_engine_frames_total", "Frames extracted and resolved.", &e.m.frames)
	cf("semnids_engine_frame_bytes_total", "Bytes across resolved frames.", &e.m.frameBytes)
	cf("semnids_engine_alerts_total", "Deduplicated detections emitted.", &e.m.alerts)
	cf("semnids_engine_cache_hits_total", "Verdict-cache hits (analysis skipped).", &e.m.cacheHits)
	cf("semnids_engine_cache_misses_total", "Verdict-cache misses (analysis ran).", &e.m.cacheMisses)
	cf("semnids_engine_witness_rejected_total", "Frames resolved empty with no decode and no cache lookup: no template's byte witness holds.", &e.m.witnessRejected)
	cf(`semnids_engine_flows_evicted_total{reason="idle"}`, "Flows evicted by lifecycle ticks.", &e.m.evictedIdle)
	cf(`semnids_engine_flows_evicted_total{reason="lru"}`, "Flows evicted by lifecycle ticks.", &e.m.evictedLRU)
	if e.cfg.DatagramFlows {
		cf(`semnids_engine_flows_evicted_total{reason="udp-idle"}`, "Datagram flows expired by the datagram idle window.", &e.m.evictedDgram)
	}
	if e.cfg.Lineage {
		cf("semnids_lineage_sketches_total", "Structural-fingerprint computations (detected frames sketched).", &e.m.sketches)
	}
	if e.cache != nil {
		reg.CounterFunc("semnids_engine_cache_rejected_total", "Verdict-cache inserts refused by TinyLFU admission.", e.cache.rejects)
		reg.GaugeFunc("semnids_engine_cache_entries", "Verdict-cache occupancy.", func() int64 { return int64(e.cache.len()) })
	}
	reg.GaugeFunc("semnids_engine_flows_active", "Tracked flows summed over shards.", func() int64 {
		var n int64
		for _, s := range e.shards {
			n += s.flows.Load()
		}
		return n
	})
	reg.GaugeFunc("semnids_engine_buffered_bytes", "Reassembly bytes buffered, summed over shards.", func() int64 {
		var n int64
		for _, s := range e.shards {
			n += s.bytes.Load()
		}
		return n
	})
	if e.cfg.DatagramFlows {
		reg.GaugeFunc("semnids_engine_udp_flows_active", "Tracked datagram flows summed over shards.", func() int64 {
			var n int64
			for _, s := range e.shards {
				n += s.dgramFlows.Load()
			}
			return n
		})
		reg.GaugeFunc("semnids_engine_udp_buffered_bytes", "Datagram-flow bytes buffered, summed over shards.", func() int64 {
			var n int64
			for _, s := range e.shards {
				n += s.dgramBytes.Load()
			}
			return n
		})
	}
	for _, s := range e.shards {
		s := s
		id := strconv.Itoa(s.id)
		reg.GaugeFunc(`semnids_engine_shard_queue_depth{shard="`+id+`"}`,
			"Packets dispatched to the shard and not yet analyzed.", s.queued.Load)
		reg.GaugeFunc(`semnids_engine_shard_pps{shard="`+id+`"}`,
			"EWMA shard processing rate, packets per trace-second.", func() int64 {
				return int64(math.Float64frombits(s.ewmaPPS.Load()))
			})
	}
	e.tel.ingestNS = reg.Histogram("semnids_engine_ingest_latency_ns",
		"Batch first-packet to batch fully analyzed (ingest-to-verdict).")
	e.tel.dispatchWaitNS = reg.Histogram("semnids_engine_dispatch_wait_ns",
		"Feeder blocked handing a batch to a full shard queue (backpressure).")
	reg.CounterFunc("semnids_analyzer_sweep_starts_total", "Sweep start offsets the semantic analyzer considered.", func() uint64 {
		n, _ := e.analyzer.SweepStats()
		return n
	})
	reg.CounterFunc("semnids_analyzer_sweep_starts_lifted_total", "Sweep starts lifted and matched (the rest were pruned as not viable).", func() uint64 {
		_, n := e.analyzer.SweepStats()
		return n
	})
	reg.CounterFunc("semnids_analyzer_search_exhausted_total", "Template searches cut off by the backtracking budget (counted as no match).", e.analyzer.SearchesExhausted)
	for i, outcome := range []string{"run", "merged", "step_limit"} {
		reg.CounterFunc(`semnids_sketch_attempts_total{outcome="`+outcome+`"}`,
			"Decoded-tail emulation attempts by how they ended.", func() uint64 {
				var n [3]uint64
				_, n[0], n[1], n[2] = e.analyzer.SketchAttempts()
				return n[i]
			})
	}
	e.tel.frameNS = reg.Histogram("semnids_analyzer_frame_ns",
		"One semantic analysis of one extracted frame (decoded frames: cache misses only).")
}

// Telemetry returns the engine's metric registry (the configured one,
// or the private default).
func (e *Engine) Telemetry() *telemetry.Registry { return e.cfg.Telemetry }

// Classifier exposes the shared classification stage (e.g. to
// pre-register suspicious sources).
func (e *Engine) Classifier() *classify.Classifier { return e.classifier }

// SensorID returns the engine's federation identity (Config.SensorID
// after defaulting).
func (e *Engine) SensorID() string { return e.cfg.SensorID }

// FlowHash maps a directional flow key to a bucket in [0, n) — the
// engine's shard-ownership function, exported so parallel capture
// loops can partition packets across Feeders with the same flow
// affinity the shards use. The key is mixed five 64-bit words at a
// time, a multiply and a fold each, and finished so n sees every bit.
func FlowHash(k netpkt.FlowKey, n int) int {
	const m = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	src, dst := k.SrcIP.As16(), k.DstIP.As16()
	h := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	for _, w := range [4]uint64{
		binary.LittleEndian.Uint64(src[:8]), binary.LittleEndian.Uint64(src[8:]),
		binary.LittleEndian.Uint64(dst[:8]), binary.LittleEndian.Uint64(dst[8:]),
	} {
		h = (h ^ w) * m
		h ^= h >> 32
	}
	h *= m
	h ^= h >> 29
	return int(h % uint64(n))
}

// shardIndex maps a flow to its owning shard, so every packet of a
// flow is handled by one goroutine in arrival order.
func shardIndex(k netpkt.FlowKey, n int) int {
	if n == 1 {
		return 0
	}
	return FlowHash(k, n)
}

// Process offers one parsed packet to the engine, which consumes it
// (see Feeder.Process). Call from a single goroutine (the capture or
// replay loop) — or use per-goroutine Feeders from NewFeeder for
// parallel ingestion. Packets offered after Stop are ignored.
func (e *Engine) Process(p *netpkt.Packet) {
	e.feedMu.Lock()
	e.feeder.Process(p)
	e.feedMu.Unlock()
}

// ProcessFrame offers one raw Ethernet frame through the default
// feeder (see Feeder.ProcessFrame): the capture loop's entry point.
func (e *Engine) ProcessFrame(frame []byte, tsUS uint64) error {
	e.feedMu.Lock()
	defer e.feedMu.Unlock()
	return e.feeder.ProcessFrame(frame, tsUS)
}

// Drain dispatches the default feeder's buffered batches, waits for
// every queued packet to be analyzed, then analyzes the unfinished
// tail of every in-progress flow and resets per-flow state. The
// engine stays live: the next trace (or the next packet of live
// capture) can follow immediately.
// Callers feeding through their own Feeders must Flush each of them
// first. No-op after Stop.
func (e *Engine) Drain() {
	if e.stopped.Load() {
		return
	}
	e.feedMu.Lock()
	e.feeder.Flush()
	e.feedMu.Unlock()
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	c := &ctl{wg: &wg}
	for _, s := range e.shards {
		s.in <- shardMsg{ctl: c}
	}
	wg.Wait()
}

// Stop dispatches buffered batches, drains in-flight work, analyzes
// remaining flow tails, and terminates the shard goroutines.
// Idempotent and safe to call concurrently with alert and metric
// reads. Feeders created with NewFeeder must not be fed during Stop
// (their Flush afterwards is safe: batches are recycled, not sent).
func (e *Engine) Stop() {
	e.stopOnce.Do(func() {
		e.feedMu.Lock()
		e.feeder.Flush()
		e.stopped.Store(true)
		e.feedMu.Unlock()
		for _, s := range e.shards {
			close(s.in)
		}
		for _, s := range e.shards {
			<-s.done
		}
	})
}

// Alerts returns all alerts recorded so far (arrival order; complete
// for a trace after Drain or Stop).
func (e *Engine) Alerts() []core.Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]core.Alert, len(e.alerts))
	copy(out, e.alerts)
	return out
}

// Snapshot returns current counters and gauges.
func (e *Engine) Snapshot() Metrics {
	m := Metrics{
		Packets:             e.m.packets.Load(),
		Selected:            e.m.selected.Load(),
		Dropped:             e.m.dropped.Load(),
		Unparsed:            e.m.unparsed.Load(),
		StreamsAnalyzed:     e.m.streams.Load(),
		Frames:              e.m.frames.Load(),
		FrameBytes:          e.m.frameBytes.Load(),
		Alerts:              e.m.alerts.Load(),
		CacheHits:           e.m.cacheHits.Load(),
		CacheMisses:         e.m.cacheMisses.Load(),
		WitnessRejected:     e.m.witnessRejected.Load(),
		FlowsEvictedIdle:    e.m.evictedIdle.Load(),
		FlowsEvictedLRU:     e.m.evictedLRU.Load(),
		FlowsEvictedUDPIdle: e.m.evictedDgram.Load(),
		Sketches:            e.m.sketches.Load(),
	}
	m.SweepStarts, m.SweepStartsLifted = e.analyzer.SweepStats()
	m.SketchAttempts, m.SketchAttemptsRun, m.SketchAttemptsMerged, m.SketchAttemptsStepLimit = e.analyzer.SketchAttempts()
	m.SearchesExhausted = e.analyzer.SearchesExhausted()
	m.Shards = make([]ShardMetrics, len(e.shards))
	for i, s := range e.shards {
		m.FlowsActive += int(s.flows.Load())
		m.BufferedBytes += int(s.bytes.Load())
		m.UDPFlowsActive += int(s.dgramFlows.Load())
		m.UDPBufferedBytes += int(s.dgramBytes.Load())
		// queued accounting is exact: incremented before a batch is
		// sent, decremented per packet as each completes, so the load
		// is never negative and needs no clamp.
		m.Shards[i] = ShardMetrics{
			QueueLen:      int(s.queued.Load()),
			QueueCap:      e.cfg.QueueDepth,
			PacketsPerSec: math.Float64frombits(s.ewmaPPS.Load()),
		}
	}
	if e.cache != nil {
		m.CacheEntries = e.cache.len()
		m.CacheRejected = e.cache.rejects()
	}
	return m
}
