// Package nids is the public API of semnids, a from-scratch Go
// reproduction of the semantics-aware network intrusion detection
// system of Scheirer & Chuah, "Network Intrusion Detection with
// Semantics-Aware Capability" (IPPS 2006).
//
// The system segregates suspicious traffic from the regular flow
// (honeypot decoys and dark-address-space scan detection), extracts
// binary data from suspicious payloads, disassembles it, lifts it to
// an intermediate representation, and matches behavioral templates —
// detecting polymorphic decryption loops, Linux shell-spawning
// payloads (including port-binding shells), and the Code Red II
// exploitation vector without any reliance on static byte signatures.
//
// Quick start:
//
//	e, err := nids.NewEngine(nids.EngineConfig{Config: nids.Config{
//		Honeypots: []string{"192.168.1.250"},
//		DarkSpace: []string{"192.168.2.0/24"},
//	}})
//	...
//	e.ProcessFrame(ethernetFrame, timestampMicros)
//	e.Stop()
//	for _, alert := range e.Alerts() { ... }
//
// ProcessFrame borrows the frame: it is parsed and classified where it
// lies and copied only if classification selects it, so the buffer is
// the caller's again when the call returns and a discarded packet costs
// a header parse. A whole capture — classic pcap with microsecond or
// nanosecond timestamps, or pcapng — goes through Run instead, frame
// by frame over the same path. The engine outlives a trace: Drain
// completes in-progress analysis and keeps it live, Stop ends it.
// Incidents are read with Engine.Incidents; of the correlation
// parameters only the fan-out window is set here (IncidentWindow), the
// others keep their incident.Params defaults. Likewise the engine's
// queue depth, flow idle timeout, per-shard byte budget and verdict
// cache size are internal/engine's defaults, and every Engine records
// into a metrics registry of its own (Engine.Telemetry).
package nids

import (
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/extract"
	"semnids/internal/fed"
	"semnids/internal/fed/transport"
	"semnids/internal/incident"
	"semnids/internal/lineage"
	"semnids/internal/netpkt"
	"semnids/internal/sem"
	"semnids/internal/telemetry"
)

// Alert is one detection event attributed to a network flow.
type Alert = core.Alert

// Detection describes the matched template within an alert.
type Detection = sem.Detection

// Config configures a detector.
type Config struct {
	// Honeypots lists decoy host addresses (e.g. "192.168.1.250").
	// Any source sending traffic to a decoy becomes suspicious.
	Honeypots []string

	// DarkSpace lists un-used CIDR prefixes (e.g. "192.168.2.0/24").
	// A source probing ScanThreshold distinct dark addresses becomes
	// suspicious.
	DarkSpace []string

	// ScanThreshold is the dark-space threshold t (default 3).
	ScanThreshold int

	// DisableClassification analyzes every packet payload (the
	// paper's Section 5.4 false-positive experiment configuration).
	DisableClassification bool

	// FullScan additionally disables binary extraction pruning and
	// widens disassembly offsets — the exhaustive whole-input
	// baseline used for efficiency comparisons.
	FullScan bool

	// TemplatesDSL, when non-empty, replaces the built-in template
	// set with templates parsed from the text format (see
	// internal/sem's DSL documentation). Lets operators describe new
	// behaviors without recompiling.
	TemplatesDSL string

	// OnAlert, when non-nil, is invoked for each alert as it fires
	// (from shard goroutines).
	OnAlert func(Alert)
}

// pipeline translates the public configuration into the engine's
// classifier config and template set.
func (cfg Config) pipeline() (classify.Config, []*sem.Template, error) {
	var ccfg classify.Config
	for _, h := range cfg.Honeypots {
		a, err := netip.ParseAddr(h)
		if err != nil {
			return ccfg, nil, fmt.Errorf("nids: bad honeypot address %q: %w", h, err)
		}
		ccfg.Honeypots = append(ccfg.Honeypots, a)
	}
	for _, d := range cfg.DarkSpace {
		p, err := netip.ParsePrefix(d)
		if err != nil {
			return ccfg, nil, fmt.Errorf("nids: bad dark-space prefix %q: %w", d, err)
		}
		ccfg.DarkSpace = append(ccfg.DarkSpace, p)
	}
	ccfg.ScanThreshold = cfg.ScanThreshold
	ccfg.Disabled = cfg.DisableClassification

	tpls := sem.BuiltinTemplates()
	if cfg.TemplatesDSL != "" {
		parsed, err := sem.ParseTemplates(strings.NewReader(cfg.TemplatesDSL))
		if err != nil {
			return ccfg, nil, fmt.Errorf("nids: templates: %w", err)
		}
		tpls = parsed
	}
	return ccfg, tpls, nil
}

// builtinAnalyzer is the analyzer over the builtin template set that
// AnalyzeBytes and AnalyzePayload share, built on first use. It holds
// only configuration, so concurrent calls are safe.
var builtinAnalyzer = sync.OnceValue(func() *sem.Analyzer {
	return sem.NewAnalyzer(sem.BuiltinTemplates())
})

// AnalyzeBytes runs only the semantic stages (disassembler, IR,
// template matcher) over a binary — the host-scan mode used for
// on-disk samples such as the Netsky binaries in the paper's
// efficiency comparison.
func AnalyzeBytes(data []byte) []Detection {
	return builtinAnalyzer().AnalyzeFrame(data)
}

// AnalyzePayload runs extraction plus the semantic stages over one
// application-layer payload, returning the union of detections, at
// most one per template name.
func AnalyzePayload(payload []byte) []Detection {
	a := builtinAnalyzer()
	var out []Detection
	seen := make(map[string]bool)
	for _, f := range extract.Extract(payload) {
		for _, d := range a.AnalyzeFrame(f.Data) {
			if !seen[d.Template] {
				seen[d.Template] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// EngineMetrics reports streaming-engine counters and gauges.
type EngineMetrics = engine.Metrics

// EngineConfig configures a streaming Engine: the detector settings
// plus the sharding, lifecycle and overload knobs.
type EngineConfig struct {
	Config

	// Shards is the number of ingest shards, each owning its slice of
	// the flow space (default: number of CPUs).
	Shards int

	// ShedOnOverload drops packets (counted in EngineMetrics.Dropped)
	// when a shard queue is full instead of blocking ingestion.
	ShedOnOverload bool

	// DatagramFlows buffers UDP payloads per 5-tuple conversation
	// (request and reply share one flow) inside an idle window, so
	// multi-datagram payloads — CoAP block-wise transfers in
	// particular — are reassembled and analyzed as one unit with their
	// datagram boundaries preserved. Off (the default), every
	// payload-bearing datagram is analyzed on its own and all reports
	// are byte-identical to previous builds.
	DatagramFlows bool

	// DatagramIdle is the idle window closing a datagram conversation
	// (its buffered tail is analyzed on eviction). Defaults to the 60 s
	// flow idle timeout; values above it are ignored — the flow-wide
	// idle sweep fires first.
	DatagramIdle time.Duration

	// Correlate attaches the streaming incident correlator: shard
	// events feed per-source kill-chain state machines
	// (RECON → EXPLOIT → PROPAGATION), readable live via Incidents.
	Correlate bool

	// Lineage enables payload lineage tracing (requires Correlate):
	// detected frames are structurally fingerprinted (matched-template
	// identity, decode-chain statement multiset, emulator-decoded
	// tail), the correlator accepts structural matches for PROPAGATION
	// — so a polymorphic worm that re-encodes itself at every hop
	// still closes the kill chain — and folds each sketched alert or
	// fingerprint event into its lineage set (at most 4 096 payloads,
	// the smallest witnesses kept), from which Ancestry reconstructs
	// infection trees. Lineage observations federate in evidence
	// exports ("lin" wire records) with the same commutative,
	// idempotent merge as all other evidence; a sensor without Lineage
	// ignores the ones it imports. Off by default: with Lineage false,
	// events carry no sketch and every detection, report and export is
	// byte-identical to previous builds.
	Lineage bool

	// IncidentWindow is the sliding trace-time window for the
	// correlator's destination fan-out (default 30s).
	IncidentWindow time.Duration

	// SensorID names this engine in exported incident evidence
	// (cross-sensor federation provenance; default
	// engine.DefaultSensorID). Give every sensor in a federation a
	// distinct ID.
	SensorID string

	// IncidentExportDir, when non-empty, attaches a durable evidence
	// sink (requires Correlate): the correlator's evidence is
	// checkpointed to size/age-rotated segment files in this directory
	// — non-blocking from the notify path, plus a periodic safety
	// net — and on startup the newest complete segment is reloaded, so
	// a restarted sensor resumes with its attacker state intact.
	IncidentExportDir string

	// Export is the sink's rotation, checkpoint and retention policy.
	// KeepSegments is also the push spool bound: segments pruned before
	// they were acked are dropped evidence (counted in
	// SinkStats().Push.Dropped).
	Export SinkRetention

	// Push, when it lists URLs, streams committed evidence segments to
	// federation aggregators (cmd/fedagg, or any transport.Aggregator)
	// in failover order, with retry/backoff and spool-and-forward
	// degradation: the sink's segment directory is the spool, so an
	// unreachable aggregator costs lag, never ingest throughput.
	// Requires Correlate and IncidentExportDir.
	Push PushUpstream
}

// TelemetryRegistry is the process-wide metrics registry: atomic
// counters and gauges plus fixed-size log-bucketed latency histograms,
// allocation-free on the record path. See internal/telemetry.
type TelemetryRegistry = telemetry.Registry

// Incident is one source's correlated kill-chain activity.
type Incident = incident.Incident

// IncidentStage is a kill-chain position (RECON, EXPLOIT,
// PROPAGATION).
type IncidentStage = incident.Stage

// Kill-chain stages, re-exported for switch statements on
// Incident.Stage.
const (
	StageNone        = incident.StageNone
	StageRecon       = incident.StageRecon
	StageExploit     = incident.StageExploit
	StagePropagation = incident.StagePropagation
)

// IncidentMetrics reports correlator counters and gauges.
type IncidentMetrics = incident.Metrics

// EvidenceExport is a sensor's (or a merge's) incident evidence
// snapshot — the unit of cross-sensor federation.
type EvidenceExport = incident.EvidenceExport

// SinkMetrics reports durable evidence-sink counters plus — when push
// URLs are configured — the push transport's health: segments
// pushed/acked/retried/spooled, drops where prune outran push, and
// the current backoff state.
type SinkMetrics struct {
	fed.SinkMetrics

	// Push is the push-transport snapshot (zero value without push
	// URLs).
	Push PushMetrics
}

// SinkRetention is the durable sink's segment policy. See
// fed.Retention.
type SinkRetention = fed.Retention

// PushUpstream names the aggregators evidence is pushed to and the
// retry policy toward them. See transport.Upstream.
type PushUpstream = transport.Upstream

// PushMetrics reports federation push-transport counters and health
// gauges. See transport.PushMetrics.
type PushMetrics = transport.PushMetrics

// LineageObservation is one distinct hostile payload's lineage record:
// exact wire identity, structural family identity (decoded tail), and
// first witnessed delivery.
type LineageObservation = lineage.Observation

// AncestryTree is one reconstructed infection tree within a payload
// family.
type AncestryTree = lineage.Tree

// AncestryNode is one host in an ancestry tree.
type AncestryNode = lineage.TreeNode

// TraceAncestry reconstructs ancestry trees from an evidence export's
// lineage observations — a pure function, so a merged export renders
// the same forest on every aggregator. Empty without lineage records.
func TraceAncestry(ex *EvidenceExport) []AncestryTree { return lineage.Trace(ex.Lineage) }

// MergeEvidence federates two evidence exports: a join — commutative,
// associative, idempotent, provenance-preserving. See fed.Merge.
func MergeEvidence(a, b *EvidenceExport) (*EvidenceExport, error) { return fed.Merge(a, b) }

// ReadEvidence decodes an evidence export from the versioned wire
// format (the newest committed checkpoint, for sink segments).
func ReadEvidence(r io.Reader) (*EvidenceExport, error) { return fed.ReadExport(r) }

// WriteEvidence encodes an evidence export in the versioned wire
// format.
func WriteEvidence(w io.Writer, ex *EvidenceExport) error { return fed.WriteExport(w, ex) }

// DeriveIncidents renders an evidence export's incident set exactly
// as a live correlator holding the same evidence would. Errors on an
// export with unusable correlation parameters (hand-built; decoded
// exports are validated at read time).
func DeriveIncidents(ex *EvidenceExport) ([]Incident, error) { return incident.DeriveIncidents(ex) }

// Engine is a continuously-running streaming detector: sharded
// ingestion, bounded flow state with eviction, and verdict caching.
// It survives beyond a single trace — Drain flushes in-progress flows
// and keeps it live; only Stop terminates it. Feed from one goroutine.
type Engine struct {
	inner *engine.Engine
	corr  *incident.Correlator

	// linDepth/linLinks are the ancestry tracer's telemetry, recorded
	// each time an ancestry forest is derived; linDepth is nil without
	// Lineage.
	linDepth *telemetry.Histogram
	linLinks atomic.Uint64

	// sink persists correlator evidence when IncidentExportDir is
	// configured. Set once late in NewEngine and read from the
	// correlator goroutine's notify hook, hence the atomic: the
	// correlator must exist first (the sink snapshots it and recovery
	// imports into it).
	sink   atomic.Pointer[fed.Sink]
	sensor string

	// push streams committed sink segments to the aggregators when
	// Push lists URLs; nil otherwise.
	push *transport.Pusher

	// tel is the registry shared by every layer of this engine;
	// health backs the /healthz readiness checks ("engine" flips
	// not-ready on Stop, "spool" records the recovery outcome).
	tel    *telemetry.Registry
	health *telemetry.Health
}

// NewEngine validates the configuration and starts a streaming
// engine (and, with Correlate set, its incident correlator).
func NewEngine(cfg EngineConfig) (*Engine, error) {
	ccfg, tpls, err := cfg.Config.pipeline()
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.Lineage && !cfg.Correlate:
		return nil, fmt.Errorf("nids: Lineage requires Correlate (lineage observations ride the correlator's event feed and evidence exports)")
	case len(cfg.Push.URLs) > 0 && (!cfg.Correlate || cfg.IncidentExportDir == ""):
		return nil, fmt.Errorf("nids: Push requires Correlate and IncidentExportDir (the sink's segment directory is the push spool)")
	case cfg.IncidentExportDir != "" && !cfg.Correlate:
		return nil, fmt.Errorf("nids: IncidentExportDir requires Correlate (the sink persists the correlator's evidence)")
	case cfg.DatagramIdle < 0, cfg.IncidentWindow < 0:
		return nil, fmt.Errorf("nids: durations must not be negative (DatagramIdle %v, IncidentWindow %v)",
			cfg.DatagramIdle, cfg.IncidentWindow)
	}
	tel := telemetry.NewRegistry()
	ecfg := engine.Config{
		Classify:       ccfg,
		Templates:      tpls,
		Shards:         cfg.Shards,
		DatagramFlows:  cfg.DatagramFlows,
		DatagramIdleUS: uint64(cfg.DatagramIdle / time.Microsecond),
		FullScan:       cfg.FullScan,
		Lineage:        cfg.Lineage,
		OnAlert:        cfg.OnAlert,
		SensorID:       cfg.SensorID,
		Telemetry:      tel,
	}
	if cfg.ShedOnOverload {
		ecfg.Overload = engine.PolicyShed
	}
	e := &Engine{tel: tel, health: telemetry.NewHealth()}
	e.health.Set("engine", true, "running")
	if cfg.Correlate {
		// The notify hook reaches the sink through an atomic holder:
		// the correlator must exist first (the sink snapshots it and
		// recovery imports into it), so the first notifications may
		// precede the sink — they are covered by the sink's periodic
		// checkpoint and final Close snapshot.
		e.corr = incident.New(incident.Config{
			Params:    incident.Params{WindowUS: uint64(cfg.IncidentWindow / time.Microsecond)},
			Telemetry: tel,
			OnIncident: func(Incident) {
				if s := e.sink.Load(); s != nil {
					s.Notify()
				}
			},
		})
		ecfg.OnEvent = e.corr.Publish
	}
	e.inner = engine.New(ecfg)
	e.sensor = e.inner.SensorID()
	if cfg.Lineage {
		tel.CounterFunc("semnids_lineage_observations_total", "Lineage observations folded into the correlator's lineage set.",
			func() uint64 { return e.corr.Metrics().LineageObservations })
		tel.GaugeFunc("semnids_lineage_tracked", "Distinct payloads tracked in the correlator's lineage set.",
			func() int64 { return int64(e.corr.Metrics().LineageTracked) })
		e.linDepth = tel.Histogram("semnids_lineage_ancestry_depth",
			"Maximum depth of each reconstructed ancestry tree (root = 0).")
		tel.CounterFunc("semnids_lineage_links_total",
			"Parent→child infection links derived across all ancestry computations.", e.linLinks.Load)
	}
	if cfg.IncidentExportDir == "" {
		e.health.Set("spool", true, "no export dir")
		return e, nil
	}
	e.health.Set("spool", false, "recovering")
	if rec, err := fed.Recover(cfg.IncidentExportDir); err != nil {
		e.shutdownPartial()
		return nil, fmt.Errorf("nids: incident recovery: %w", err)
	} else if rec != nil {
		if err := e.importEvidence(rec); err != nil {
			// Most likely correlation-parameter skew: the durable
			// evidence was gathered under different window/caps.
			// Refuse to start rather than silently discard it — the
			// operator decides whether to restore the previous
			// parameters or retire the old evidence directory.
			e.shutdownPartial()
			return nil, fmt.Errorf("nids: incident recovery from %s: %w (restore the previous correlation parameters, or move the directory aside to start fresh)",
				cfg.IncidentExportDir, err)
		}
	}
	sink, err := fed.OpenSink(fed.SinkConfig{Dir: cfg.IncidentExportDir, Retention: cfg.Export, Export: e.exportEvidence, Telemetry: tel})
	if err != nil {
		e.shutdownPartial()
		return nil, fmt.Errorf("nids: incident sink: %w", err)
	}
	e.sink.Store(sink)
	e.health.Set("spool", true, "recovered")
	if len(cfg.Push.URLs) > 0 {
		push, err := transport.NewPusher(transport.PusherConfig{Dir: cfg.IncidentExportDir, Upstream: cfg.Push, Telemetry: tel})
		if err != nil {
			e.shutdownPartial()
			return nil, fmt.Errorf("nids: push transport: %w", err)
		}
		e.push = push
	}
	return e, nil
}

// shutdownPartial tears down a half-built engine on a NewEngine error
// path so its shard and correlator goroutines do not leak.
func (e *Engine) shutdownPartial() {
	e.inner.Stop()
	if e.corr != nil {
		e.corr.Stop()
	}
	if s := e.sink.Load(); s != nil {
		s.Close()
	}
}

// ProcessFrame feeds one raw Ethernet frame with its capture
// timestamp (microseconds). Unparseable frames are counted
// (EngineMetrics.Unparsed) and reported as an error without stopping
// the engine. The frame is only borrowed: a selected packet is copied
// into the shard batch that then owns it, a discarded one never.
func (e *Engine) ProcessFrame(frame []byte, tsUS uint64) error {
	return e.inner.ProcessFrame(frame, tsUS)
}

// Run streams a capture (classic pcap or pcapng) through the engine
// as fast as it reads, then drains. Each frame goes through
// ProcessFrame as a view of the capture's read buffer: one ingest path.
// The engine remains live for the next capture or live traffic.
func (e *Engine) Run(r io.Reader) error {
	return e.feed(r, 0)
}

// Replay streams a capture through the engine paced by its capture
// timestamps: speed 1 replays in real time, 2 at double speed, and so
// on; speed <= 0 disables pacing (same as Run). Drains at EOF, so the
// engine's lifecycle ticks and alerts fire as they would on live
// traffic.
func (e *Engine) Replay(r io.Reader, speed float64) error {
	return e.feed(r, speed)
}

func (e *Engine) feed(r io.Reader, speed float64) error {
	tr, err := netpkt.NewTraceReader(r)
	if err != nil {
		return err
	}
	var (
		firstTS uint64
		start   time.Time // of the first frame; zero until then
	)
	for {
		frame, ts, err := tr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if speed > 0 {
			if start.IsZero() {
				firstTS, start = ts, time.Now()
			} else if ts > firstTS {
				due := start.Add(time.Duration(float64(ts-firstTS)/speed) * time.Microsecond)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
			}
		}
		// A rejected frame is counted, and a damaged trace reads on.
		_ = e.inner.ProcessFrame(frame, ts)
	}
	e.Drain()
	return nil
}

// Drain completes all queued analysis and the unfinished tail of
// every tracked flow, then resets flow state; with a correlator
// attached, all events published by that work are applied too. The
// engine stays live.
func (e *Engine) Drain() {
	e.inner.Drain()
	if e.corr != nil {
		e.corr.Flush()
	}
	if s := e.sink.Load(); s != nil {
		// Nudge a checkpoint now that the trace's full evidence is
		// applied — the natural durability point between traces.
		s.Notify()
	}
	if e.push != nil {
		// And a spool scan right behind it, so the fresh checkpoint
		// heads for the aggregator without waiting out the interval.
		e.push.Notify()
	}
}

// Stop drains and terminates the engine, any attached correlator,
// and the durable sink (which writes a final evidence checkpoint).
// Idempotent and safe alongside concurrent Alerts/Stats/Incidents
// reads.
func (e *Engine) Stop() {
	e.health.Set("engine", false, "stopped")
	e.inner.Stop()
	if e.corr != nil {
		e.corr.Stop()
	}
	if s := e.sink.Load(); s != nil {
		s.Close()
	}
	if e.push != nil {
		// After the sink's final checkpoint, so the pusher's closing
		// sweep offers the complete evidence to the aggregator.
		e.push.Close()
	}
}

// Alerts returns the alerts recorded so far (complete for a trace
// after Drain or Stop).
func (e *Engine) Alerts() []Alert { return e.inner.Alerts() }

// Stats returns engine counters and gauges.
func (e *Engine) Stats() EngineMetrics { return e.inner.Snapshot() }

// Telemetry returns the metrics registry every layer of this engine
// (shards, analyzer, correlator, sink, push transport) records into.
// NewEngine builds one per engine.
func (e *Engine) Telemetry() *TelemetryRegistry { return e.tel }

// TelemetryHandler returns the engine's observability surface —
// /metrics (Prometheus text), /statusz (JSON snapshot), /healthz,
// /debug/pprof — ready to mount on an http.Server (semnids -listen
// serves exactly this).
func (e *Engine) TelemetryHandler() http.Handler {
	telemetry.RegisterProcessMetrics(e.tel)
	return telemetry.NewMux(e.tel, e.health, e.statusInfo)
}

// WriteStatus writes the /statusz JSON document (one object, no
// trailing newline beyond the encoder's) — the encoder behind
// semnids -stats-interval.
func (e *Engine) WriteStatus(w io.Writer) error {
	return telemetry.WriteStatusJSON(w, e.tel, e.statusInfo())
}

func (e *Engine) statusInfo() map[string]any {
	return map[string]any{
		"sensor": e.sensor,
		"synced": e.PushSynced(),
	}
}

// Incidents returns the correlator's current incident set, ordered by
// stage, severity, then source — deterministic for a given trace
// whatever the shard count. Nil without Correlate.
func (e *Engine) Incidents() []Incident {
	if e.corr == nil {
		return nil
	}
	return e.corr.Incidents()
}

// Ancestry reconstructs the current infection forest from this
// engine's lineage observations (local plus imported): one tree per
// (payload family, patient zero), parent→child edges scored by
// structural corroboration. Deterministic for a given trace whatever
// the shard count or federation order. Nil without Lineage. Each call
// records tracer telemetry (links derived, ancestry-depth histogram).
func (e *Engine) Ancestry() []AncestryTree {
	if e.linDepth == nil {
		return nil
	}
	trees := lineage.Trace(e.corr.Lineage(e.sensor))
	var links uint64
	for _, t := range trees {
		e.linDepth.Observe(int64(t.MaxDepth))
		links += uint64(t.Edges())
	}
	e.linLinks.Add(links)
	return trees
}

// IncidentStats returns correlator counters and gauges (zero value
// without Correlate).
func (e *Engine) IncidentStats() IncidentMetrics {
	if e.corr == nil {
		return IncidentMetrics{}
	}
	return e.corr.Metrics()
}

// exportEvidence snapshots the full durable state of this sensor: the
// correlator's evidence plus the classifier's per-source state
// (sub-threshold dark-space scan sets, suspicious marks), so a
// restart restores selection behavior along with attacker evidence.
func (e *Engine) exportEvidence() *EvidenceExport {
	ex := e.corr.Export(e.sensor)
	ex.Classifier = append(ex.Classifier, e.inner.Classifier().ExportState()...)
	return ex
}

// ExportIncidents writes the correlator's current evidence state —
// every tracked source's min-K timestamp sets, fingerprints and
// derived stage, stamped with this engine's sensor ID — plus the
// classifier's per-source scan state, in the versioned wire format
// cmd/fedmerge and ImportIncidents consume. Errors without Correlate.
func (e *Engine) ExportIncidents(w io.Writer) error {
	if e.corr == nil {
		return fmt.Errorf("nids: ExportIncidents requires Correlate")
	}
	return fed.WriteExport(w, e.exportEvidence())
}

// ImportIncidents folds another sensor's evidence export (or a prior
// run's) into the live correlator: evidence sets union under the
// configured caps and cross-sensor propagation links are re-derived.
// The export must carry the same correlation parameters this engine
// runs with. Errors without Correlate.
func (e *Engine) ImportIncidents(r io.Reader) error {
	if e.corr == nil {
		return fmt.Errorf("nids: ImportIncidents requires Correlate")
	}
	ex, err := fed.ReadExport(r)
	if err != nil {
		return err
	}
	return e.importEvidence(ex)
}

// importEvidence folds an export into the correlator (its lineage
// observations only with Lineage on) and re-marks confirmed attackers
// in the classifier — the same state a live alert establishes
// (follow-on traffic from a confirmed attacker is always analyzed), so
// a restarted or seeded sensor keeps watching the sources its evidence
// has already convicted.
func (e *Engine) importEvidence(ex *EvidenceExport) error {
	if e.linDepth == nil && len(ex.Lineage) > 0 {
		cp := *ex
		cp.Lineage = nil
		ex = &cp
	}
	if err := e.corr.Import(ex); err != nil {
		return err
	}
	cl := e.inner.Classifier()
	for i := range ex.Sources {
		if rec := &ex.Sources[i]; rec.ExploitAtUS > 0 {
			cl.MarkSuspicious(rec.Src, rec.LastSeenUS)
		}
	}
	cl.ImportState(ex.Classifier)
	return nil
}

// SinkStats returns durable-sink counters (zero value when no
// IncidentExportDir is configured) plus push-transport health when
// push URLs are configured.
func (e *Engine) SinkStats() SinkMetrics {
	var m SinkMetrics
	if s := e.sink.Load(); s != nil {
		m.SinkMetrics = s.Metrics()
	}
	if e.push != nil {
		m.Push = e.push.Metrics()
	}
	return m
}

// PushSynced reports whether every committed evidence byte on disk has
// been acknowledged by the aggregator (false with no push URLs, and
// until the pusher's first completed scan).
func (e *Engine) PushSynced() bool {
	return e.push != nil && e.push.Synced()
}

// CheckpointIncidents writes one evidence checkpoint synchronously:
// it returns after the snapshot is framed, flushed and fsynced. Drain
// only *requests* a checkpoint (the sink never blocks the hot path),
// so a caller that needs the durability point before acting on it —
// waiting out a push with PushSynced, copying the segment directory —
// calls this first. No-op without IncidentExportDir.
func (e *Engine) CheckpointIncidents() error {
	s := e.sink.Load()
	if s == nil {
		return nil
	}
	if err := s.Checkpoint(); err != nil {
		return err
	}
	if e.push != nil {
		e.push.Notify()
	}
	return nil
}
