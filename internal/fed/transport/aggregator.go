// Package transport moves incident evidence from sensors to an
// aggregator over HTTP, engineered so every failure mode degrades
// gracefully instead of losing or duplicating evidence.
//
// The delivery contract is at-least-once transport composed with an
// idempotent, commutative fold (fed.Merge's, kept live in a
// fed.State): a sensor pushes each committed evidence segment until
// the aggregator acknowledges it, and the aggregator folds whatever
// arrives — duplicates, resends after lost acks, segments replayed
// across an aggregator restart — into the same deterministic state. At-least-once delivery plus
// idempotent merge yields exactly-once *effect* without any
// distributed bookkeeping: no sequence negotiation, no dedup window,
// no sensor registry. (The aggregator does remember hashes of frames
// it has folded, fed.State's memo, but only to skip work: losing the
// memo, or never having it, changes no result.)
//
// Failure modes and their outcomes:
//
//   - Aggregator unreachable: the sensor's rotated segment directory
//     *is* the spool. Pushes back off exponentially (with jitter);
//     ingest continues at full rate; the cost is lag bounded by the
//     sink's prune policy, and a Dropped counter says when prune
//     outran push.
//   - Connection drop / mid-body truncation: the pusher sees a
//     request error and retries; the aggregator either saw nothing,
//     or decoded a committed prefix it can safely fold (the framing
//     makes truncation detectable at every byte, and the resend
//     supersedes the prefix idempotently).
//   - Lost ack / duplicate delivery: the segment is pushed again;
//     folding X twice equals once (and the second time its frames
//     are recognized and skipped).
//   - Aggregator crash: acks are durable — a 2xx is written only
//     after the merged state is committed to the aggregator's own
//     crash-recoverable sink — so restart recovers everything acked,
//     and everything unacked is retried by its sensor.
//   - Corrupt or oversized segment: rejected with a clean 4xx before
//     any allocation the body's length prefixes could demand; the
//     pusher re-sends the body once (a body damaged in flight then
//     delivers), and if the rejection stands it counts it and moves on
//     rather than wedging the spool.
package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semnids/internal/fed"
	"semnids/internal/fed/compress"
	"semnids/internal/incident"
	"semnids/internal/telemetry"
)

// AggregatorConfig parameterizes an evidence aggregator.
type AggregatorConfig struct {
	// Dir is the aggregator's own durable sink directory (required):
	// merged state is checkpointed here and recovered on restart.
	Dir string

	// MaxBodyBytes bounds one pushed segment body (default
	// DefaultMaxBodyBytes). A body at or over the bound is rejected
	// with 413 — including one whose committed prefix decoded cleanly,
	// because an ack must cover the whole segment the sensor will mark
	// delivered.
	MaxBodyBytes int64

	// Retention is the aggregator's own sink policy.
	Retention fed.Retention

	// AsyncAck acknowledges pushes before the merged state is durably
	// checkpointed. The default (false) holds the 2xx until the sink
	// reports the fold fsynced — the property the restart tests pin:
	// an acked push can never be lost to a crash. Async trades that
	// for latency; an aggregator crash may then lose acked evidence
	// until the sensor's next full-snapshot checkpoint re-delivers it.
	AsyncAck bool

	// Telemetry receives the aggregator's metric series (and is shared
	// with its sink, so one scrape covers both). Nil creates a private
	// registry.
	Telemetry *telemetry.Registry

	// NodeID names this aggregator in the federation topology
	// (default "agg"). It is stamped into the Via set of upstream
	// pushes and matched against incoming Via sets to refuse cycles,
	// so every aggregator in a tree needs a distinct ID.
	NodeID string

	// MaxHops bounds how many federation tiers evidence may traverse
	// (default 16). A push whose hop count exceeds it is refused with
	// 409 — the backstop against topologies that dodge the Via set
	// (e.g. a cycle wider than the bounded set).
	MaxHops int

	// Upstream with URLs makes this aggregator an interior tree node:
	// its own sink directory doubles as the spool of a Pusher
	// delivering the folded state up the tree, in priority order with
	// failover. No URLs means a root (or standalone) aggregator.
	Upstream Upstream
}

// AggregatorConfig defaults.
const (
	DefaultMaxBodyBytes = 32 << 20
	DefaultNodeID       = "agg"
	DefaultMaxHops      = 16
)

func (cfg AggregatorConfig) withDefaults() AggregatorConfig {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.NodeID == "" {
		cfg.NodeID = DefaultNodeID
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = DefaultMaxHops
	}
	return cfg
}

// AggregatorMetrics is a snapshot of aggregator counters and gauges.
type AggregatorMetrics struct {
	// Received counts push requests; Merged counts those whose
	// evidence was folded into the state (including duplicates —
	// idempotence makes them indistinguishable from first deliveries,
	// which is the point).
	Received, Merged uint64

	// Rejected counts bodies refused as corrupt (including a compressed
	// body that fails its decoder's checks) or checkpoint-less (400),
	// TooLarge those over MaxBodyBytes (413), Skew those carrying
	// incompatible correlation parameters (409).
	Rejected, TooLarge, Skew uint64

	// Errors counts folds that merged but failed to commit durably
	// (500 — the pusher retries, the merge is idempotent).
	Errors uint64

	// Cycles counts pushes refused by the topology guards (409): the
	// Via set named this aggregator, or the hop count exceeded
	// MaxHops. Any nonzero value means a misconfigured tree.
	Cycles uint64

	// Unsupported counts pushes refused for a body that is not gzip
	// (415).
	Unsupported uint64

	// Sensors and Sources describe the current merged state.
	Sensors, Sources int

	// FramesFolded and FramesSkipped split the evidence record frames of
	// accepted pushes into those decoded and folded and those skipped
	// because the memo showed the state already held them — the
	// redundancy share of the push traffic. RecordsReencoded counts
	// merged records rendered and marshalled again because a fold
	// changed them; MemoEntries is the memo's size (a skipped share
	// that falls while it sits at its bound says the memo is too small).
	FramesFolded, FramesSkipped, RecordsReencoded uint64
	MemoEntries                                   int
}

// Aggregator folds pushed evidence segments into one deterministic
// federated state, durably checkpointed to its own crash-recoverable
// sink. It is an http.Handler (POST = push); restart recovery happens
// in NewAggregator via fed.Recover.
type Aggregator struct {
	cfg AggregatorConfig

	// state is the live fold: a push folds only its own records into
	// it, and the sink checkpoints it from cached frames.
	state  *fed.State
	sink   *fed.Sink
	closed atomic.Bool

	// push delivers the folded state up the tree (nil for a root).
	push *Pusher

	// Topology observed from folded pushes: the deepest hop count
	// seen and the union of Via sets (bounded). An interior node's own
	// upstream pushes stamp hops = maxSeenHops+1 and via = {NodeID} ∪
	// seenVia, so depth and provenance accumulate tier over tier.
	topoMu      sync.Mutex
	maxSeenHops int
	seenVia     map[string]bool

	m struct {
		received, merged, rejected, tooLarge, skew, errors atomic.Uint64
		cycles, unsupported                                atomic.Uint64
	}

	// foldNS times one accepted push end to end on the aggregator:
	// decode, fold, durable commit.
	foldNS *telemetry.Histogram

	// ackedAt records, per source address, the wall clock (Unix µs) of
	// the first durable fold whose evidence covered that source — the
	// aggregator-side endpoint of the packet→…→acked timeline.
	// Wall-clock and arrival-dependent, so it is exposed only through
	// AnnotateTimelines (report annotations), never folded into the
	// evidence wire format, which must stay deterministic. Bounded by
	// maxAckedSources; overflow is dropped (annotation is best-effort
	// observability, the evidence itself is not affected).
	ackMu   sync.Mutex
	ackedAt map[netip.Addr]uint64
}

// maxAckedSources bounds the ack-time annotation table; maxVia bounds
// the accumulated seen-via set (MaxHops bounds depth even when the set
// overflows).
const (
	maxAckedSources = 65536
	maxVia          = 256
)

// NewAggregator recovers the newest committed state from the sink
// directory (if any) and starts the durable sink.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("transport: aggregator needs a sink directory")
	}
	a := &Aggregator{cfg: cfg, state: fed.NewState(), ackedAt: make(map[netip.Addr]uint64), seenVia: make(map[string]bool)}
	if a.cfg.Telemetry == nil {
		a.cfg.Telemetry = telemetry.NewRegistry()
	}
	rec, err := fed.Recover(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("transport: aggregator recovery: %w", err)
	}
	a.state.Adopt(rec)
	sink, err := a.state.OpenSink(fed.SinkConfig{Dir: cfg.Dir, Retention: cfg.Retention, Telemetry: a.cfg.Telemetry})
	if err != nil {
		return nil, fmt.Errorf("transport: aggregator sink: %w", err)
	}
	a.sink = sink
	if len(cfg.Upstream.URLs) > 0 {
		// The aggregator's own sink directory is the upstream spool:
		// every durable fold grows a segment the pusher will deliver,
		// and fold associativity makes any tree bracketing converge.
		push, err := NewPusher(PusherConfig{Dir: cfg.Dir, Upstream: cfg.Upstream, Route: a.route, Telemetry: a.cfg.Telemetry})
		if err != nil {
			sink.Close()
			return nil, fmt.Errorf("transport: aggregator upstream pusher: %w", err)
		}
		a.push = push
	}
	a.registerTelemetry()
	return a, nil
}

// route is the topology stamp for this node's upstream pushes: one
// tier deeper than the deepest push folded here, via this node plus
// everything already seen.
func (a *Aggregator) route() (int, []string) {
	a.topoMu.Lock()
	defer a.topoMu.Unlock()
	via := make([]string, 0, len(a.seenVia)+1)
	via = append(via, a.cfg.NodeID)
	for id := range a.seenVia {
		via = append(via, id)
	}
	sort.Strings(via[1:])
	return a.maxSeenHops + 1, via
}

// registerTelemetry installs the aggregator's metric series (its sink
// registered on the same registry in NewAggregator).
func (a *Aggregator) registerTelemetry() {
	reg := a.cfg.Telemetry
	reg.CounterFunc("semnids_agg_received_total", "Push requests received.", a.m.received.Load)
	reg.CounterFunc("semnids_agg_merged_total", "Pushes folded into the merged state.", a.m.merged.Load)
	reg.CounterFunc("semnids_agg_rejected_total", "Bodies refused as corrupt or checkpoint-less (400).", a.m.rejected.Load)
	reg.CounterFunc("semnids_agg_too_large_total", "Bodies over MaxBodyBytes (413).", a.m.tooLarge.Load)
	reg.CounterFunc("semnids_agg_skew_total", "Pushes with incompatible correlation parameters (409).", a.m.skew.Load)
	reg.CounterFunc("semnids_agg_errors_total", "Folds that merged but failed the durable commit (500).", a.m.errors.Load)
	reg.CounterFunc("semnids_agg_cycles_total", "Pushes refused by the topology guards: Via-set cycle or hop budget (409).", a.m.cycles.Load)
	reg.CounterFunc("semnids_agg_unsupported_total", "Pushes refused for an unknown Content-Encoding (415).", a.m.unsupported.Load)
	reg.GaugeFunc("semnids_agg_sensors", "Distinct sensors in the merged state.", func() int64 {
		return int64(a.state.Stats().Sensors)
	})
	reg.GaugeFunc("semnids_agg_sources", "Distinct sources in the merged state.", func() int64 {
		return int64(a.state.Stats().Sources)
	})
	reg.CounterFunc(`semnids_agg_fold_frames_total{result="folded"}`, "Pushed record frames by outcome: decoded and folded, or skipped as already held.", func() uint64 {
		return a.state.Stats().FramesFolded
	})
	reg.CounterFunc(`semnids_agg_fold_frames_total{result="skipped"}`, "Pushed record frames by outcome: decoded and folded, or skipped as already held.", func() uint64 {
		return a.state.Stats().FramesSkipped
	})
	reg.CounterFunc("semnids_agg_fold_records_reencoded_total", "Merged records rendered and marshalled again because a fold changed them.", func() uint64 {
		return a.state.Stats().RecordsReencoded
	})
	reg.GaugeFunc("semnids_agg_fold_memo_entries", "Frames the folded-frame memo holds (bounded by the live record count).", func() int64 {
		return int64(a.state.Stats().MemoEntries)
	})
	reg.GaugeFunc("semnids_agg_acked_sources", "Sources with a recorded first durable-ack time.", func() int64 {
		a.ackMu.Lock()
		defer a.ackMu.Unlock()
		return int64(len(a.ackedAt))
	})
	a.foldNS = reg.Histogram("semnids_agg_push_fold_ns",
		"One accepted push: decode, fold, durable commit.")
}

// Telemetry returns the aggregator's metric registry (configured or
// private), shared with its durable sink.
func (a *Aggregator) Telemetry() *telemetry.Registry { return a.cfg.Telemetry }

// recordAcks stamps the first durable-ack wall time for every source
// covered by a committed fold. Called after the push's evidence is
// durable (or queued durable under AsyncAck).
func (a *Aggregator) recordAcks(sources []netip.Addr) {
	now := uint64(time.Now().UnixMicro())
	a.ackMu.Lock()
	defer a.ackMu.Unlock()
	for _, src := range sources {
		if _, ok := a.ackedAt[src]; !ok && len(a.ackedAt) < maxAckedSources {
			a.ackedAt[src] = now
		}
	}
}

// AnnotateTimelines appends an "acked" wall-clock timeline event to
// every incident whose source has a recorded first durable ack. It
// annotates copies derived downstream of the evidence — the evidence
// itself, and therefore federation determinism, is untouched. The
// input slice is modified in place and returned.
func (a *Aggregator) AnnotateTimelines(incs []incident.Incident) []incident.Incident {
	a.ackMu.Lock()
	defer a.ackMu.Unlock()
	for i := range incs {
		if at, ok := a.ackedAt[incs[i].Src]; ok {
			incs[i].AppendTimeline(incident.TimelineEvent{Kind: "acked", AtUS: at, Wall: true})
		}
	}
	return incs
}

// Export returns the current merged evidence state (nil before the
// first fold), rendered from the live state's cached records on the
// first call after a fold and memoized until the next. The returned
// export is immutable — a later fold renders a new one and leaves this
// one as it was — so callers may read it without synchronization but
// must not modify it.
func (a *Aggregator) Export() *incident.EvidenceExport { return a.state.Export() }

// Metrics returns current aggregator counters and gauges.
func (a *Aggregator) Metrics() AggregatorMetrics {
	m := AggregatorMetrics{
		Received:    a.m.received.Load(),
		Merged:      a.m.merged.Load(),
		Rejected:    a.m.rejected.Load(),
		TooLarge:    a.m.tooLarge.Load(),
		Skew:        a.m.skew.Load(),
		Errors:      a.m.errors.Load(),
		Cycles:      a.m.cycles.Load(),
		Unsupported: a.m.unsupported.Load(),
	}
	st := a.state.Stats()
	m.Sensors, m.Sources = st.Sensors, st.Sources
	m.FramesFolded, m.FramesSkipped = st.FramesFolded, st.FramesSkipped
	m.RecordsReencoded, m.MemoEntries = st.RecordsReencoded, st.MemoEntries
	return m
}

// SinkStats returns the aggregator's durable-sink counters.
func (a *Aggregator) SinkStats() fed.SinkMetrics { return a.sink.Metrics() }

// PushStats returns the upstream pusher's metrics and whether this
// aggregator has one (interior tree nodes only).
func (a *Aggregator) PushStats() (PushMetrics, bool) {
	if a.push == nil {
		return PushMetrics{}, false
	}
	return a.push.Metrics(), true
}

// Close writes a final durable checkpoint, stops the sink, and then
// lets the upstream pusher (if any) make its final sweep — so the
// closing node's last folds still reach its upstream.
func (a *Aggregator) Close() {
	a.closed.Store(true)
	a.sink.Close()
	if a.push != nil {
		a.push.Close()
	}
}

// Kill crash-stops the aggregator: no final checkpoint, no flush, no
// farewell push — durable state is exactly the checkpoints committed
// before the kill. The restart tests (and operator fault drills) use
// this to prove recovery; production shutdown is Close.
func (a *Aggregator) Kill() {
	a.closed.Store(true)
	a.sink.Kill()
	if a.push != nil {
		a.push.Kill()
	}
}

// ServeHTTP accepts one pushed evidence segment per POST request and
// folds it into the merged state. Every push body is gzip. GET/HEAD is
// the liveness probe: 204 with this node's ID in the headers (stamped
// on every response). Responses:
//
//	200 — folded and (unless AsyncAck) durably committed
//	204 — probe (GET/HEAD)
//	400 — corrupt (segment or compressed stream), truncated before
//	      the first checkpoint, or empty body
//	405 — not a POST/GET/HEAD
//	409 — correlation-parameter skew, or a topology-guard refusal
//	      (Via-set cycle / hop budget) — retrying cannot help
//	413 — body (wire or decoded) at or over MaxBodyBytes
//	415 — a Content-Encoding other than gzip
//	500 — folded but not durably committed (retry is safe)
//	503 — aggregator closed
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(HeaderNode, a.cfg.NodeID)
	if a.closed.Load() {
		http.Error(w, "transport: aggregator closed", http.StatusServiceUnavailable)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		w.WriteHeader(http.StatusNoContent)
		return
	case http.MethodPost:
	default:
		http.Error(w, "transport: push is POST only", http.StatusMethodNotAllowed)
		return
	}
	a.m.received.Add(1)
	t0 := time.Now()

	// Topology guards before any body work: refuse evidence that has
	// already been folded here (cycle) or traveled too deep.
	hops := 1
	if v := r.Header.Get(HeaderHops); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			hops = n
		}
	}
	via := SplitList(r.Header.Get(HeaderVia))
	for _, id := range via {
		if id == a.cfg.NodeID {
			a.m.cycles.Add(1)
			http.Error(w, fmt.Sprintf("transport: topology cycle: evidence already folded by %q (via %s)", a.cfg.NodeID, strings.Join(via, ",")), http.StatusConflict)
			return
		}
	}
	if hops > a.cfg.MaxHops {
		a.m.cycles.Add(1)
		http.Error(w, fmt.Sprintf("transport: hop count %d exceeds the %d-tier budget", hops, a.cfg.MaxHops), http.StatusConflict)
		return
	}
	if enc := r.Header.Get("Content-Encoding"); enc != compress.ContentEncoding {
		a.m.unsupported.Add(1)
		http.Error(w, fmt.Sprintf("transport: push body must be %s, not %q", compress.ContentEncoding, enc), http.StatusUnsupportedMediaType)
		return
	}
	// Bound the body before the decoder sees it. The decoder's own
	// MaxRecordBytes bound refuses oversized per-record claims; this
	// bound caps the whole segment — on both sides of the gzip
	// decoding, so a small body cannot expand past the budget. One
	// extra byte of budget distinguishes "fits exactly" from "was cut
	// off".
	wireLR := &io.LimitedReader{R: r.Body, N: a.cfg.MaxBodyBytes + 1}
	decLR := &io.LimitedReader{R: compress.NewReader(wireLR), N: a.cfg.MaxBodyBytes + 1}
	// A connection drop or a torn gzip stream leaves a truncated
	// segment, and the framing decides how much of it is committed. A
	// stream that fails its gzip checks folds nothing: the pusher's
	// one re-send delivers the segment instead.
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	_, readErr := buf.ReadFrom(decLR)
	if wireLR.N <= 0 || decLR.N <= 0 {
		a.m.tooLarge.Add(1)
		http.Error(w, fmt.Sprintf("transport: segment body exceeds the %d-byte bound", a.cfg.MaxBodyBytes), http.StatusRequestEntityTooLarge)
		return
	}
	if errors.Is(readErr, compress.ErrCorrupt) {
		a.m.rejected.Add(1)
		http.Error(w, fmt.Sprintf("transport: bad segment body: %v", readErr), http.StatusBadRequest)
		return
	}
	folded, err := a.state.Fold(buf.Bytes())
	switch {
	case errors.Is(err, fed.ErrSkew):
		a.m.skew.Add(1)
		http.Error(w, fmt.Sprintf("transport: %v", err), http.StatusConflict)
		return
	case errors.Is(err, fed.ErrNoCheckpoint):
		// A committed-checkpoint-less segment carries no evidence:
		// still a 400 (nothing was folded), but a distinct message —
		// the pusher pre-filters these, so seeing one here usually
		// means a truncated copy.
		a.m.rejected.Add(1)
		http.Error(w, "transport: segment has no committed checkpoint", http.StatusBadRequest)
		return
	case err != nil:
		a.m.rejected.Add(1)
		http.Error(w, fmt.Sprintf("transport: bad segment: %v", err), http.StatusBadRequest)
		return
	}
	a.m.merged.Add(1)

	// Topology is learned from folded pushes only: a refused request's
	// headers must not deepen or pollute this node's own upstream stamp.
	a.topoMu.Lock()
	if hops > a.maxSeenHops {
		a.maxSeenHops = hops
	}
	for _, id := range via {
		if len(a.seenVia) >= maxVia {
			break
		}
		a.seenVia[id] = true
	}
	a.topoMu.Unlock()

	if a.cfg.AsyncAck {
		a.sink.Notify()
	} else if err := a.sink.Checkpoint(); err != nil {
		// The fold is applied but not durable: refuse the ack so the
		// sensor retries — the duplicate fold is free.
		a.m.errors.Add(1)
		http.Error(w, fmt.Sprintf("transport: durable commit failed: %v", err), http.StatusInternalServerError)
		return
	}
	// Acknowledged: from here on these frames may be skipped when they
	// arrive again.
	a.state.Commit(folded)
	a.recordAcks(folded.Sources)
	a.foldNS.Observe(time.Since(t0).Nanoseconds())
	if a.push != nil {
		// The fold just grew this node's own sink segment: nudge the
		// upstream pusher so the tree converges at fold cadence, not
		// scan cadence.
		a.push.Notify()
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// bodyPool recycles push body buffers: a body is only read while its
// push is being decoded, and nothing decoded from it aliases it.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
