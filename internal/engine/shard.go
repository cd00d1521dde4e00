package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/extract"
	"semnids/internal/netpkt"
	"semnids/internal/reasm"
	"semnids/internal/sem"
)

// shardMsg is one unit of shard input: a batch of selected packets,
// or a control barrier.
type shardMsg struct {
	batch *pktBatch
	ctl   *ctl
}

// ctl is a drain barrier: each shard flushes its flow state and
// acknowledges. Because a shard consumes its queue in order, the
// acknowledgment also proves every packet queued before the barrier
// has been fully processed.
type ctl struct {
	wg *sync.WaitGroup
}

type alertKey struct {
	flow     netpkt.FlowKey
	template string
}

// shard owns one slice of the flow space. All fields below the queue
// are touched only from the shard goroutine, so no locking is needed
// on the per-flow hot path.
type shard struct {
	eng  *Engine
	id   int
	in   chan shardMsg
	done chan struct{}

	// free is the ring of batch buffers (cfg.BatchSize packets each)
	// shuttling between feeders and this shard. queued counts
	// the packets currently enqueued or being processed exactly:
	// incremented per batch before the send, decremented per packet as
	// each is analyzed, so readers see true occupancy (never negative,
	// never overstated by a whole in-progress batch).
	free   chan *pktBatch
	queued atomic.Int64

	// asm's flow records carry this shard's per-flow side state too
	// (reasm.FlowState), so a packet costs one flow lookup, asm's own.
	asm  *reasm.Assembler
	seen map[alertKey]bool

	// dgramSeen deduplicates flow-open events for untracked datagram
	// traffic (DatagramFlows off): one event per conversation
	// direction per idle window, instead of one per datagram — a UDP
	// scan flood used to emit a flow-open for every probe into the
	// correlator's bounded channel. Maintained only when an event tap
	// is attached; swept by the lifecycle tick.
	dgramSeen map[netpkt.FlowKey]uint64

	maxTS    uint64 // highest trace timestamp seen by this shard
	lastTick uint64

	// tickPackets counts packets handled since the last tick, feeding
	// the EWMA throughput gauge.
	tickPackets uint64

	// Gauges published for Snapshot (read from other goroutines).
	flows      atomic.Int64
	bytes      atomic.Int64
	dgramFlows atomic.Int64
	dgramBytes atomic.Int64
	ewmaPPS    atomic.Uint64 // math.Float64bits of trace-time packets/sec
}

// maxDgramSeen caps the flow-open dedup map; past it the map resets
// (re-emission is harmless: the correlator deduplicates fan-out
// evidence by destination) rather than growing without bound.
const maxDgramSeen = 1 << 16

func newShard(e *Engine, id int) *shard {
	queueBatches := e.cfg.QueueDepth / e.cfg.BatchSize
	if queueBatches < 1 {
		queueBatches = 1
	}
	s := &shard{
		eng:       e,
		id:        id,
		in:        make(chan shardMsg, queueBatches),
		done:      make(chan struct{}),
		free:      make(chan *pktBatch, queueBatches+2),
		asm:       reasm.New(),
		seen:      make(map[alertKey]bool),
		dgramSeen: make(map[netpkt.FlowKey]uint64),
	}
	// Evicted flows (idle, over-budget, or reassembler capacity) get
	// their unanalyzed tail analyzed — eviction bounds memory, it never
	// silently discards evidence. Analysis here is synchronous, so the
	// stream buffer goes straight back to the assembler's pool.
	s.asm.SetEvictHandler(func(st *reasm.Stream) {
		s.analyzeTail(st)
		if tap := e.cfg.OnEvent; tap != nil {
			tap(flowEvent(core.EventFlowEvict, s.maxTS, st.Key))
		}
		s.asm.Recycle(st.Data)
	})
	return s
}

func (s *shard) run() {
	defer close(s.done)
	for msg := range s.in {
		if msg.ctl != nil {
			s.flushFlows()
			// Gauges first: the Drain caller this releases may read them.
			s.publishGauges()
			msg.ctl.wg.Done()
			continue
		}
		for i := range msg.batch.entries {
			en := &msg.batch.entries[i]
			s.handle(&en.pkt, en.reason)
			// Decrement per packet, not per batch: the queue gauge
			// then counts exactly the packets not yet analyzed, even
			// mid-batch, and can never undershoot past zero.
			s.queued.Add(-1)
		}
		s.eng.tel.ingestNS.Observe(time.Since(msg.batch.created).Nanoseconds())
		s.putBatch(msg.batch)
		s.publishGauges()
	}
	// Queue closed (Stop): analyze what remains before exiting.
	s.flushFlows()
	s.flows.Store(0)
	s.bytes.Store(0)
	s.dgramFlows.Store(0)
	s.dgramBytes.Store(0)
}

// publishGauges copies the assembler's flow and byte counts into the
// gauges Snapshot reads.
func (s *shard) publishGauges() {
	s.flows.Store(int64(s.asm.FlowCount()))
	s.bytes.Store(int64(s.asm.TotalBytes()))
	s.dgramFlows.Store(int64(s.asm.DgramFlowCount()))
	s.dgramBytes.Store(int64(s.asm.DgramBytes()))
}

// handle pushes one selected packet through reassembly and analysis.
func (s *shard) handle(p *netpkt.Packet, reason classify.Reason) {
	if p.TimestampUS > s.maxTS {
		s.maxTS = p.TimestampUS
	}
	s.tickPackets++
	defer s.maybeTick()

	if !p.HasTCP {
		s.handleDatagram(p, reason)
		return
	}

	flow := p.Flow()
	stream := s.asm.Feed(p)
	fl := s.track(flow, reason, p.TimestampUS)
	if stream == nil {
		return
	}
	if core.ShouldAnalyze(stream.Finished, len(stream.Data), fl.Analyzed, s.eng.cfg.MinAnalyzeBytes) {
		fl.Analyzed = len(stream.Data)
		s.analyze(stream.Data, nil, flow, reason, p.TimestampUS)
	}
	if stream.Finished {
		// Analysis of the final view (above) is synchronous, so the
		// closed flow's buffer is immediately reusable.
		if closed := s.asm.Close(flow); closed != nil {
			s.asm.Recycle(closed.Data)
		}
	}
}

// track notes the packet just fed on its flow's record (a tail
// analysis is attributed to the latest) and publishes flow-open when
// the record is new: once per tracked flow, again after an eviction.
func (s *shard) track(flow netpkt.FlowKey, reason classify.Reason, ts uint64) *reasm.FlowState {
	fl := s.asm.Touched()
	if !fl.Opened {
		fl.Opened = true
		s.tapFlowOpen(flow, ts)
	}
	fl.Reason, fl.LastTS = string(reason), ts
	return fl
}

// handleDatagram is the non-TCP arm of handle. Without datagram flows
// each payload-bearing datagram is analyzed on its own, exactly as
// before — but the flow-open event is published once per conversation
// direction per idle window (dgramSeen), not once per datagram. With
// datagram flows on, the payload joins its flow's idle-windowed buffer
// (boundaries preserved) and is swept like a TCP stream; flow-open
// then follows the TCP discipline (track).
func (s *shard) handleDatagram(p *netpkt.Packet, reason classify.Reason) {
	if len(p.Payload) == 0 {
		return
	}
	flow := p.Flow()
	if !s.eng.cfg.DatagramFlows {
		if s.eng.cfg.OnEvent != nil {
			if _, seen := s.dgramSeen[flow]; !seen {
				s.tapFlowOpen(flow, p.TimestampUS)
			}
			if len(s.dgramSeen) >= maxDgramSeen {
				clear(s.dgramSeen)
			}
			s.dgramSeen[flow] = p.TimestampUS
		}
		s.analyze(p.Payload, nil, flow, reason, p.TimestampUS)
		return
	}
	stream := s.asm.FeedDatagram(flow, p.Payload, p.TimestampUS)
	fl := s.track(flow, reason, p.TimestampUS)
	if stream == nil {
		return
	}
	if core.ShouldAnalyze(false, len(stream.Data), fl.Analyzed, s.eng.cfg.MinAnalyzeBytes) {
		fl.Analyzed = len(stream.Data)
		s.analyze(stream.Data, stream.Bounds, flow, reason, p.TimestampUS)
	}
}

// maybeTick runs the flow-lifecycle maintenance pass once per
// configured interval of trace time: idle flows first (tail-analyzed
// via the evict handler), then LRU eviction down to the byte budget, so
// stale streams are inspected while the engine keeps running instead of
// waiting for Drain or Stop.
func (s *shard) maybeTick() {
	cfg := &s.eng.cfg
	if s.maxTS-s.lastTick < cfg.TickIntervalUS {
		return
	}
	s.updateEWMA(s.maxTS - s.lastTick)
	s.lastTick = s.maxTS
	if s.maxTS > cfg.FlowIdleTimeoutUS {
		n := s.asm.EvictIdle(s.maxTS - cfg.FlowIdleTimeoutUS)
		s.eng.m.evictedIdle.Add(uint64(n))
	}
	if cfg.DatagramFlows && cfg.DatagramIdleUS < cfg.FlowIdleTimeoutUS && s.maxTS > cfg.DatagramIdleUS {
		// The tighter datagram window expires quiet conversations ahead
		// of the flow-wide timeout (tails analyzed via the evict
		// handler, like any eviction).
		n := s.asm.EvictDgramIdle(s.maxTS - cfg.DatagramIdleUS)
		s.eng.m.evictedDgram.Add(uint64(n))
	}
	if len(s.dgramSeen) > 0 && s.maxTS > cfg.DatagramIdleUS {
		cutoff := s.maxTS - cfg.DatagramIdleUS
		for k, last := range s.dgramSeen {
			if last < cutoff {
				delete(s.dgramSeen, k)
			}
		}
	}
	n := s.asm.EvictLRUUntil(cfg.ShardByteBudget)
	s.eng.m.evictedLRU.Add(uint64(n))
}

// updateEWMA folds the packets handled over the elapsed trace time
// into the shard's smoothed packets/sec gauge.
func (s *shard) updateEWMA(elapsedUS uint64) {
	if elapsedUS == 0 {
		return
	}
	rate := float64(s.tickPackets) * 1e6 / float64(elapsedUS)
	s.tickPackets = 0
	const alpha = 0.3
	prev := math.Float64frombits(s.ewmaPPS.Load())
	if prev == 0 {
		prev = rate
	}
	s.ewmaPPS.Store(math.Float64bits(alpha*rate + (1-alpha)*prev))
}

// tapFlowOpen publishes a flow-open event when a tap is attached.
func (s *shard) tapFlowOpen(flow netpkt.FlowKey, ts uint64) {
	if tap := s.eng.cfg.OnEvent; tap != nil {
		tap(flowEvent(core.EventFlowOpen, ts, flow))
	}
}

// flowEvent builds a tap event attributed to flow; alert and
// fingerprint events add their payload fields to it.
func flowEvent(kind core.EventKind, ts uint64, flow netpkt.FlowKey) core.Event {
	return core.Event{
		Kind: kind, TimestampUS: ts,
		Src: flow.SrcIP, Dst: flow.DstIP,
		SrcPort: flow.SrcPort, DstPort: flow.DstPort,
	}
}

// flushFlows analyzes the unanalyzed tail of every tracked flow and
// resets per-flow state — including alert dedup, so a flow key reused
// in a later trace alerts again — leaving the shard ready for more
// traffic.
func (s *shard) flushFlows() {
	for _, st := range s.asm.Drain() {
		s.analyzeTail(st)
		s.asm.Recycle(st.Data)
	}
	clear(s.seen)
	clear(s.dgramSeen)
}

// analyzeTail re-analyzes the whole view a departing flow (evicted or
// drained) holds if it grew since its last analysis; frames already
// analyzed in that view hit the verdict cache.
func (s *shard) analyzeTail(st *reasm.Stream) {
	if fl := st.Flow; len(st.Data) > fl.Analyzed {
		s.analyze(st.Data, st.Bounds, st.Key, classify.Reason(fl.Reason), fl.LastTS)
	}
}

// analyze runs extraction (or, in FullScan mode, forwards the whole
// payload) and the semantic stages over one stream view. bounds holds
// a datagram flow's message start offsets, so boundary-sensitive
// carriers (CoAP) are parsed message by message and block transfers
// reassembled; it is empty for a TCP stream or a lone datagram, which
// extract.ExtractDatagrams then hands to extract.Extract unchanged.
func (s *shard) analyze(data []byte, bounds []int, flow netpkt.FlowKey, reason classify.Reason, ts uint64) {
	if len(data) == 0 {
		return
	}
	s.eng.m.streams.Add(1)
	if s.eng.cfg.FullScan {
		s.analyzeFrame(extract.Frame{Data: data, Source: "fullscan"}, flow, reason, ts)
		return
	}
	for _, f := range extract.ExtractDatagrams(data, bounds) {
		s.analyzeFrame(f, flow, reason, ts)
	}
}

// analyzeFrame resolves one extracted frame's verdict and emits any
// detections. A frame the analyzer's screen finds Empty (no template's
// byte witness holds, no data-level detector fires) has an empty
// verdict without a decode, so it skips the verdict cache: no lookup,
// no admission count, no insert and no analysis timing. Any other
// frame resolves through the cache when enabled. The frame's
// fingerprint is computed whenever the cache or an event tap needs it,
// and published as a fingerprint event on every resolution (screened,
// hit and miss alike, so the correlator's view does not depend on
// cache state).
func (s *shard) analyzeFrame(f extract.Frame, flow netpkt.FlowKey, reason classify.Reason, ts uint64) {
	e := s.eng
	e.m.frames.Add(1)
	e.m.frameBytes.Add(uint64(len(f.Data)))
	tap := e.cfg.OnEvent
	var (
		fp core.Fingerprint
		ds []sem.Detection
		sk sem.Sketch
	)
	if scr := e.analyzer.Screen(f.Data); scr.Empty() {
		e.m.witnessRejected.Add(1)
		if tap != nil {
			fp = core.FingerprintOf(f.Data)
		}
	} else {
		fp, ds, sk = s.resolve(f, scr)
	}
	if tap != nil {
		ev := flowEvent(core.EventFingerprint, ts, flow)
		ev.Fingerprint, ev.Sketch = fp, sk
		tap(ev)
	}
	for _, d := range ds {
		s.emit(f, flow, reason, ts, fp, sk, d)
	}
}

// resolve returns a screened frame's fingerprint (when the cache or
// a tap needs it), detections and sketch: from the verdict cache on a
// hit, else from the analyzer, timed and then cached.
func (s *shard) resolve(f extract.Frame, scr sem.Screen) (fp core.Fingerprint, ds []sem.Detection, sk sem.Sketch) {
	e := s.eng
	if e.cache != nil || e.cfg.OnEvent != nil {
		fp = core.FingerprintOf(f.Data)
	}
	if e.cache != nil {
		var cached bool
		if ds, sk, cached = e.cache.get(fp); cached {
			e.m.cacheHits.Add(1)
			return fp, ds, sk
		}
		e.m.cacheMisses.Add(1)
	}
	// No stage before this one decodes, so f.Code is nil and the
	// analyzer uses its pooled scratch cache instead of allocating a
	// decode cache per frame.
	t0 := time.Now()
	ds = e.analyzer.AnalyzeScreened(f.Data, f.Code, scr)
	e.tel.frameNS.Observe(time.Since(t0).Nanoseconds())
	sk = s.sketch(f.Data, ds)
	if e.cache != nil {
		e.cache.put(fp, ds, sk)
	}
	return fp, ds, sk
}

// sketch computes the frame's structural fingerprint when lineage is
// enabled and the frame produced detections; otherwise it returns the
// zero sketch at the cost of one branch. Benign frames are never
// emulated, and callers memoize the result in the verdict cache.
func (s *shard) sketch(frame []byte, ds []sem.Detection) sem.Sketch {
	e := s.eng
	if !e.cfg.Lineage || len(ds) == 0 {
		return sem.Sketch{}
	}
	e.m.sketches.Add(1)
	return e.analyzer.Sketch(frame, ds)
}

// emit records one detection, deduplicated per (flow, template). The
// dedup map is shard-local: a flow is always handled by one shard.
func (s *shard) emit(f extract.Frame, flow netpkt.FlowKey, reason classify.Reason, ts uint64, fp core.Fingerprint, sk sem.Sketch, d sem.Detection) {
	key := alertKey{flow: flow, template: d.Template}
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	a := core.Alert{
		TimestampUS: ts,
		Src:         flow.SrcIP, Dst: flow.DstIP,
		SrcPort: flow.SrcPort, DstPort: flow.DstPort,
		Reason:      reason,
		FrameSource: f.Source,
		Detection:   d,
	}
	e := s.eng
	e.mu.Lock()
	e.alerts = append(e.alerts, a)
	e.mu.Unlock()
	e.m.alerts.Add(1)
	// Follow-on traffic from a confirmed attacker is always analyzed.
	e.classifier.MarkSuspicious(flow.SrcIP, ts)
	if tap := e.cfg.OnEvent; tap != nil {
		ev := flowEvent(core.EventAlert, ts, flow)
		ev.Fingerprint, ev.Sketch = fp, sk
		ev.Template, ev.Severity = d.Template, d.Severity
		tap(ev)
	}
	if e.cfg.OnAlert != nil {
		e.cfg.OnAlert(a)
	}
}
