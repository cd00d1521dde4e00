package incident

import (
	"cmp"
	"container/heap"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"semnids/internal/core"
	"semnids/internal/lineage"
	"semnids/internal/telemetry"
)

// Config parameterizes the correlator.
type Config struct {
	// Params are the correlation parameters — fan-out window, RECON
	// threshold, evidence caps — that exports carry and merges
	// compare. Unset fields take their defaults.
	Params

	// OnIncident, when non-nil, is invoked from the correlator
	// goroutine whenever a source's derived stage rises, with the
	// incident as derived at that moment. The callback must not call
	// back into the correlator.
	OnIncident func(Incident)

	// Telemetry receives the correlator's metric series: event
	// counters bridged at scrape time plus kill-chain stage-transition
	// latency histograms (trace-time first-packet→stage, observed as
	// each source's derived stage rises). Nil creates a private
	// registry so the hot path never nil-checks.
	Telemetry *telemetry.Registry

	// maxSources caps tracked sources (default maxTrackedSources);
	// merge scratch correlators lift it to mergeLimit.
	maxSources int
}

// maxAttackersPerFingerprint bounds how many distinct attackers one
// victim links to a single payload identity.
const maxAttackersPerFingerprint = 4

const (
	// queueDepth bounds the events held between the publishers and the
	// correlator goroutine: two buffers of queueDepth/2, one filling
	// while the other is applied. A full buffer applies backpressure,
	// never silent loss.
	queueDepth = 4096

	// maxCompleted caps retained finalized incidents; the oldest are
	// dropped first.
	maxCompleted = 1024

	// maxTrackedSources caps a live correlator's tracked sources; a
	// new source beyond it first finalizes the tracked source with the
	// least (stamp, address).
	maxTrackedSources = 65536

	// sourceIdleUS finalizes sources with no activity for this much
	// trace time (10 minutes). A source that reappears after
	// finalization starts a fresh incident, and whether a straggling
	// event lands before or after the sweep depends on cross-shard
	// arrival order — so, as with the evidence caps, the byte-identical
	// determinism guarantee holds for sources that stay within the
	// idle window (and the source cap) for the life of the trace.
	sourceIdleUS = 10 * 60 * 1e6
)

func (cfg Config) withDefaults() Config {
	cfg.Params = cfg.Params.withDefaults()
	if cfg.maxSources <= 0 {
		cfg.maxSources = maxTrackedSources
	}
	return cfg
}

// Metrics is a snapshot of correlator counters and gauges.
type Metrics struct {
	// Events counts every event the goroutine took from the queue,
	// flow-evicts included; the per-kind counters break down the kinds
	// that carry evidence.
	Events, FlowOpens, Alerts, Fingerprints uint64

	// SourcesTracked is the live state-machine count;
	// SourcesEvictedLRU / SourcesEvictedIdle count finalizations that
	// bounded it.
	SourcesTracked                        int
	SourcesEvictedLRU, SourcesEvictedIdle uint64

	// Incidents counts sources whose derived stage ever rose above
	// NONE.
	Incidents uint64

	// LineageObservations counts lineage observations folded, live and
	// imported; LineageTracked is the distinct payloads held.
	LineageObservations uint64
	LineageTracked      int
}

// Correlator consumes engine events and maintains per-source
// kill-chain state machines and the sensor's lineage observations.
// Publish may be called from any number of goroutines; all state is
// owned by the single run goroutine, with a mutex taken only around
// state mutation and snapshot reads.
type Correlator struct {
	cfg Config

	q        queue
	done     chan struct{}
	stopOnce sync.Once

	// mu guards sources/byStamp/completed/lin: held by the run
	// goroutine while applying one batch and by snapshot readers.
	mu        sync.Mutex
	sources   map[netip.Addr]*sourceState
	byStamp   stampHeap
	completed []Incident
	maxTS     uint64
	lastSweep uint64

	// lin holds the lineage observations: those the applied alert and
	// fingerprint events witness (live; events carry sketches only
	// with lineage on) and imported ones, under lineage.StoreCap. A
	// Fold's merge state holds its merged set here under
	// lineage.MergeCap; other merge states have none.
	lin *lineage.Set

	m struct {
		events, flowOpens, alerts, fingerprints atomic.Uint64
		evictedLRU, evictedIdle                 atomic.Uint64
		incidents                               atomic.Uint64
		lineage                                 atomic.Uint64
	}

	// stageLatUS, indexed by Stage, records trace-time µs from a
	// source's first packet to each derived stage crossing — the
	// kill-chain response-latency series ROADMAP asks for as a
	// measured quantity.
	stageLatUS [StagePropagation + 1]*telemetry.Histogram

	// track is set only on a Fold's merge state (nil on every other
	// correlator; its methods accept nil).
	track *foldTrack
}

// New builds and starts a correlator; its goroutine runs until Stop.
func New(cfg Config) *Correlator {
	c := &Correlator{
		cfg:     cfg.withDefaults(),
		done:    make(chan struct{}),
		sources: make(map[netip.Addr]*sourceState),
		lin:     lineage.NewSet(lineage.StoreCap),
	}
	c.q.init()
	c.registerTelemetry()
	go c.run()
	return c
}

// registerTelemetry installs the correlator's metric series: existing
// counters bridged with scrape-time funcs, stage-latency histograms
// recorded as stages rise.
func (c *Correlator) registerTelemetry() {
	if c.cfg.Telemetry == nil {
		c.cfg.Telemetry = telemetry.NewRegistry()
	}
	reg := c.cfg.Telemetry
	reg.CounterFunc("semnids_incident_events_total", "Events received by the correlator.", c.m.events.Load)
	reg.CounterFunc(`semnids_incident_events_by_kind_total{kind="flow_open"}`, "Events by kind.", c.m.flowOpens.Load)
	reg.CounterFunc(`semnids_incident_events_by_kind_total{kind="alert"}`, "Events by kind.", c.m.alerts.Load)
	reg.CounterFunc(`semnids_incident_events_by_kind_total{kind="fingerprint"}`, "Events by kind.", c.m.fingerprints.Load)
	reg.CounterFunc(`semnids_incident_sources_evicted_total{reason="lru"}`, "Sources finalized to bound state.", c.m.evictedLRU.Load)
	reg.CounterFunc(`semnids_incident_sources_evicted_total{reason="idle"}`, "Sources finalized to bound state.", c.m.evictedIdle.Load)
	reg.CounterFunc("semnids_incident_incidents_total", "Sources whose derived stage rose above NONE.", c.m.incidents.Load)
	reg.GaugeFunc("semnids_incident_sources_tracked", "Live per-source state machines.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.sources))
	})
	reg.GaugeFunc("semnids_incident_queue_depth", "Events pending in the queue toward the correlator goroutine.", c.q.pending)
	for st := StageRecon; st <= StagePropagation; st++ {
		c.stageLatUS[st] = reg.Histogram(
			`semnids_incident_stage_latency_us{stage="`+strings.ToLower(st.String())+`"}`,
			"Trace-time µs from a source's first packet to each derived kill-chain stage.")
	}
}

// queue carries events from the publishers to the correlator
// goroutine in batches. Publishers append to the open buffer under mu
// and wake the goroutine only when it turns non-empty; the goroutine
// swaps the whole buffer out for the one it last applied and takes
// c.mu once per batch. The open buffer holds at most queueDepth/2
// events and a publisher waits while it is full, so at most queueDepth
// events are in flight.
type queue struct {
	mu   sync.Mutex
	open []core.Event
	// spare is the buffer the goroutine applied last, empty; it becomes
	// the open buffer at the next swap.
	spare []core.Event
	// work wakes the goroutine when open turns non-empty or the queue
	// stops; room wakes publishers when open is swapped out or the
	// queue stops; drained wakes Flush callers when a batch is applied.
	work, room, drained sync.Cond
	// accepted counts events appended to open, applied those the
	// goroutine has applied: Flush waits for applied to reach the
	// accepted count it saw.
	accepted, applied uint64
	stopped           bool
}

func (q *queue) init() {
	q.open = make([]core.Event, 0, queueDepth/2)
	q.spare = make([]core.Event, 0, queueDepth/2)
	q.work.L, q.room.L, q.drained.L = &q.mu, &q.mu, &q.mu
}

// pending is the number of events accepted and not yet taken by the
// goroutine (the queue-depth gauge).
func (q *queue) pending() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int64(len(q.open))
}

// Publish offers one event. It blocks while the open buffer is full
// (backpressure, mirroring the engine's PolicyBlock default) and is a
// no-op after — or concurrent with — Stop: a publisher waiting on a
// full buffer when Stop begins returns without its event.
func (c *Correlator) Publish(ev core.Event) {
	q := &c.q
	q.mu.Lock()
	for len(q.open) == cap(q.open) && !q.stopped {
		q.room.Wait()
	}
	if q.stopped {
		q.mu.Unlock()
		return
	}
	q.open = append(q.open, ev)
	q.accepted++
	first := len(q.open) == 1
	q.mu.Unlock()
	if first {
		q.work.Signal()
	}
}

// Flush blocks until every event published before it has been applied.
// No-op after Stop.
func (c *Correlator) Flush() {
	q := &c.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return
	}
	for target := q.accepted; q.applied < target; {
		q.drained.Wait()
	}
}

// Stop terminates the correlator goroutine after applying every event
// the queue accepted. Idempotent; Incidents and Metrics stay readable.
func (c *Correlator) Stop() {
	c.stopOnce.Do(func() {
		q := &c.q
		q.mu.Lock()
		q.stopped = true
		q.mu.Unlock()
		q.work.Signal()
		q.room.Broadcast()
		<-c.done
	})
}

func (c *Correlator) run() {
	defer close(c.done)
	q := &c.q
	for {
		q.mu.Lock()
		for len(q.open) == 0 && !q.stopped {
			q.work.Wait()
		}
		if len(q.open) == 0 {
			// Stopped and drained.
			q.mu.Unlock()
			return
		}
		batch := q.open
		q.open, q.spare = q.spare, nil
		q.mu.Unlock()
		q.room.Broadcast()

		c.m.events.Add(uint64(len(batch)))
		c.mu.Lock()
		for i := range batch {
			c.apply(&batch[i])
		}
		c.mu.Unlock()

		q.mu.Lock()
		q.applied += uint64(len(batch))
		q.spare = batch[:0]
		q.mu.Unlock()
		q.drained.Broadcast()
	}
}

// apply folds one event into the evidence model. Called with mu held.
func (c *Correlator) apply(ev *core.Event) {
	if ev.Kind == core.EventFlowEvict {
		// Counted, never applied: eviction timing varies with shard
		// count and byte budgets, so it must not shape any source's
		// evidence, clock or recency.
		return
	}
	if ev.TimestampUS > c.maxTS {
		c.maxTS = ev.TimestampUS
	}
	if o, ok := lineage.Witnessed(ev); ok {
		c.foldLineage(&o, true)
	}

	switch ev.Kind {
	case core.EventFlowOpen:
		c.m.flowOpens.Add(1)
		s := c.source(ev.Src, ev.TimestampUS)
		s.touchContent(ev.TimestampUS)
		s.dests.put(ev.Dst, ev.TimestampUS, c.cfg.Limits.MaxDestinations)
		// Fan-out is the only stage a flow-open can raise; skip the
		// derivation (it sorts the evidence) until it can trigger.
		if s.notified < StageRecon && s.dests.len() >= c.cfg.FanoutThreshold {
			c.notify(s)
		}

	case core.EventAlert:
		c.m.alerts.Add(1)
		s := c.source(ev.Src, ev.TimestampUS)
		s.touchContent(ev.TimestampUS)
		s.dests.put(ev.Dst, ev.TimestampUS, c.cfg.Limits.MaxDestinations)
		s.alertTimes.put(alertKey{tsUS: ev.TimestampUS, dst: ev.Dst, template: ev.Template},
			ev.TimestampUS, c.cfg.Limits.MaxAlerts)
		if s.exploitAt == 0 || ev.TimestampUS < s.exploitAt {
			s.exploitAt = ev.TimestampUS
		}
		if severityRank[ev.Severity] > severityRank[s.severity] {
			s.severity = ev.Severity
		}
		if len(s.templates) < maxTemplates || s.templates[ev.Template] {
			s.templates[ev.Template] = true
		}
		if !ev.Fingerprint.IsZero() {
			// Record the victim side: Dst was hit with this payload by
			// Src. No notify for the victim: being targeted does not
			// change its own derived stage.
			c.targeted(ev.Src, ev.Dst, ev.Fingerprint, ev.TimestampUS)
		}
		// Structural identity rides the same machinery: when lineage is
		// on, the sketch's decoded-tail fingerprint shares the 128-bit
		// keyspace with exact fingerprints, so folding it into the same
		// victim-side sets makes a victim that re-emits a *re-encoded*
		// descendant of the attack payload close the propagation link —
		// the polymorphism-proof PROPAGATION the exact match cannot see.
		// With lineage off the sketch is zero and nothing here runs.
		if tfp := lineage.TailFingerprint(ev.Sketch); !tfp.IsZero() && tfp != ev.Fingerprint {
			c.targeted(ev.Src, ev.Dst, tfp, ev.TimestampUS)
		}
		c.notify(s)

	case core.EventFingerprint:
		c.m.fingerprints.Add(1)
		s := c.source(ev.Src, ev.TimestampUS)
		s.touchContent(ev.TimestampUS)
		// This source may be a victim re-emitting a payload it was
		// attacked with. An emission changes the *attacker's* stage
		// (via escalate), never the emitter's own, so no self-notify
		// here.
		c.emits(s, ev.Fingerprint, ev.TimestampUS)
		// And the structural identity (see the alert-side fold): an
		// emission of any variant decoding to the same tail counts as
		// an emission of the family, closing links the exact
		// fingerprint misses after re-encoding.
		if tfp := lineage.TailFingerprint(ev.Sketch); !tfp.IsZero() && tfp != ev.Fingerprint {
			c.emits(s, tfp, ev.TimestampUS)
		}
	}

	c.maybeSweep()
}

// targeted records on victim that attacker hit it with fp at ts. If
// the victim has already been seen emitting fp later in trace time
// (events can arrive out of order across shards), the link closes now.
func (c *Correlator) targeted(attacker, victim netip.Addr, fp core.Fingerprint, ts uint64) {
	v := c.source(victim, ts)
	refs, present := v.targetedBy[fp]
	refs = addAttackerRef(refs, attacker, ts, maxAttackersPerFingerprint)
	if present || len(v.targetedBy) < c.cfg.Limits.MaxFingerprints {
		v.targetedBy[fp] = refs
	}
	if sp, ok := v.emitted.get(fp); ok && sp.last > ts {
		c.escalate(attacker, victim, echoTime(sp, ts))
	}
}

// emits records that s emitted fp at ts, and closes the
// propagation link on each attacker whose delivery of fp the folded
// emission span postdates. Checking the span — not ts — reaches the
// same verdict as the alert-side check (targeted) whatever the arrival
// order.
func (c *Correlator) emits(s *sourceState, fp core.Fingerprint, ts uint64) {
	if sp, ok := s.emitted.put(fp, ts, c.cfg.Limits.MaxFingerprints); ok {
		for _, ref := range s.targetedBy[fp] {
			if sp.last > ref.tsUS {
				c.escalate(ref.attacker, s.src, echoTime(sp, ref.tsUS))
			}
		}
	}
}

// foldLineage folds one lineage observation — live when an applied
// event witnessed it — and, on a Fold's merge state, records what
// changed and what the cap displaced. Called with mu held.
func (c *Correlator) foldLineage(o *lineage.Observation, live bool) {
	c.m.lineage.Add(1)
	changed, evicted := c.lin.Fold(o, live)
	if t := c.track; t != nil {
		if evicted != nil {
			t.droppedLin = append(t.droppedLin, evicted.Exact)
			delete(t.dirtyLin, evicted.Exact)
		}
		if changed {
			t.dirtyLin[o.Exact] = struct{}{}
		}
	}
}

// echoTime is the canonical propagation instant for a victim whose
// recorded emissions of the attack payload span sp, attacked at t1
// (callers guarantee sp.last > t1): the victim's first emission if it
// followed the attack, else the moment just after the attack — the
// victim was demonstrably already emitting the payload when it was
// hit. Both escalation paths derive it from the same folded span, so
// every arrival order converges on the same value.
func echoTime(sp span, t1 uint64) uint64 {
	if sp.first > t1 {
		return sp.first
	}
	return t1 + 1
}

// escalate marks attacker as having reached PROPAGATION: victim
// re-emitted the attack payload at echoTS. Which emissions reach this
// point depends on cross-shard arrival order, but echoTS is derived
// from order-independent evidence (echoTime over the folded span),
// and the min-folds below converge to the same values in every
// interleaving. The attacker's own activity span and last-seen clock
// are left alone — echo maxima are derived instants, not observations
// of the attacker, and folding them would make the exported evidence
// depend on which intermediate echoes an interleaving happened to
// produce (the zero timestamp leaves the clock alone; echoUS, set
// below, raises the attacker's recency stamp instead).
func (c *Correlator) escalate(attacker, victim netip.Addr, echoTS uint64) {
	a := c.source(attacker, 0)
	// Sweep bookkeeping: the attacker is demonstrably still relevant
	// at the current trace time, so the idle sweep must not finalize
	// it mid-outbreak (which would resurrect it as a fresh skeleton on
	// the next echo and double-announce the incident).
	if c.maxTS > a.echoUS {
		a.echoUS = c.maxTS
	}
	// A Fold's merge state (track set) also wants to know whether the
	// attacker's rendered evidence — the propagation instant, victim
	// membership and earliest echoes — changed; nothing listens to it,
	// so it skips the notify.
	tracked := c.track != nil
	var before span
	var had bool
	if tracked {
		before, had = a.victims.get(victim)
	}
	moved := a.propagationAt == 0 || echoTS < a.propagationAt
	if moved {
		a.propagationAt = echoTS
	}
	a.victims.put(victim, echoTS, c.cfg.Limits.MaxVictims)
	if tracked {
		if after, has := a.victims.get(victim); moved || had != has || before.first != after.first {
			c.track.changed(attacker)
		}
		return
	}
	c.notify(a)
}

// source returns (creating if needed) the state machine for src and
// raises its last-seen clock to ts. Creation beyond the source cap
// first finalizes the tracked source with the least (stamp, address).
func (c *Correlator) source(src netip.Addr, ts uint64) *sourceState {
	s := c.sources[src]
	if s == nil {
		if len(c.sources) >= c.cfg.maxSources {
			c.finalize(c.byStamp.popOldest())
			c.m.evictedLRU.Add(1)
		}
		s = &sourceState{
			src:        src,
			dests:      newMinKSet[netip.Addr](lessAddr),
			alertTimes: newMinKSet[alertKey](lessAlertKey),
			templates:  make(map[string]bool),
			targetedBy: make(map[core.Fingerprint][]attackRef),
			emitted:    newMinKSet[core.Fingerprint](core.Fingerprint.Less),
			victims:    newMinKSet[netip.Addr](lessAddr),
		}
		c.sources[src] = s
		heap.Push(&c.byStamp, s)
		if rec := c.track.held(src); rec != nil {
			// A Fold's merge state holds only the sources a merge
			// touches: bring this one in from its rendered record.
			c.foldRecord(s, rec)
			s.seen(rec.LastSeenUS)
		}
	}
	s.seen(ts)
	return s
}

// finalize removes a source, retaining its incident if it ever
// advanced past NONE. The caller takes it out of byStamp.
func (c *Correlator) finalize(s *sourceState) {
	delete(c.sources, s.src)
	if s.stage(c.cfg.WindowUS, c.cfg.FanoutThreshold) == StageNone {
		return
	}
	c.completed = append(c.completed, s.derive(c.cfg.WindowUS, c.cfg.FanoutThreshold))
	// Trim lazily at 2x the cap so a finalization storm costs an
	// amortized O(1) copy per incident, not O(cap).
	if len(c.completed) > 2*maxCompleted {
		c.completed = append(c.completed[:0], c.completed[len(c.completed)-maxCompleted:]...)
	}
}

// maybeSweep finalizes idle sources — those whose stamp predates the
// idle cutoff — once per quarter idle-interval of trace time, in
// (stamp, address) order, and rebuilds byStamp from the sources left.
func (c *Correlator) maybeSweep() {
	if c.maxTS-c.lastSweep < sourceIdleUS/4+1 {
		return
	}
	c.lastSweep = c.maxTS
	if c.maxTS <= sourceIdleUS {
		return
	}
	cutoff := c.maxTS - sourceIdleUS
	var idle []*sourceState
	for _, s := range c.sources {
		if s.stamp() < cutoff {
			idle = append(idle, s)
		}
	}
	if len(idle) == 0 {
		return
	}
	slices.SortFunc(idle, staler)
	for _, s := range idle {
		c.finalize(s)
		c.m.evictedIdle.Add(1)
	}
	c.byStamp.reset()
	for _, s := range c.sources {
		c.byStamp = append(c.byStamp, stampEntry{s.stamp(), s})
	}
	heap.Init(&c.byStamp)
}

// staler orders sources by (stamp, address), the order the idle sweep
// and the source cap finalize them in.
func staler(x, y *sourceState) int {
	if c := cmp.Compare(x.stamp(), y.stamp()); c != 0 {
		return c
	}
	return x.src.Compare(y.src)
}

// stampHeap is a lazy min-heap of the tracked sources, one entry per
// source, ordered by (key, address). An entry's key is its source's
// stamp when the entry was last placed. Stamps only rise and touches
// leave the heap alone, so a key may lag its source's stamp but never
// lead it: a top whose key is current is the least (stamp, address)
// of all, and a stale top is re-keyed and sifted down.
type stampHeap []stampEntry

type stampEntry struct {
	key uint64
	s   *sourceState
}

func (h stampHeap) Len() int { return len(h) }
func (h stampHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].s.src.Less(h[j].s.src)
}
func (h stampHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stampHeap) Push(x any) {
	s := x.(*sourceState)
	*h = append(*h, stampEntry{s.stamp(), s})
}
func (h *stampHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = stampEntry{}
	*h = old[:len(old)-1]
	return e.s
}

// popOldest removes and returns the source with the least (stamp,
// address). The heap must not be empty.
func (h *stampHeap) popOldest() *sourceState {
	for (*h)[0].key != (*h)[0].s.stamp() {
		(*h)[0].key = (*h)[0].s.stamp()
		heap.Fix(h, 0)
	}
	return heap.Pop(h).(*sourceState)
}

// reset empties the heap, keeping its storage.
func (h *stampHeap) reset() {
	clear(*h)
	*h = (*h)[:0]
}

// notify delivers a derived incident to OnIncident when the source's
// stage rises. Called with mu held; the derived snapshot is a value,
// so the callback cannot race correlator state.
func (c *Correlator) notify(s *sourceState) {
	st := s.stage(c.cfg.WindowUS, c.cfg.FanoutThreshold)
	if st <= s.notified {
		return
	}
	if s.notified == StageNone {
		c.m.incidents.Add(1)
	}
	prev := s.notified
	s.notified = st
	inc := s.derive(c.cfg.WindowUS, c.cfg.FanoutThreshold)
	// Observe first-packet→stage latency once per stage, as it rises.
	// Trace time, from the same derived transitions the incident
	// renders, so the measured quantity is exactly what the report
	// shows.
	for _, t := range inc.Transitions {
		if t.Stage > prev && t.Stage <= st {
			c.stageLatUS[t.Stage].Observe(int64(t.AtUS) - int64(inc.FirstUS))
		}
	}
	if c.cfg.OnIncident != nil {
		c.cfg.OnIncident(inc)
	}
}

// Incidents derives the current incident set: every live source whose
// stage rose above NONE, plus finalized incidents, ordered by stage
// (descending), severity (descending), then source address — a
// deterministic rendering of deterministic evidence, so the output is
// byte-identical whatever the shard count that produced the events.
func (c *Correlator) Incidents() []Incident {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Incident, 0, len(c.completed)+len(c.sources))
	out = append(out, c.completed...)
	for _, s := range c.sources {
		if inc := s.derive(c.cfg.WindowUS, c.cfg.FanoutThreshold); inc.Stage != StageNone {
			out = append(out, inc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage > out[j].Stage
		}
		if severityRank[out[i].Severity] != severityRank[out[j].Severity] {
			return severityRank[out[i].Severity] > severityRank[out[j].Severity]
		}
		return out[i].Src.Less(out[j].Src)
	})
	return out
}

// Metrics returns current counters and gauges.
func (c *Correlator) Metrics() Metrics {
	c.mu.Lock()
	tracked, lin := len(c.sources), c.lin.Len()
	c.mu.Unlock()
	return Metrics{
		Events:             c.m.events.Load(),
		FlowOpens:          c.m.flowOpens.Load(),
		Alerts:             c.m.alerts.Load(),
		Fingerprints:       c.m.fingerprints.Load(),
		SourcesTracked:     tracked,
		SourcesEvictedLRU:  c.m.evictedLRU.Load(),
		SourcesEvictedIdle: c.m.evictedIdle.Load(),
		Incidents:          c.m.incidents.Load(),

		LineageObservations: c.m.lineage.Load(),
		LineageTracked:      lin,
	}
}
