package incident

import (
	"container/list"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"semnids/internal/core"
	"semnids/internal/telemetry"
)

// Config parameterizes the correlator.
type Config struct {
	// WindowUS is the sliding trace-time window for destination
	// fan-out (default DefaultWindowUS, 30s).
	WindowUS uint64

	// FanoutThreshold is the distinct-destination count inside the
	// window that establishes RECON (default 3).
	FanoutThreshold int

	// QueueDepth bounds the event channel between the shards and the
	// correlator goroutine; a full queue applies backpressure, never
	// silent loss (default 4096).
	QueueDepth int

	// MaxSources caps tracked sources; least-recently-active sources
	// beyond it are finalized and evicted (default 65536).
	MaxSources int

	// SourceIdleUS finalizes sources with no activity for this much
	// trace time (default 10 minutes). A source that reappears after
	// finalization starts a fresh incident, and whether a straggling
	// event lands before or after the sweep depends on cross-shard
	// arrival order — so, as with the evidence caps, the byte-identical
	// determinism guarantee holds for sources that stay within the
	// idle window (and the LRU budget) for the life of the trace.
	SourceIdleUS uint64

	// MaxDestinations caps per-source fan-out evidence (default 256).
	MaxDestinations int

	// MaxFingerprints caps per-source payload-identity evidence —
	// fingerprints the source was attacked with and fingerprints it
	// emitted (default 64 each). Emitted fingerprints and the
	// per-fingerprint attacker lists retain the minimum-timestamp K
	// (order-independent); the attacked-with map itself admits in
	// arrival order once full, so determinism across shard counts is
	// guaranteed only while a victim's distinct attack-payload count
	// stays within this cap — the bounded-memory compromise.
	MaxFingerprints int

	// MaxVictims caps per-source propagation victims (default 16).
	MaxVictims int

	// MaxAlerts caps per-source alert evidence — distinct (timestamp,
	// destination, template) observations under a min-timestamp-K cap
	// (default 128). The rendered alert count saturates here.
	MaxAlerts int

	// MaxCompleted caps retained finalized incidents (default 1024;
	// oldest are dropped first).
	MaxCompleted int

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
}

// maxAttackersPerFingerprint bounds how many distinct attackers one
// victim links to a single payload identity.
const maxAttackersPerFingerprint = 4

// DefaultWindowUS is Config.WindowUS' default.
const DefaultWindowUS = 30_000_000

func (cfg Config) withDefaults() Config {
	if cfg.WindowUS == 0 {
		cfg.WindowUS = DefaultWindowUS
	}
	if cfg.FanoutThreshold <= 0 {
		cfg.FanoutThreshold = 3
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.MaxSources <= 0 {
		cfg.MaxSources = 65536
	}
	if cfg.SourceIdleUS == 0 {
		cfg.SourceIdleUS = 10 * 60 * 1e6
	}
	if cfg.MaxDestinations <= 0 {
		cfg.MaxDestinations = 256
	}
	if cfg.MaxFingerprints <= 0 {
		cfg.MaxFingerprints = 64
	}
	if cfg.MaxVictims <= 0 {
		cfg.MaxVictims = 16
	}
	if cfg.MaxAlerts <= 0 {
		cfg.MaxAlerts = 128
	}
	if cfg.MaxCompleted <= 0 {
		cfg.MaxCompleted = 1024
	}
	return cfg
}

// Metrics is a snapshot of correlator counters and gauges.
type Metrics struct {
	// Events counts everything received; the per-kind counters break
	// it down.
	Events, FlowOpens, Alerts, Fingerprints, FlowEvicts uint64

	// SourcesTracked is the live state-machine count;
	// SourcesEvictedLRU / SourcesEvictedIdle count finalizations that
	// bounded it.
	SourcesTracked                        int
	SourcesEvictedLRU, SourcesEvictedIdle uint64

	// Incidents counts sources whose derived stage ever rose above
	// NONE; SubDropped counts subscriber deliveries shed on full
	// subscriber buffers.
	Incidents  uint64
	SubDropped uint64
}

// msg is one correlator input: an event or a flush barrier.
type msg struct {
	ev  core.Event
	ctl *sync.WaitGroup
}

// Correlator consumes engine events and maintains per-source
// kill-chain state machines. Publish may be called from any number of
// goroutines; all state is owned by the single run goroutine, with a
// mutex taken only around state mutation and snapshot reads.
type Correlator struct {
	cfg Config

	in       chan msg
	done     chan struct{}
	stopOnce sync.Once
	stopped  atomic.Bool
	// sendMu serializes channel sends against Stop's close: Publish
	// and Flush hold it shared, Stop exclusively, so a send can never
	// race the close into a panic. The consumer keeps draining until
	// the close, so shared holders always make progress.
	sendMu sync.RWMutex

	// mu guards sources/lru/completed: held by the run goroutine while
	// applying one event and by Incidents/Metrics readers.
	mu        sync.Mutex
	sources   map[netip.Addr]*sourceState
	lru       *list.List // front = most recently active
	completed []Incident
	maxTS     uint64
	lastSweep uint64

	m struct {
		events, flowOpens, alerts, fingerprints, flowEvicts atomic.Uint64
		evictedLRU, evictedIdle                             atomic.Uint64
		incidents                                           atomic.Uint64
		subDropped                                          atomic.Uint64
	}

	// stageLatUS, indexed by Stage, records trace-time µs from a
	// source's first packet to each derived stage crossing — the
	// kill-chain response-latency series ROADMAP asks for as a
	// measured quantity.
	stageLatUS [StagePropagation + 1]*telemetry.Histogram

	subMu   sync.Mutex
	subs    map[int]chan Incident
	nextSub int

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
		lru:     list.New(),
		subs:    make(map[int]chan Incident),
	}
	c.in = make(chan msg, c.cfg.QueueDepth)
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
	reg.CounterFunc(`semnids_incident_events_by_kind_total{kind="flow_evict"}`, "Events by kind.", c.m.flowEvicts.Load)
	reg.CounterFunc(`semnids_incident_sources_evicted_total{reason="lru"}`, "Sources finalized to bound state.", c.m.evictedLRU.Load)
	reg.CounterFunc(`semnids_incident_sources_evicted_total{reason="idle"}`, "Sources finalized to bound state.", c.m.evictedIdle.Load)
	reg.CounterFunc("semnids_incident_incidents_total", "Sources whose derived stage rose above NONE.", c.m.incidents.Load)
	reg.CounterFunc("semnids_incident_sub_dropped_total", "Subscriber deliveries shed on full buffers.", c.m.subDropped.Load)
	reg.GaugeFunc("semnids_incident_sources_tracked", "Live per-source state machines.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.sources))
	})
	reg.GaugeFunc("semnids_incident_queue_depth", "Events buffered toward the correlator goroutine.", func() int64 {
		return int64(len(c.in))
	})
	for st := StageRecon; st <= StagePropagation; st++ {
		c.stageLatUS[st] = reg.Histogram(
			`semnids_incident_stage_latency_us{stage="`+strings.ToLower(st.String())+`"}`,
			"Trace-time µs from a source's first packet to each derived kill-chain stage.")
	}
}

// Publish offers one event. It blocks when the bounded queue is full
// (backpressure, mirroring the engine's PolicyBlock default) and is a
// no-op after — or concurrent with — Stop.
func (c *Correlator) Publish(ev core.Event) {
	c.sendMu.RLock()
	defer c.sendMu.RUnlock()
	if c.stopped.Load() {
		return
	}
	c.in <- msg{ev: ev}
}

// Flush blocks until every event published before it has been applied.
// No-op after Stop.
func (c *Correlator) Flush() {
	var wg sync.WaitGroup
	c.sendMu.RLock()
	if c.stopped.Load() {
		c.sendMu.RUnlock()
		return
	}
	wg.Add(1)
	c.in <- msg{ctl: &wg}
	c.sendMu.RUnlock()
	wg.Wait()
}

// Stop terminates the correlator goroutine after draining queued
// events. Idempotent; Incidents and Metrics stay readable.
func (c *Correlator) Stop() {
	c.stopOnce.Do(func() {
		c.sendMu.Lock()
		c.stopped.Store(true)
		c.sendMu.Unlock()
		close(c.in)
		<-c.done
	})
}

// Subscribe registers a live incident feed: every stage transition is
// delivered as a derived incident snapshot. A subscriber that falls
// behind its buffer sheds deliveries (counted in Metrics.SubDropped)
// rather than stalling correlation. cancel unregisters and closes the
// channel.
func (c *Correlator) Subscribe(buf int) (<-chan Incident, func()) {
	if buf <= 0 {
		buf = 16
	}
	ch := make(chan Incident, buf)
	c.subMu.Lock()
	id := c.nextSub
	c.nextSub++
	c.subs[id] = ch
	c.subMu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			c.subMu.Lock()
			delete(c.subs, id)
			c.subMu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

func (c *Correlator) run() {
	defer close(c.done)
	for m := range c.in {
		if m.ctl != nil {
			m.ctl.Done()
			continue
		}
		c.mu.Lock()
		c.apply(m.ev)
		c.mu.Unlock()
	}
}

// apply folds one event into the evidence model. Called with mu held.
func (c *Correlator) apply(ev core.Event) {
	c.m.events.Add(1)
	if ev.TimestampUS > c.maxTS {
		c.maxTS = ev.TimestampUS
	}

	switch ev.Kind {
	case core.EventFlowOpen:
		c.m.flowOpens.Add(1)
		s := c.source(ev.Src, ev.TimestampUS)
		s.touchContent(ev.TimestampUS)
		s.dests.put(ev.Dst, ev.TimestampUS, c.cfg.MaxDestinations)
		// Fan-out is the only stage a flow-open can raise; skip the
		// derivation (it sorts the evidence) until it can trigger.
		if s.notified < StageRecon && s.dests.len() >= c.cfg.FanoutThreshold {
			c.notify(s)
		}

	case core.EventAlert:
		c.m.alerts.Add(1)
		s := c.source(ev.Src, ev.TimestampUS)
		s.touchContent(ev.TimestampUS)
		s.dests.put(ev.Dst, ev.TimestampUS, c.cfg.MaxDestinations)
		s.alertTimes.put(alertKey{tsUS: ev.TimestampUS, dst: ev.Dst, template: ev.Template},
			ev.TimestampUS, c.cfg.MaxAlerts)
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
			// Src. If the victim has already been seen emitting the
			// same fingerprint later in trace time (events can arrive
			// out of order across shards), the link closes now.
			v := c.source(ev.Dst, ev.TimestampUS)
			refs, present := v.targetedBy[ev.Fingerprint]
			refs = addAttackerRef(refs, ev.Src, ev.TimestampUS, maxAttackersPerFingerprint)
			if present || len(v.targetedBy) < c.cfg.MaxFingerprints {
				v.targetedBy[ev.Fingerprint] = refs
			}
			if sp, ok := v.emitted.get(ev.Fingerprint); ok && sp.last > ev.TimestampUS {
				c.escalate(ev.Src, ev.Dst, echoTime(sp, ev.TimestampUS))
			}
			// No notify for the victim: being targeted does not change
			// its own derived stage.
		}
		// Structural identity rides the same machinery: when lineage is
		// on, the sketch's decoded-tail fingerprint shares the 128-bit
		// keyspace with exact fingerprints, so folding it into the same
		// victim-side sets makes a victim that re-emits a *re-encoded*
		// descendant of the attack payload close the propagation link —
		// the polymorphism-proof PROPAGATION the exact match cannot see.
		// With lineage off the sketch is zero and nothing here runs.
		if tfp := tailFP(ev); !tfp.IsZero() && tfp != ev.Fingerprint {
			v := c.source(ev.Dst, ev.TimestampUS)
			refs, present := v.targetedBy[tfp]
			refs = addAttackerRef(refs, ev.Src, ev.TimestampUS, maxAttackersPerFingerprint)
			if present || len(v.targetedBy) < c.cfg.MaxFingerprints {
				v.targetedBy[tfp] = refs
			}
			if sp, ok := v.emitted.get(tfp); ok && sp.last > ev.TimestampUS {
				c.escalate(ev.Src, ev.Dst, echoTime(sp, ev.TimestampUS))
			}
		}
		c.notify(s)

	case core.EventFingerprint:
		c.m.fingerprints.Add(1)
		s := c.source(ev.Src, ev.TimestampUS)
		s.touchContent(ev.TimestampUS)
		s.emitted.put(ev.Fingerprint, ev.TimestampUS, c.cfg.MaxFingerprints)
		// This source may be a victim re-emitting a payload it was
		// attacked with: close the propagation link on each attacker
		// whose delivery the folded emission span postdates. Checking
		// the span — not this event's timestamp — reaches the same
		// verdict as the alert-side check whatever the arrival order.
		// An emission changes the *attacker's* stage (via escalate),
		// never the emitter's own, so no self-notify here.
		if sp, ok := s.emitted.get(ev.Fingerprint); ok {
			for _, ref := range s.targetedBy[ev.Fingerprint] {
				if sp.last > ref.tsUS {
					c.escalate(ref.attacker, ev.Src, echoTime(sp, ref.tsUS))
				}
			}
		}
		// And the structural identity (see the alert-side fold): an
		// emission of any variant decoding to the same tail counts as
		// an emission of the family, closing links the exact
		// fingerprint misses after re-encoding.
		if tfp := tailFP(ev); !tfp.IsZero() && tfp != ev.Fingerprint {
			s.emitted.put(tfp, ev.TimestampUS, c.cfg.MaxFingerprints)
			if sp, ok := s.emitted.get(tfp); ok {
				for _, ref := range s.targetedBy[tfp] {
					if sp.last > ref.tsUS {
						c.escalate(ref.attacker, ev.Src, echoTime(sp, ref.tsUS))
					}
				}
			}
		}

	case core.EventFlowEvict:
		// Bookkeeping only: eviction timing depends on shard count and
		// byte budgets, so it must not shape incident content.
		c.m.flowEvicts.Add(1)
		if s := c.sources[ev.Src]; s != nil {
			c.touchLRU(s, ev.TimestampUS)
		}
	}

	c.maybeSweep()
}

// tailFP lifts an event's structural sketch into the fingerprint
// keyspace: the decoded-tail identity shared by every re-encoding of
// one payload (zero when lineage is off or the frame decoded nothing).
func tailFP(ev core.Event) core.Fingerprint {
	if !ev.Sketch.HasTail() {
		return core.Fingerprint{}
	}
	return core.Fingerprint{A: ev.Sketch.TailA, B: ev.Sketch.TailB, N: ev.Sketch.TailN}
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
// produce (the zero timestamp refreshes recency without touching the
// clock).
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
	a.victims.put(victim, echoTS, c.cfg.MaxVictims)
	if tracked {
		if after, has := a.victims.get(victim); moved || had != has || before.first != after.first {
			c.track.changed(attacker)
		}
		return
	}
	c.notify(a)
}

// source returns (creating if needed) the state machine for src and
// refreshes its recency. Creation beyond MaxSources finalizes the
// least-recently-active source first.
func (c *Correlator) source(src netip.Addr, ts uint64) *sourceState {
	s := c.sources[src]
	if s == nil {
		if len(c.sources) >= c.cfg.MaxSources {
			oldest := c.lru.Back()
			c.finalize(oldest.Value.(*sourceState))
			c.m.evictedLRU.Add(1)
		}
		s = &sourceState{
			src:        src,
			dests:      newMinKSet[netip.Addr](lessAddr),
			alertTimes: newMinKSet[alertKey](lessAlertKey),
			templates:  make(map[string]bool),
			targetedBy: make(map[core.Fingerprint][]attackRef),
			emitted:    newMinKSet[core.Fingerprint](lessFingerprint),
			victims:    newMinKSet[netip.Addr](lessAddr),
		}
		s.elem = c.lru.PushFront(s)
		c.sources[src] = s
		if rec := c.track.held(src); rec != nil {
			// A Fold's merge state holds only the sources a merge
			// touches: bring this one in from its rendered record.
			c.foldRecord(s, rec)
			c.touchLRU(s, rec.LastSeenUS)
		}
	}
	c.touchLRU(s, ts)
	return s
}

func (c *Correlator) touchLRU(s *sourceState, ts uint64) {
	if ts > s.lastSeenUS {
		s.lastSeenUS = ts
	}
	c.lru.MoveToFront(s.elem)
}

// finalize removes a source, retaining its incident if it ever
// advanced past NONE.
func (c *Correlator) finalize(s *sourceState) {
	delete(c.sources, s.src)
	c.lru.Remove(s.elem)
	if s.stage(c.cfg.WindowUS, c.cfg.FanoutThreshold) == StageNone {
		return
	}
	c.completed = append(c.completed, s.derive(c.cfg.WindowUS, c.cfg.FanoutThreshold))
	// Trim lazily at 2x the cap so a finalization storm costs an
	// amortized O(1) copy per incident, not O(cap).
	if len(c.completed) > 2*c.cfg.MaxCompleted {
		c.completed = append(c.completed[:0], c.completed[len(c.completed)-c.cfg.MaxCompleted:]...)
	}
}

// maybeSweep finalizes idle sources once per idle-interval of trace
// time. Walking the LRU from the back visits oldest first and stops at
// the first live source.
func (c *Correlator) maybeSweep() {
	if c.maxTS-c.lastSweep < c.cfg.SourceIdleUS/4+1 {
		return
	}
	c.lastSweep = c.maxTS
	if c.maxTS <= c.cfg.SourceIdleUS {
		return
	}
	cutoff := c.maxTS - c.cfg.SourceIdleUS
	for {
		back := c.lru.Back()
		if back == nil {
			return
		}
		s := back.Value.(*sourceState)
		if s.lastSeenUS >= cutoff || s.echoUS >= cutoff {
			return
		}
		c.finalize(s)
		c.m.evictedIdle.Add(1)
	}
}

// notify delivers a derived incident to OnIncident and subscribers
// when the source's stage rises. Called with mu held; the derived
// snapshot is a value, so callbacks cannot race correlator state.
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
	c.subMu.Lock()
	for _, ch := range c.subs {
		select {
		case ch <- inc:
		default:
			c.m.subDropped.Add(1)
		}
	}
	c.subMu.Unlock()
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
	tracked := len(c.sources)
	c.mu.Unlock()
	return Metrics{
		Events:             c.m.events.Load(),
		FlowOpens:          c.m.flowOpens.Load(),
		Alerts:             c.m.alerts.Load(),
		Fingerprints:       c.m.fingerprints.Load(),
		FlowEvicts:         c.m.flowEvicts.Load(),
		SourcesTracked:     tracked,
		SourcesEvictedLRU:  c.m.evictedLRU.Load(),
		SourcesEvictedIdle: c.m.evictedIdle.Load(),
		Incidents:          c.m.incidents.Load(),
		SubDropped:         c.m.subDropped.Load(),
	}
}
