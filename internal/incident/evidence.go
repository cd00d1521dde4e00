package incident

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/lineage"
	"semnids/internal/telemetry"
)

// This file is the federation half of the correlator: a source's
// evidence state as a plain serializable value (SourceEvidence), a
// sensor-level snapshot of all of them (EvidenceExport), and the
// operations federation needs — export, import (crash recovery and
// sensor seeding), and a merge that is a join (fold.go).
//
// The design constraint comes from the correlator's determinism
// invariant: evidence is a *set* (min-timestamp-K caps, min/max scalar
// folds), never a function of arrival order, so two sensors that each
// saw part of a trace can union their evidence and re-derive the same
// incidents a single sensor would have produced — byte-identical,
// within the configured caps. Every record carries per-sensor
// provenance (Sensors), so merged evidence stays traceable to the
// sensors that observed it — the identifiable-parent property for
// evidence sets: collusion-style merging never launders the origin.

// DefaultWindowUS is Params.WindowUS' default.
const DefaultWindowUS = 30_000_000

// Params are the correlation parameters evidence is gathered under,
// and the determinism contract of every merge: evidence folds into
// other evidence only when both were gathered under equal Params. A
// 30 s window and a 10 s one derive different stages from the same
// evidence, and a min-K set capped at 256 and one capped at 64 can
// disagree even on what they share. So a segment header carries
// Params whole, and every merge — Import, a Fold — compares them
// whole. Comparable; the JSON tags are the wire's.
type Params struct {
	// WindowUS is the sliding trace-time window for destination
	// fan-out (default DefaultWindowUS, 30s).
	WindowUS uint64 `json:"window_us"`

	// FanoutThreshold is the distinct-destination count inside the
	// window that establishes RECON (default 3).
	FanoutThreshold int `json:"fanout_threshold"`

	Limits EvidenceLimits `json:"limits"`
}

// EvidenceLimits are the per-source evidence caps.
type EvidenceLimits struct {
	// MaxDestinations caps fan-out evidence (default 256).
	MaxDestinations int `json:"max_destinations"`

	// MaxAlerts caps alert evidence — distinct (timestamp,
	// destination, template) observations under a min-timestamp-K cap
	// (default 128). The rendered alert count saturates here.
	MaxAlerts int `json:"max_alerts"`

	// MaxFingerprints caps payload-identity evidence — fingerprints
	// the source was attacked with and fingerprints it emitted
	// (default 64 each). Emitted fingerprints and the per-fingerprint
	// attacker lists retain the minimum-timestamp K (order-
	// independent); the attacked-with map itself admits in arrival
	// order once full, so determinism across shard counts is
	// guaranteed only while a victim's distinct attack-payload count
	// stays within this cap — the bounded-memory compromise.
	MaxFingerprints int `json:"max_fingerprints"`

	// MaxVictims caps propagation victims (default 16).
	MaxVictims int `json:"max_victims"`
}

func (p Params) withDefaults() Params {
	if p.WindowUS == 0 {
		p.WindowUS = DefaultWindowUS
	}
	if p.FanoutThreshold <= 0 {
		p.FanoutThreshold = 3
	}
	l := &p.Limits
	if l.MaxDestinations <= 0 {
		l.MaxDestinations = 256
	}
	if l.MaxAlerts <= 0 {
		l.MaxAlerts = 128
	}
	if l.MaxFingerprints <= 0 {
		l.MaxFingerprints = 64
	}
	if l.MaxVictims <= 0 {
		l.MaxVictims = 16
	}
	return p
}

// Validate rejects parameters no correlator runs under: a zero window,
// or a threshold or cap below one — what withDefaults would replace.
// Only a hand-built export or a crafted segment header carries them.
func (p Params) Validate() error {
	if p != p.withDefaults() {
		return fmt.Errorf("incident: invalid correlation parameters %+v", p)
	}
	return nil
}

// compatible is the precondition of every fold: evidence gathered
// under q does not fold into state kept under p.
func (p Params) compatible(q Params) error {
	if q != p {
		return fmt.Errorf("incident: evidence under correlation parameters %+v incompatible with %+v", q, p)
	}
	return nil
}

// DestEvidence is one destination's observation span (also used for
// propagation victims: the span of qualifying payload echoes).
type DestEvidence struct {
	Addr    netip.Addr `json:"addr"`
	FirstUS uint64     `json:"first_us"`
	LastUS  uint64     `json:"last_us"`
}

// AlertEvidence is one retained alert observation.
type AlertEvidence struct {
	TsUS     uint64     `json:"ts_us"`
	Dst      netip.Addr `json:"dst"`
	Template string     `json:"template,omitempty"`
}

// AttackerRef names an attacker that delivered a payload to this
// source, with the earliest delivery time.
type AttackerRef struct {
	Attacker netip.Addr `json:"attacker"`
	TsUS     uint64     `json:"ts_us"`
}

// FingerprintAttackers is the victim-side propagation evidence for
// one payload identity.
type FingerprintAttackers struct {
	Fingerprint core.Fingerprint `json:"fp"`
	Refs        []AttackerRef    `json:"refs"`
}

// FingerprintSpan is the emission span of one payload identity.
type FingerprintSpan struct {
	Fingerprint core.Fingerprint `json:"fp"`
	FirstUS     uint64           `json:"first_us"`
	LastUS      uint64           `json:"last_us"`
}

// VictimEvidence is one propagation victim with its canonical
// (earliest qualifying) echo time. Deliberately not a span: the
// in-memory victim set's upper bound folds whichever intermediate
// echo values the event interleaving produced — arrival-order noise
// the determinism contract excludes (rendering uses membership and
// the minimum only), so the wire format carries just the canonical
// instant.
type VictimEvidence struct {
	Addr   netip.Addr `json:"addr"`
	EchoUS uint64     `json:"echo_us"`
}

// SourceEvidence is one source's full evidence state, rendered as a
// deterministic value: every slice is sorted under the same total
// orders the in-memory caps use, so the same evidence always
// serializes to the same bytes.
type SourceEvidence struct {
	Src netip.Addr `json:"src"`

	// Sensors is the provenance set: every sensor whose observation
	// (or exported evidence) contributed to this record. Sorted.
	Sensors []string `json:"sensors,omitempty"`

	// Stage is the stage derived from this evidence at export time —
	// informational (re-derived after any merge), never folded.
	Stage string `json:"stage"`

	FirstUS    uint64 `json:"first_us,omitempty"`
	LastUS     uint64 `json:"last_us,omitempty"`
	LastSeenUS uint64 `json:"last_seen_us,omitempty"`

	Dests  []DestEvidence  `json:"dests,omitempty"`
	Alerts []AlertEvidence `json:"alerts,omitempty"`

	ExploitAtUS uint64   `json:"exploit_at_us,omitempty"`
	Severity    string   `json:"severity,omitempty"`
	Templates   []string `json:"templates,omitempty"`

	TargetedBy []FingerprintAttackers `json:"targeted_by,omitempty"`
	Emitted    []FingerprintSpan      `json:"emitted,omitempty"`

	PropagationAtUS uint64           `json:"propagation_at_us,omitempty"`
	Victims         []VictimEvidence `json:"victims,omitempty"`
}

// ClassifierEvidence is one source's classification-stage state, the
// classifier's own export record: persisting it alongside the
// correlator's evidence means a restarted or failed-over sensor does
// not grant a slow scanner a fresh start — two touches before the
// restart plus one after still cross a threshold of three.
type ClassifierEvidence = classify.SourceState

// EvidenceExport is one sensor's evidence snapshot (or the merge of
// several sensors'): the correlation parameters the evidence was
// gathered under, plus every tracked source's evidence, sorted by
// source address — and, when the sensor runs a classifier, its
// per-source classification state (sub-threshold scan sets and
// suspicious marks), so selection behavior survives restart and
// failover too.
type EvidenceExport struct {
	Sensors []string
	Params
	Sources    []SourceEvidence
	Classifier []ClassifierEvidence

	// Lineage is the sensor's structural-payload observation set (the
	// correlator's lineage set, canonically ordered): one record per
	// distinct hostile payload with its decoded-tail family identity
	// and first witnessed delivery — the input to ancestry tracing.
	// Empty unless the sensor runs with lineage enabled. Merged with
	// the same commutative/idempotent discipline as every other
	// evidence set.
	Lineage []lineage.Observation
}

// cloneLocked deep-copies the evidence for rendering outside the
// correlator lock: map copies only — the expensive part of an export
// (sorting, slice building) must not run under c.mu, which the event
// apply path contends for. Called with mu held.
func (s *sourceState) cloneLocked() *sourceState {
	cp := &sourceState{
		src:           s.src,
		firstUS:       s.firstUS,
		lastUS:        s.lastUS,
		lastSeenUS:    s.lastSeenUS,
		dests:         minKSet[netip.Addr]{m: maps.Clone(s.dests.m), less: s.dests.less},
		alertTimes:    minKSet[alertKey]{m: maps.Clone(s.alertTimes.m), less: s.alertTimes.less},
		exploitAt:     s.exploitAt,
		severity:      s.severity,
		templates:     maps.Clone(s.templates),
		targetedBy:    make(map[core.Fingerprint][]attackRef, len(s.targetedBy)),
		emitted:       minKSet[core.Fingerprint]{m: maps.Clone(s.emitted.m), less: s.emitted.less},
		propagationAt: s.propagationAt,
		victims:       minKSet[netip.Addr]{m: maps.Clone(s.victims.m), less: s.victims.less},
		sensors:       maps.Clone(s.sensors),
	}
	for fp, refs := range s.targetedBy {
		cp.targetedBy[fp] = append([]attackRef(nil), refs...)
	}
	return cp
}

// Export snapshots every live source's evidence and the lineage
// observations under the given sensor ID, which stamps the sources and
// the observations folded from live events. Both are taken under one
// lock hold, so a checkpoint is one snapshot. Safe concurrently with
// correlation, and cheap to run concurrently: the lock is held for map
// copies and the lineage set's render (at most lineage.StoreCap
// observations), while rendering and sorting the sources — the bulk
// of the work on a full source table — happen outside it (the durable
// sink calls this periodically from its own goroutine). Finalized
// (completed) incidents are rendered verdicts, not evidence, and are
// not exported — a source idle for 10 minutes of trace time, or pushed
// out by the 65 536-source cap, does not survive a restart unless an
// export caught it before finalization.
func (c *Correlator) Export(sensor string) *EvidenceExport {
	c.mu.Lock()
	clones := make([]*sourceState, 0, len(c.sources))
	for _, s := range c.sources {
		clones = append(clones, s.cloneLocked())
	}
	lin := c.lin.Export(sensor)
	c.mu.Unlock()

	local := []string{sensor}
	ex := &EvidenceExport{
		Sensors: local,
		Params:  c.cfg.Params,
		Sources: make([]SourceEvidence, 0, len(clones)),
		Lineage: lin,
	}
	for _, s := range clones {
		ex.Sources = append(ex.Sources, s.export(local, c.cfg.WindowUS, c.cfg.FanoutThreshold))
	}
	sort.Slice(ex.Sources, func(i, j int) bool { return ex.Sources[i].Src.Less(ex.Sources[j].Src) })
	return ex
}

// Lineage renders the lineage observations as Export does, without
// the sources.
func (c *Correlator) Lineage(sensor string) []lineage.Observation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lin.Export(sensor)
}

// export renders one source's evidence as a SourceEvidence value. Its
// provenance is the sensors folded in by Import plus local: the
// exporting sensor, or none when a Fold renders merged evidence.
func (s *sourceState) export(local []string, windowUS uint64, threshold int) SourceEvidence {
	ev := SourceEvidence{
		Src:             s.src,
		Stage:           s.stage(windowUS, threshold).String(),
		FirstUS:         s.firstUS,
		LastUS:          s.lastUS,
		LastSeenUS:      s.lastSeenUS,
		ExploitAtUS:     s.exploitAt,
		Severity:        s.severity,
		PropagationAtUS: s.propagationAt,
		Sensors:         core.SortedUnion(slices.Collect(maps.Keys(s.sensors)), local),
	}

	for k, sp := range s.dests.m {
		ev.Dests = append(ev.Dests, DestEvidence{Addr: k, FirstUS: sp.first, LastUS: sp.last})
	}
	sort.Slice(ev.Dests, func(i, j int) bool { return ev.Dests[i].Addr.Less(ev.Dests[j].Addr) })

	for k := range s.alertTimes.m {
		ev.Alerts = append(ev.Alerts, AlertEvidence{TsUS: k.tsUS, Dst: k.dst, Template: k.template})
	}
	sort.Slice(ev.Alerts, func(i, j int) bool {
		a, b := ev.Alerts[i], ev.Alerts[j]
		return lessAlertKey(alertKey{a.TsUS, a.Dst, a.Template}, alertKey{b.TsUS, b.Dst, b.Template})
	})

	for t := range s.templates {
		ev.Templates = append(ev.Templates, t)
	}
	sort.Strings(ev.Templates)

	for fp, refs := range s.targetedBy {
		fa := FingerprintAttackers{Fingerprint: fp, Refs: make([]AttackerRef, 0, len(refs))}
		for _, r := range refs {
			fa.Refs = append(fa.Refs, AttackerRef{Attacker: r.attacker, TsUS: r.tsUS})
		}
		sort.Slice(fa.Refs, func(i, j int) bool { return fa.Refs[i].Attacker.Less(fa.Refs[j].Attacker) })
		ev.TargetedBy = append(ev.TargetedBy, fa)
	}
	sort.Slice(ev.TargetedBy, func(i, j int) bool {
		return ev.TargetedBy[i].Fingerprint.Less(ev.TargetedBy[j].Fingerprint)
	})

	for fp, sp := range s.emitted.m {
		ev.Emitted = append(ev.Emitted, FingerprintSpan{Fingerprint: fp, FirstUS: sp.first, LastUS: sp.last})
	}
	sort.Slice(ev.Emitted, func(i, j int) bool {
		return ev.Emitted[i].Fingerprint.Less(ev.Emitted[j].Fingerprint)
	})

	for v, sp := range s.victims.m {
		ev.Victims = append(ev.Victims, VictimEvidence{Addr: v, EchoUS: sp.first})
	}
	sort.Slice(ev.Victims, func(i, j int) bool { return ev.Victims[i].Addr.Less(ev.Victims[j].Addr) })
	return ev
}

// parseStage maps a serialized stage name back to its value; unknown
// names are StageNone (conservative: an unknown stage is treated as
// not yet announced).
func parseStage(name string) Stage {
	switch name {
	case "RECON":
		return StageRecon
	case "EXPLOIT":
		return StageExploit
	case "PROPAGATION":
		return StagePropagation
	}
	return StageNone
}

// Import folds an evidence export into the live correlator: each
// record unions into the matching source's evidence under the same
// caps live events use, and each lineage observation into the lineage
// set, not live; then propagation is re-derived across the imported
// sources and closed (closePropagation) — the step that closes
// attacker↔victim links whose two halves were observed by different
// sensors. The notification gate is quieted only up to the
// stage each record itself had already derived (recovery does not
// re-announce); a stage that only the merged evidence proves — a
// fan-out completed by union, a cross-sensor propagation link — fires
// OnIncident as a live transition would. Idempotent:
// importing the same export twice changes nothing. An export gathered
// under other Params is refused.
func (c *Correlator) Import(ex *EvidenceExport) error {
	if err := c.cfg.Params.compatible(ex.Params); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lin != nil {
		for i := range ex.Lineage {
			c.foldLineage(&ex.Lineage[i], false)
		}
	}
	touched := make([]*sourceState, 0, len(ex.Sources))
	for i := range ex.Sources {
		rec := &ex.Sources[i]
		s := c.importSource(rec)
		touched = append(touched, s)
		// Quiet only what the record had already announced on its own
		// sensor…
		if st := parseStage(rec.Stage); st > s.notified {
			if s.notified == StageNone {
				c.m.incidents.Add(1)
			}
			s.notified = st
		}
	}
	// …then announce anything the evidence union proves beyond the
	// records, and re-derive propagation, which may raise stages
	// further (cross-sensor links).
	for _, s := range touched {
		c.notify(s)
	}
	c.closePropagation(touched)
	return nil
}

// importSource folds one record into its source state under the
// configured caps. Every fold is commutative and idempotent — min-K
// puts, min/max scalars, set unions — mirroring apply()'s handling of
// the corresponding live events.
func (c *Correlator) importSource(rec *SourceEvidence) *sourceState {
	s := c.source(rec.Src, rec.LastSeenUS)
	c.track.changed(rec.Src)
	c.foldRecord(s, rec)
	return s
}

// foldRecord is importSource's fold of one record's evidence sets and
// scalars into a source state (recency is source()'s business).
func (c *Correlator) foldRecord(s *sourceState, rec *SourceEvidence) {
	if rec.FirstUS > 0 {
		s.touchContent(rec.FirstUS)
	}
	if rec.LastUS > 0 {
		s.touchContent(rec.LastUS)
	}
	for _, sn := range rec.Sensors {
		if s.sensors == nil {
			s.sensors = make(map[string]bool, len(rec.Sensors))
		}
		s.sensors[sn] = true
	}
	for _, d := range rec.Dests {
		s.dests.put(d.Addr, d.FirstUS, c.cfg.Limits.MaxDestinations)
		s.dests.put(d.Addr, d.LastUS, c.cfg.Limits.MaxDestinations)
	}
	for _, a := range rec.Alerts {
		s.alertTimes.put(alertKey{tsUS: a.TsUS, dst: a.Dst, template: a.Template}, a.TsUS, c.cfg.Limits.MaxAlerts)
	}
	if rec.ExploitAtUS > 0 && (s.exploitAt == 0 || rec.ExploitAtUS < s.exploitAt) {
		s.exploitAt = rec.ExploitAtUS
	}
	if severityRank[rec.Severity] > severityRank[s.severity] {
		s.severity = rec.Severity
	}
	for _, t := range rec.Templates {
		if len(s.templates) < maxTemplates || s.templates[t] {
			s.templates[t] = true
		}
	}
	for _, fa := range rec.TargetedBy {
		refs, present := s.targetedBy[fa.Fingerprint]
		for _, r := range fa.Refs {
			refs = addAttackerRef(refs, r.Attacker, r.TsUS, maxAttackersPerFingerprint)
		}
		if present || len(s.targetedBy) < c.cfg.Limits.MaxFingerprints {
			s.targetedBy[fa.Fingerprint] = refs
		}
	}
	for _, e := range rec.Emitted {
		s.emitted.put(e.Fingerprint, e.FirstUS, c.cfg.Limits.MaxFingerprints)
		s.emitted.put(e.Fingerprint, e.LastUS, c.cfg.Limits.MaxFingerprints)
	}
	if rec.PropagationAtUS > 0 && (s.propagationAt == 0 || rec.PropagationAtUS < s.propagationAt) {
		s.propagationAt = rec.PropagationAtUS
	}
	for _, v := range rec.Victims {
		s.victims.put(v.Addr, v.EchoUS, c.cfg.Limits.MaxVictims)
	}
}

// rederivePropagation re-runs the propagation check over one source's
// victim-side evidence, escalating every attacker whose delivered
// payload this source's folded emission span postdates — the same
// verdict apply() reaches event by event, recomputed from merged
// evidence. The victim record's provenance travels with the verdict:
// the sensors that witnessed the victim's evidence are the witnesses
// of the attacker's escalation, so even an attacker synthesized
// purely from victim-side evidence can name them. Returns the
// attackers whose sensor set grew. Called with mu held.
func (c *Correlator) rederivePropagation(v *sourceState) (grown []*sourceState) {
	for fp, refs := range v.targetedBy {
		sp, ok := v.emitted.get(fp)
		if !ok {
			continue
		}
		for _, ref := range refs {
			if sp.last <= ref.tsUS {
				continue
			}
			c.escalate(ref.attacker, v.src, echoTime(sp, ref.tsUS))
			a := c.sources[ref.attacker]
			if a.sensors == nil && len(v.sensors) > 0 {
				a.sensors = make(map[string]bool, len(v.sensors))
			}
			n := len(a.sensors)
			for sn := range v.sensors {
				a.sensors[sn] = true
			}
			if len(a.sensors) > n {
				c.track.changed(a.src)
				grown = append(grown, a)
			}
		}
	}
	return grown
}

// closePropagation re-derives propagation from every source in todo,
// then from every attacker whose sensor set a re-derivation grew,
// until nothing grows: a victim's witnesses reach every attacker up
// its propagation chain, however many links deep, within one call.
// Sensor sets only grow, so the result is the least fixpoint whatever
// the order of todo; the worklist is FIFO and holds each source once.
// Called with mu held.
func (c *Correlator) closePropagation(todo []*sourceState) {
	queued := make(map[*sourceState]bool, len(todo))
	for _, s := range todo {
		queued[s] = true
	}
	for len(todo) > 0 {
		v := todo[0]
		todo = todo[1:]
		if !queued[v] {
			continue // a duplicate in the initial list, already visited
		}
		delete(queued, v)
		for _, a := range c.rederivePropagation(v) {
			if !queued[a] {
				queued[a] = true
				todo = append(todo, a)
			}
		}
	}
}

// mergeLimit is the source cap of merge scratch correlators:
// effectively unbounded, so a merge never LRU-finalizes evidence
// mid-fold.
const mergeLimit = 1 << 30

// newMergeState builds a correlator shell for offline evidence math:
// same state, same fold code, no goroutine (nothing is published to
// it and Stop must not be called).
func newMergeState(p Params) *Correlator {
	c := &Correlator{
		cfg:     Config{Params: p, maxSources: mergeLimit}.withDefaults(),
		sources: make(map[netip.Addr]*sourceState),
	}
	// Unregistered histograms keep the fold path free of nil checks;
	// a scratch merge's latency observations are discarded with it.
	for st := StageRecon; st <= StagePropagation; st++ {
		c.stageLatUS[st] = telemetry.NewHistogram()
	}
	return c
}

// DeriveIncidents renders an export's incident set exactly as a live
// correlator holding the same evidence would: re-derive propagation,
// derive each source's stage, drop NONE, and sort under the same
// order Correlator.Incidents uses — so a federated report is
// byte-comparable with a single sensor's live output. Returns
// Params.Validate's error on parameters no correlator runs under
// (possible only for hand-built exports; the wire decoder rejects
// such headers).
func DeriveIncidents(ex *EvidenceExport) ([]Incident, error) {
	if err := ex.Params.Validate(); err != nil {
		return nil, err
	}
	c := newMergeState(ex.Params)
	if err := c.Import(ex); err != nil {
		return nil, err
	}
	return c.Incidents(), nil
}
