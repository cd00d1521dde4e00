package incident

import (
	"net/netip"
	"slices"

	"semnids/internal/core"
	"semnids/internal/lineage"
)

// Fold is a MergeExports chain kept live. An aggregator that computes
// state = MergeExports(state, ex) for every arriving export imports
// the whole state into a fresh merge correlator and renders all of it
// again, although the arriving export touches a few records. A Fold
// keeps the rendered source records, the classifier and lineage sets
// and the sensor list across calls; a Merge brings into its merge
// correlator only the sources it touches (imported, escalated or
// re-derived — each from its rendered record, the same import the
// chain performs for every record), renders those again and lets the
// correlator go. After Merge(a) on an empty Fold and Merge(b),
// Merge(c), … the records are exactly those of
// MergeExports(MergeExports(a, b), c) …, byte for byte on the wire.
//
// What stays resident is the records, not a correlator: a source's
// evidence as maps costs about three times its rendered record, and a
// merge needs the maps of a few dozen sources at a time.
//
// The one thing a MergeExports chain does to records the arriving
// export does not name is provenance: re-importing the state
// re-derives propagation for every source, which carries a victim's
// sensor set to its attackers one link further per merge. Fold
// reproduces that by remembering the sources whose sensor set grew
// since they were last re-derived (pending) and re-deriving those, in
// address order, before each import.
//
// Not safe for concurrent use.
type Fold struct {
	c       *Correlator
	sensors []string
	cls     map[netip.Addr]*ClassifierEvidence
	lin     *lineage.Set

	dirtySrc   []netip.Addr
	dirtyCls   map[netip.Addr]struct{}
	dirtyLin   map[core.Fingerprint]struct{}
	droppedLin []core.Fingerprint
}

// foldTrack is the ledger of a Fold's merge correlator.
type foldTrack struct {
	// recs is every source's rendered record: the state. The
	// correlator's sources map holds only those the current merge has
	// touched, each brought in from its record by source().
	recs map[netip.Addr]*SourceEvidence

	// dirty holds sources whose evidence the current merge may have
	// changed; pending those whose sensor set grew since their last
	// rederivePropagation.
	dirty   map[netip.Addr]struct{}
	pending map[netip.Addr]struct{}

	// grown lists the sources that became pending since settlePending
	// last emptied it.
	grown []netip.Addr
}

func (t *foldTrack) held(src netip.Addr) *SourceEvidence {
	if t == nil {
		return nil
	}
	return t.recs[src]
}

func (t *foldTrack) changed(src netip.Addr) {
	if t != nil {
		t.dirty[src] = struct{}{}
	}
}

func (t *foldTrack) provenanceGrew(src netip.Addr) {
	if t == nil {
		return
	}
	t.dirty[src] = struct{}{}
	if _, was := t.pending[src]; !was {
		t.pending[src] = struct{}{}
		t.grown = append(t.grown, src)
	}
}

func (t *foldTrack) rederived(src netip.Addr) {
	if t != nil {
		delete(t.pending, src)
	}
}

// SourceRef is one source record of an arriving export, in the
// export's order. A nil Rec says this exact record was imported
// before: importing it again would change nothing (every evidence fold
// is idempotent), but its place in the order still decides when the
// source is re-derived.
type SourceRef struct {
	Src netip.Addr
	Rec *SourceEvidence
}

// FoldDirty names the records that changed since the last TakeDirty.
// DroppedLineage lists observations the lineage cap displaced.
type FoldDirty struct {
	Sources        []netip.Addr
	Classifier     []netip.Addr
	Lineage        []core.Fingerprint
	DroppedLineage []core.Fingerprint
}

// NewFold starts an empty fold under the given correlation parameters.
func NewFold(p Params) *Fold {
	c := newMergeState(p)
	c.track = &foldTrack{
		recs:    make(map[netip.Addr]*SourceEvidence),
		dirty:   make(map[netip.Addr]struct{}),
		pending: make(map[netip.Addr]struct{}),
	}
	return &Fold{
		c:        c,
		cls:      make(map[netip.Addr]*ClassifierEvidence),
		lin:      lineage.NewSet(),
		dirtyCls: make(map[netip.Addr]struct{}),
		dirtyLin: make(map[core.Fingerprint]struct{}),
	}
}

// Compatible reports whether evidence gathered under p can fold into
// this state (MergeExports' precondition).
func (f *Fold) Compatible(p Params) error {
	return f.c.cfg.Params.compatible(p)
}

// Merge folds one export's records: what MergeExports(state, ex) does
// to the state, given ex's sensor list, its source records in order
// (already-imported ones as bare references) and the classifier and
// lineage records not folded before. The caller has checked
// Compatible.
func (f *Fold) Merge(sensors []string, sources []SourceRef, cls []ClassifierEvidence, lin []lineage.Observation) {
	c := f.c
	f.settlePending()
	for i := range sources {
		if rec := sources[i].Rec; rec != nil {
			c.importSource(rec)
		}
	}
	// Import's notify pass is skipped: nothing listens to a merge
	// state, and notified never reaches a rendered record.
	for i := range sources {
		ref := &sources[i]
		if _, pending := c.track.pending[ref.Src]; ref.Rec == nil && !pending {
			continue // inputs unchanged since its last re-derivation
		}
		if c.sources[ref.Src] != nil || c.track.recs[ref.Src] != nil {
			c.rederivePropagation(c.source(ref.Src, 0))
		}
	}
	// Render what the merge touched and let the merge state go.
	for src := range c.track.dirty {
		rec := c.renderMerged(c.sources[src])
		c.track.recs[src] = &rec
		f.dirtySrc = append(f.dirtySrc, src)
	}
	clear(c.track.dirty)
	clear(c.sources)
	c.lru.Init()

	f.sensors = unionSensors(f.sensors, sensors)
	for i := range cls {
		f.foldClassifier(&cls[i])
	}
	for i := range lin {
		if f.lin.Fold(&lin[i]) {
			f.dirtyLin[lin[i].Exact] = struct{}{}
		}
	}
	for _, fp := range f.lin.Trim() {
		f.droppedLin = append(f.droppedLin, fp)
		delete(f.dirtyLin, fp)
	}
	c.track.grown = c.track.grown[:0]
}

// settlePending is the part of re-importing the whole state that is
// not a no-op: MergeExports re-derives every source in address order,
// which changes something only for sources whose sensor set grew since
// their last re-derivation. A source that grows during the pass is
// visited in the same pass if it sorts after the one that grew it, and
// stays pending for the next merge otherwise — as in the full pass.
func (f *Fold) settlePending() {
	c := f.c
	if len(c.track.pending) == 0 {
		return
	}
	todo := make([]netip.Addr, 0, len(c.track.pending))
	for src := range c.track.pending {
		todo = append(todo, src)
	}
	slices.SortFunc(todo, netip.Addr.Compare)
	for i := 0; i < len(todo); i++ {
		src := todo[i]
		c.track.grown = c.track.grown[:0]
		c.rederivePropagation(c.source(src, 0))
		for _, grown := range c.track.grown {
			if src.Less(grown) {
				at, _ := slices.BinarySearchFunc(todo[i+1:], grown, netip.Addr.Compare)
				todo = slices.Insert(todo, i+1+at, grown)
			}
		}
	}
}

// foldClassifier unions one classifier record into the state, with
// MergeClassifierEvidence's result: dark sets union (sorted), expiries
// fold to the maximum. A changed dark set is a new slice, so records
// handed out earlier stay as they were.
func (f *Fold) foldClassifier(rec *ClassifierEvidence) {
	m := f.cls[rec.Src]
	if m == nil {
		m = &ClassifierEvidence{Src: rec.Src}
		f.cls[rec.Src] = m
		f.dirtyCls[rec.Src] = struct{}{}
	}
	if rec.SuspiciousUntilUS > m.SuspiciousUntilUS {
		m.SuspiciousUntilUS = rec.SuspiciousUntilUS
		f.dirtyCls[rec.Src] = struct{}{}
	}
	var add []netip.Addr
	for _, d := range rec.Dark {
		if _, held := slices.BinarySearchFunc(m.Dark, d, netip.Addr.Compare); !held {
			add = append(add, d)
		}
	}
	if len(add) == 0 {
		return
	}
	dark := append(append(make([]netip.Addr, 0, len(m.Dark)+len(add)), m.Dark...), add...)
	slices.SortFunc(dark, netip.Addr.Compare)
	m.Dark = slices.Compact(dark)
	f.dirtyCls[rec.Src] = struct{}{}
}

// TakeDirty returns the records changed since the previous call and
// resets the ledger.
func (f *Fold) TakeDirty() FoldDirty {
	d := FoldDirty{Sources: f.dirtySrc}
	f.dirtySrc = nil
	for src := range f.dirtyCls {
		d.Classifier = append(d.Classifier, src)
	}
	for fp := range f.dirtyLin {
		d.Lineage = append(d.Lineage, fp)
	}
	d.DroppedLineage, f.droppedLin = f.droppedLin, nil
	clear(f.dirtyCls)
	clear(f.dirtyLin)
	return d
}

// Parameters returns an export carrying the fold's correlation
// parameters and sensor list (the sorted union of every merged
// export's), with no records.
func (f *Fold) Parameters() *EvidenceExport {
	return &EvidenceExport{Sensors: f.sensors, Params: f.c.cfg.Params}
}

// Source returns one source's record as MergeExports renders it. Its
// slices are never written again: a later merge that changes the
// source renders a new record.
func (f *Fold) Source(src netip.Addr) SourceEvidence { return *f.c.track.recs[src] }

// Classifier returns one source's classifier record.
func (f *Fold) Classifier(src netip.Addr) ClassifierEvidence { return *f.cls[src] }

// Lineage returns one payload's observation.
func (f *Fold) Lineage(exact core.Fingerprint) lineage.Observation {
	o, _ := f.lin.Get(exact)
	return o
}
