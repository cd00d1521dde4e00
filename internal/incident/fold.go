package incident

import (
	"net/netip"
	"slices"
	"sort"

	"semnids/internal/core"
	"semnids/internal/lineage"
)

// Fold is federated evidence kept live, and the one merge: fed.Merge
// is a fresh Fold that merges two exports and renders. A Fold keeps
// the rendered source records, the classifier and lineage sets and
// the sensor list across calls; a Merge brings into its merge
// correlator only the sources it touches (imported, escalated, or
// reached by provenance — each from its rendered record), renders
// those again and lets the correlator go.
//
// A Merge is a semilattice join: every record folds by union under
// the shared caps, then propagation is re-derived from the imported
// sources and closed (closePropagation), so a victim's sensor set
// reaches every attacker up its propagation chain within the one
// merge. The state after Merge(a), Merge(b), … is therefore the same,
// byte for byte on the wire, whatever the order, the grouping or the
// repetition of the merged exports — for evidence within the caps,
// and for exports that are themselves closed. A sensor's own export
// is closed unless the sensor was seeded by Import and then escalated
// an attacker live from an imported victim: a live escalation does
// not carry provenance. Merging such an export closes it, so
// Merge(Merge(ex, ex), ex) equals Merge(ex, ex) even where
// Merge(ex, ex) differs from ex.
//
// What stays resident is the records, not a correlator: a source's
// evidence as maps costs about three times its rendered record, and a
// merge needs the maps of a few dozen sources at a time.
//
// Not safe for concurrent use.
type Fold struct {
	c       *Correlator
	sensors []string
	cls     map[netip.Addr]*ClassifierEvidence

	dirtySrc []netip.Addr
	dirtyCls map[netip.Addr]struct{}
}

// foldTrack is the ledger of a Fold's merge correlator.
type foldTrack struct {
	// recs is every source's rendered record: the state. The
	// correlator's sources map holds only those the current merge has
	// touched, each brought in from its record by source().
	recs map[netip.Addr]*SourceEvidence

	// dirty holds sources whose evidence the current merge may have
	// changed.
	dirty map[netip.Addr]struct{}

	// dirtyLin holds the lineage observations changed since the last
	// TakeDirty, droppedLin those the lineage cap displaced.
	dirtyLin   map[core.Fingerprint]struct{}
	droppedLin []core.Fingerprint
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
	c.lin = lineage.NewSet(lineage.MergeCap)
	c.track = &foldTrack{
		recs:     make(map[netip.Addr]*SourceEvidence),
		dirty:    make(map[netip.Addr]struct{}),
		dirtyLin: make(map[core.Fingerprint]struct{}),
	}
	return &Fold{
		c:        c,
		cls:      make(map[netip.Addr]*ClassifierEvidence),
		dirtyCls: make(map[netip.Addr]struct{}),
	}
}

// Compatible reports whether evidence gathered under p can fold into
// this state (Merge's precondition).
func (f *Fold) Compatible(p Params) error {
	return f.c.cfg.Params.compatible(p)
}

// Merge joins one export's records into the state: its sensor list
// and whichever of its source, classifier and lineage records the
// caller has not merged before (a record merged before changes
// nothing, so it may be left out). The caller has checked Compatible.
func (f *Fold) Merge(sensors []string, sources []SourceEvidence, cls []ClassifierEvidence, lin []lineage.Observation) {
	c := f.c
	touched := make([]*sourceState, len(sources))
	for i := range sources {
		touched[i] = c.importSource(&sources[i])
	}
	// Import's notify pass is skipped: nothing listens to a merge
	// state, and notified never reaches a rendered record.
	c.closePropagation(touched)
	// Render what the merge touched and let the merge state go.
	for src := range c.track.dirty {
		rec := c.sources[src].export(nil, c.cfg.WindowUS, c.cfg.FanoutThreshold)
		c.track.recs[src] = &rec
		f.dirtySrc = append(f.dirtySrc, src)
	}
	clear(c.track.dirty)
	clear(c.sources)
	c.byStamp.reset()

	f.sensors = core.SortedUnion(f.sensors, sensors)
	for i := range cls {
		f.foldClassifier(&cls[i])
	}
	for i := range lin {
		c.foldLineage(&lin[i], false)
	}
}

// foldClassifier unions one classifier record into the state: dark
// sets union (sorted), expiries fold to the maximum. A changed dark
// set is a new slice, so records handed out earlier stay as they
// were.
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
	t := f.c.track
	for fp := range t.dirtyLin {
		d.Lineage = append(d.Lineage, fp)
	}
	d.DroppedLineage, t.droppedLin = t.droppedLin, nil
	clear(f.dirtyCls)
	clear(t.dirtyLin)
	return d
}

// Parameters returns an export carrying the fold's correlation
// parameters and sensor list (the sorted union of every merged
// export's), with no records.
func (f *Fold) Parameters() *EvidenceExport {
	return &EvidenceExport{Sensors: f.sensors, Params: f.c.cfg.Params}
}

// Source returns one source's rendered record. Its slices are never
// written again: a later merge that changes the source renders a new
// record.
func (f *Fold) Source(src netip.Addr) SourceEvidence { return *f.c.track.recs[src] }

// Classifier returns one source's classifier record.
func (f *Fold) Classifier(src netip.Addr) ClassifierEvidence { return *f.cls[src] }

// Lineage returns one payload's observation.
func (f *Fold) Lineage(exact core.Fingerprint) lineage.Observation {
	o, _ := f.c.lin.Get(exact)
	return o
}

// Export renders the whole state as an export, every list sorted
// (nil when empty). Records are shared with the fold, which never
// writes them again.
func (f *Fold) Export() *EvidenceExport {
	ex := f.Parameters()
	for _, rec := range f.c.track.recs {
		ex.Sources = append(ex.Sources, *rec)
	}
	sort.Slice(ex.Sources, func(i, j int) bool { return ex.Sources[i].Src.Less(ex.Sources[j].Src) })
	for _, rec := range f.cls {
		ex.Classifier = append(ex.Classifier, *rec)
	}
	sort.Slice(ex.Classifier, func(i, j int) bool { return ex.Classifier[i].Src.Less(ex.Classifier[j].Src) })
	ex.Lineage = f.c.lin.Export("")
	return ex
}
