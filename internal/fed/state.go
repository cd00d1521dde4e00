package fed

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"semnids/internal/core"
	"semnids/internal/incident"
	"semnids/internal/lineage"
)

// ErrSkew reports a segment gathered under correlation parameters the
// state cannot fold (Merge's precondition).
var ErrSkew = errors.New("fed: incompatible correlation parameters")

// State is an aggregator's federated evidence kept live: what
// state = Merge(state, ReadExport(segment)) computes per pushed
// segment, at the cost of the records the segment changes instead of
// the records the state holds. Three things make the difference:
//
//   - the fold state (incident.Fold) persists, so a segment imports its
//     own records and only the records that changed are rendered again;
//   - every record's wire frame is kept beside it, so a checkpoint is
//     the concatenation of cached frames and only changed records are
//     encoded, and the records changed since the last checkpoint are
//     marked, so the sink appends them as a delta group (a full group
//     only when it opens a segment);
//   - a bounded memo of frame hashes lets a pushed frame whose effect
//     the state already holds skip decoding and the fold. That is
//     Merge(A, A) == A applied per record: every evidence fold is
//     idempotent and the state only grows, so folding the same bytes
//     again cannot change it. A miss, an evicted entry or a restarted
//     process folds the frame again, which is only slower. Entries are
//     added by Commit, after the push that carried them is
//     acknowledged, never while a frame's group may still be refused.
//
// Merge and ReadExport remain the reference: the rendered export is
// byte-identical on the wire to the Merge chain over the same
// segments — and, Merge being a join, to any other bracketing or
// order of them. The first segment and a recovered export handed to
// Adopt fold like any other.
//
// A pushed segment is read as ReadExport reads it — walked marks
// first (decodeSegment), then only the newest committed chain whose
// records all decode is read (decodeNewest) and its groups folded
// in order — except that frames the memo holds are not decoded at all.
// Frames are read by the evidence codec (codec.go): canonically, or
// through encoding/json when a writer spelled them otherwise
// (StateStats.FramesFallback).
//
// Safe for concurrent use.
type State struct {
	mu sync.Mutex

	// fold is nil until the first export arrives.
	fold *incident.Fold

	// One plane per record kind. A source record's value is just its
	// address: the rendered evidence lives in fold, which Export reads,
	// so the nested evidence slices are not held twice.
	src plane[netip.Addr, netip.Addr]
	cls plane[netip.Addr, incident.ClassifierEvidence]
	lin plane[core.Fingerprint, lineage.Observation]

	// export memoizes the rendered state until the next fold.
	export *incident.EvidenceExport

	// sensorsGrew marks a sensor list grown since the last checkpoint;
	// the planes mark their own changed records.
	sensorsGrew bool

	// memo maps the keyed hash of a frame whose effect the state holds
	// to the source it names (src frames, for Folded.Sources) or the
	// zero address. memoCap, when >= 0, replaces the derived bound
	// (LimitMemo).
	memo    map[frameKey]netip.Addr
	memoCap int
	key     [32]byte
	hasher  hash.Hash

	enc frameEncoder

	// frames is the snapshot buffer, reused: snapshots are taken and
	// consumed one at a time on the sink goroutine.
	frames [][]byte

	sensors, sources, memoEntries        atomic.Int64
	folded, skipped, reencoded, fellBack atomic.Uint64
}

// memoPerRecord bounds the memo at this many frames per live record.
// A frame is worth remembering while some sensor may send it again: a
// record's current frame from each sensor that witnesses it (a handful:
// traffic is partitioned across sensors, and provenance sets in the
// merged state stay short), plus the frame before it for pushes
// delayed or replayed out of order. Older versions recur only when a
// whole stale segment is replayed, where folding again is merely slow.
const memoPerRecord = 4

// frameKey is the first 128 bits of SHA-256(key ‖ frame JSON).
// Collision-resistant without the per-process key; the key denies an
// attacker a precomputed pair of frames that would make the second
// look folded.
type frameKey [16]byte

// record is one live evidence record's wire frame, with the value
// its plane orders and exports it by. pending marks a record changed
// since the last checkpoint.
type record[V any] struct {
	val     V
	frame   []byte
	pending bool
}

// plane holds one record kind keyed for update and ordered for
// export, and lists the records changed since the last checkpoint.
type plane[K comparable, V any] struct {
	byKey   map[K]*record[V]
	order   []*record[V]
	pending []*record[V]
	less    func(a, b *V) bool
	sorted  bool
}

func (p *plane[K, V]) set(key K, val V, frame []byte) {
	r := p.byKey[key]
	if r == nil {
		r = &record[V]{}
		p.byKey[key] = r
		p.order = append(p.order, r)
		p.sorted = false
	} else if p.less(&r.val, &val) || p.less(&val, &r.val) {
		p.sorted = false
	}
	if !r.pending {
		r.pending = true
		p.pending = append(p.pending, r)
	}
	r.val, r.frame = val, frame
}

// remove drops a record. A removed record needs no delta entry: the
// fold that displaced it displaces it again when a reader folds the
// chain.
func (p *plane[K, V]) remove(key K) {
	r := p.byKey[key]
	if r == nil {
		return
	}
	delete(p.byKey, key)
	p.order = slices.DeleteFunc(p.order, func(o *record[V]) bool { return o == r })
	if r.pending {
		p.pending = slices.DeleteFunc(p.pending, func(o *record[V]) bool { return o == r })
	}
}

func (p *plane[K, V]) sort() {
	if !p.sorted {
		sort.Slice(p.order, func(i, j int) bool { return p.less(&p.order[i].val, &p.order[j].val) })
		p.sorted = true
	}
}

// appendFrames appends, in export order, every record's frame or
// (delta) only the pending records' frames.
func (p *plane[K, V]) appendFrames(dst [][]byte, delta bool) [][]byte {
	recs := p.order
	if delta {
		recs = p.pending
		sort.Slice(recs, func(i, j int) bool { return p.less(&recs[i].val, &recs[j].val) })
	} else {
		p.sort()
	}
	for _, r := range recs {
		dst = append(dst, r.frame)
	}
	return dst
}

// settle clears the pending marks: a checkpoint now carries them.
func (p *plane[K, V]) settle() {
	for _, r := range p.pending {
		r.pending = false
	}
	clear(p.pending)
	p.pending = p.pending[:0]
}

// NewState returns an empty state.
func NewState() *State {
	st := &State{memo: make(map[frameKey]netip.Addr), memoCap: -1, hasher: sha256.New()}
	if _, err := rand.Read(st.key[:]); err != nil {
		panic(err) // crypto/rand.Read does not fail on supported platforms
	}
	st.src = plane[netip.Addr, netip.Addr]{
		byKey: make(map[netip.Addr]*record[netip.Addr]),
		less:  func(a, b *netip.Addr) bool { return a.Less(*b) },
	}
	st.cls = plane[netip.Addr, incident.ClassifierEvidence]{
		byKey: make(map[netip.Addr]*record[incident.ClassifierEvidence]),
		less:  func(a, b *incident.ClassifierEvidence) bool { return a.Src.Less(b.Src) },
	}
	st.lin = plane[core.Fingerprint, lineage.Observation]{
		byKey: make(map[core.Fingerprint]*record[lineage.Observation]),
		less:  lineage.Less,
	}
	return st
}

// Adopt folds a recovered export into an empty state. Call it before
// the first Fold; a nil export leaves the state empty.
func (st *State) Adopt(ex *incident.EvidenceExport) {
	if ex == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fold = incident.NewFold(ex.Params)
	st.fold.Merge(ex.Sensors, ex.Sources, ex.Classifier, ex.Lineage)
	st.refresh()
}

// LimitMemo fixes the memo at n frames (0 turns it off) in place of
// the bound derived from the record count. For tests: a memo that is
// too small only makes folds slower, which is what they check.
func (st *State) LimitMemo(n int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.memoCap = n
}

// Export returns the current evidence (nil while empty). The returned
// export is never modified afterwards, and is rendered at most once
// per fold.
func (st *State) Export() *incident.EvidenceExport {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fold == nil {
		return nil
	}
	if st.export == nil {
		st.export = st.fold.Export()
	}
	return st.export
}

// StateStats is a snapshot of a State's counters and gauges.
type StateStats struct {
	// Sensors and Sources describe the evidence held, without
	// rendering it.
	Sensors, Sources int

	// FramesFolded counts pushed record frames that were decoded and
	// folded, FramesSkipped those the memo recognized as already held.
	// RecordsReencoded counts records rendered and encoded again
	// because a fold changed them. MemoEntries is the memo's size.
	FramesFolded, FramesSkipped, RecordsReencoded uint64
	MemoEntries                                   int

	// FramesFallback counts pushed frames — header, marks and records
	// — that the canonical decoder declined and json.Unmarshal decoded:
	// frames spelled otherwise than this build's writer spells them, or
	// carrying a string that was not valid UTF-8 when it was written.
	FramesFallback uint64
}

// Stats reads the counters without taking the state's lock.
func (st *State) Stats() StateStats {
	return StateStats{
		Sensors:          int(st.sensors.Load()),
		Sources:          int(st.sources.Load()),
		FramesFolded:     st.folded.Load(),
		FramesSkipped:    st.skipped.Load(),
		RecordsReencoded: st.reencoded.Load(),
		MemoEntries:      int(st.memoEntries.Load()),
		FramesFallback:   st.fellBack.Load(),
	}
}

// OpenSink opens a durable sink that checkpoints this state from its
// cached frames (cfg.Export is not used): a full group when the sink
// opens a segment, and after it deltas of the records changed since
// the previous group.
func (st *State) OpenSink(cfg SinkConfig) (*Sink, error) {
	cfg.source = st.snapshot
	cfg.deltas = true
	return OpenSink(cfg)
}

// snapshot hands the sink goroutine the state as a checkpoint: the
// cached frames in export order, all of them (full) or those changed
// since the last checkpoint. Either way the changed marks are cleared:
// if the group does not commit, the sink opens a new segment, whose
// first group is full.
func (st *State) snapshot(full bool) (*snapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fold == nil {
		return nil, nil
	}
	delta := !full
	sn := &snapshot{hdr: headerFor(st.fold.Parameters()), delta: delta}
	sn.unchanged = !st.sensorsGrew && len(st.src.pending)+len(st.cls.pending)+len(st.lin.pending) == 0
	frames := st.src.appendFrames(st.frames[:0], delta)
	sn.count = len(frames)
	frames = st.cls.appendFrames(frames, delta)
	sn.cls = len(frames) - sn.count
	frames = st.lin.appendFrames(frames, delta)
	sn.lin = len(frames) - sn.count - sn.cls
	for _, frame := range frames {
		if frame == nil {
			return nil, fmt.Errorf("fed: a merged record exceeds the %d-byte wire bound", MaxRecordBytes)
		}
	}
	st.src.settle()
	st.cls.settle()
	st.lin.settle()
	st.sensorsGrew = false
	st.frames, sn.frames = frames, frames
	return sn, nil
}

// Folded is what one Fold did, for the acknowledgement that follows
// it.
type Folded struct {
	// Sources lists every source the segment's evidence covers.
	Sources []netip.Addr

	keys []memoEntry
}

type memoEntry struct {
	key frameKey
	src netip.Addr
}

// Fold folds one pushed segment — its newest committed checkpoint, a
// full group and the deltas after it — into the state. Errors leave the state as it was: ErrNoCheckpoint
// and decode errors as ReadExport reports them, ErrSkew (wrapped) for
// a segment under other correlation parameters.
func (st *State) Fold(data []byte) (*Folded, error) {
	seg, err := decodeSegment(data)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	in, err := seg.decodeNewest(st)
	st.fellBack.Add(uint64(seg.dec.fallbacks))
	if err != nil {
		return nil, err
	}
	if st.fold == nil {
		st.fold = incident.NewFold(seg.hdr.Params)
	} else if err := st.fold.Compatible(seg.hdr.Params); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSkew, err)
	}
	st.folded.Add(uint64(in.decoded))
	st.skipped.Add(uint64(len(in.keys) - in.decoded))
	out := &Folded{keys: in.keys}
	for _, e := range in.keys {
		if e.src.IsValid() {
			out.Sources = append(out.Sources, e.src)
		}
	}
	in.mergeInto(st.fold)
	st.refresh()
	return out, nil
}

// refresh renders and encodes the records the last merges changed.
func (st *State) refresh() {
	d := st.fold.TakeDirty()
	for _, src := range d.Sources {
		val := st.fold.Source(src)
		st.src.set(src, src, st.encode(&wireRecord{Kind: kindSource, Src: &val}))
	}
	for _, src := range d.Classifier {
		val := st.fold.Classifier(src)
		st.cls.set(src, val, st.encode(&wireRecord{Kind: kindClassifier, Cls: &val}))
	}
	for _, fp := range d.DroppedLineage {
		st.lin.remove(fp)
	}
	for _, fp := range d.Lineage {
		val := st.fold.Lineage(fp)
		st.lin.set(fp, val, st.encode(&wireRecord{Kind: kindLineage, Lin: &val}))
	}
	st.export = nil
	if n := int64(len(st.fold.Parameters().Sensors)); n != st.sensors.Load() {
		st.sensorsGrew = true
		st.sensors.Store(n)
	}
	st.sources.Store(int64(len(st.src.order)))
}

// encode renders one changed record's frame, to keep, allocated at
// its size; nil (a record over the wire bound) fails the checkpoints
// that would carry it.
func (st *State) encode(rec *wireRecord) []byte {
	st.reencoded.Add(1)
	frame, err := st.enc.appendFrame(nil, rec)
	if err != nil {
		return nil
	}
	return frame
}

// Commit records that the push behind f has been acknowledged — its
// evidence is in the state and, under durable acks, on disk — so its
// frames need not be folded when they arrive again.
func (st *State) Commit(f *Folded) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.remember(f.keys)
}

// remember adds frames to the memo under its bound. Called with mu
// held.
func (st *State) remember(keys []memoEntry) {
	limit := st.memoCap
	if limit < 0 {
		limit = memoPerRecord * (len(st.src.order) + len(st.cls.order) + len(st.lin.order))
	}
	if limit == 0 {
		return
	}
	for _, e := range keys {
		if _, held := st.memo[e.key]; !held && len(st.memo) >= limit {
			// Map iteration starts at an arbitrary entry: eviction is
			// random, and an evicted frame is merely folded again.
			for victim := range st.memo {
				delete(st.memo, victim)
				break
			}
		}
		st.memo[e.key] = e.src
	}
	st.memoEntries.Store(int64(len(st.memo)))
}

// keyOf hashes one frame's JSON document. Called with mu held.
func (st *State) keyOf(payload []byte) (k frameKey) {
	st.hasher.Reset()
	st.hasher.Write(st.key[:])
	st.hasher.Write(payload)
	var sum [sha256.Size]byte
	copy(k[:], st.hasher.Sum(sum[:0]))
	return k
}
