package fed

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/netip"
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
//     marshalled;
//   - a bounded memo of frame hashes lets a pushed frame whose effect
//     the state already holds skip json.Unmarshal and the fold. That is
//     Merge(A, A) == A applied per record: every evidence fold is
//     idempotent and the state only grows, so folding the same bytes
//     again cannot change it. A miss, an evicted entry or a restarted
//     process folds the frame again, which is only slower. Entries are
//     added by Commit, after the push that carried them is
//     acknowledged, never while a frame's group may still be refused.
//
// Merge and ReadExport remain the reference: the rendered export is
// byte-identical on the wire to the Merge chain over the same
// segments. The first segment folded into an empty State, and a
// recovered export handed to Adopt, are kept verbatim until the next
// fold — as the chain's first element is.
//
// A pushed segment is decoded marks first (decodeSegment): only the
// newest committed group's records are unmarshalled. The one
// difference from ReadExport is what a well-framed record that fails
// to decode costs: ReadExport ends the segment there, decodeSegment
// drops that record's group and reads on, so a damaged superseded
// group does not hide the intact groups after it.
//
// Safe for concurrent use.
type State struct {
	mu sync.Mutex

	// seed is the state while it is one export adopted verbatim; its
	// records enter fold on the next Fold. fold is nil until the first
	// export arrives.
	seed *incident.EvidenceExport
	fold *incident.Fold

	// One plane per record kind. A source record's value is just its
	// address: the rendered evidence lives in its frame and is rendered
	// again from fold when Export is asked for it, which is rare, so
	// the nested evidence slices are not held twice.
	src plane[netip.Addr, netip.Addr]
	cls plane[netip.Addr, incident.ClassifierEvidence]
	lin plane[core.Fingerprint, lineage.Observation]

	// export memoizes the rendered state until the next fold.
	export *incident.EvidenceExport

	// memo maps the keyed hash of a frame whose effect the state holds
	// to the source it names (src frames) or the zero address. memoCap,
	// when >= 0, replaces the derived bound (LimitMemo).
	memo    map[frameKey]netip.Addr
	memoCap int
	key     [32]byte
	hasher  hash.Hash

	enc frameEncoder

	// frames is the snapshot buffer, reused: snapshots are taken and
	// consumed one at a time on the sink goroutine.
	frames [][]byte

	sensors, sources, memoEntries atomic.Int64
	folded, skipped, reencoded    atomic.Uint64
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
// its plane orders and exports it by.
type record[V any] struct {
	val   V
	frame []byte
}

// plane holds one record kind keyed for update and ordered for
// export.
type plane[K comparable, V any] struct {
	byKey  map[K]*record[V]
	order  []*record[V]
	less   func(a, b *V) bool
	sorted bool
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
	r.val, r.frame = val, frame
}

func (p *plane[K, V]) remove(key K) {
	r := p.byKey[key]
	if r == nil {
		return
	}
	delete(p.byKey, key)
	for i := range p.order {
		if p.order[i] == r {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

func (p *plane[K, V]) sort() {
	if !p.sorted {
		sort.Slice(p.order, func(i, j int) bool { return p.less(&p.order[i].val, &p.order[j].val) })
		p.sorted = true
	}
}

// appendFrames appends the plane's frames in export order.
func (p *plane[K, V]) appendFrames(dst [][]byte) [][]byte {
	p.sort()
	for _, r := range p.order {
		dst = append(dst, r.frame)
	}
	return dst
}

func (p *plane[K, V]) values() []V {
	if len(p.order) == 0 {
		return nil
	}
	p.sort()
	out := make([]V, len(p.order))
	for i, r := range p.order {
		out[i] = r.val
	}
	return out
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

// Adopt makes a recovered export the state, verbatim. Call it before
// the first Fold; a nil export leaves the state empty.
func (st *State) Adopt(ex *incident.EvidenceExport) {
	if ex == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.adopt(ex)
}

func (st *State) adopt(ex *incident.EvidenceExport) {
	st.seed = ex
	st.fold = incident.NewFold(ex.Params)
	st.sensors.Store(int64(len(ex.Sensors)))
	st.sources.Store(int64(len(ex.Sources)))
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
	if st.seed != nil || st.fold == nil {
		return st.seed
	}
	if st.export == nil {
		ex := st.fold.Parameters()
		st.src.sort()
		ex.Sources = make([]incident.SourceEvidence, len(st.src.order))
		for i, r := range st.src.order {
			ex.Sources[i] = st.fold.Source(r.val)
		}
		ex.Classifier = st.cls.values()
		ex.Lineage = st.lin.values()
		st.export = ex
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
	// RecordsReencoded counts records rendered and marshalled again
	// because a fold changed them. MemoEntries is the memo's size.
	FramesFolded, FramesSkipped, RecordsReencoded uint64
	MemoEntries                                   int
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
	}
}

// OpenSink opens a durable sink that checkpoints this state from its
// cached frames (cfg.Export is not used).
func (st *State) OpenSink(cfg SinkConfig) (*Sink, error) {
	cfg.source = st.snapshot
	return OpenSink(cfg)
}

// snapshot hands the sink goroutine the state as a checkpoint: the
// cached frames in export order, or the adopted export itself.
func (st *State) snapshot() (*snapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seed != nil {
		return exportSnapshot(st.seed), nil
	}
	if st.fold == nil {
		return nil, nil
	}
	sn := &snapshot{hdr: headerFor(st.fold.Parameters()), count: len(st.src.order), cls: len(st.cls.order), lin: len(st.lin.order)}
	frames := st.lin.appendFrames(st.cls.appendFrames(st.src.appendFrames(st.frames[:0])))
	for _, frame := range frames {
		if frame == nil {
			return nil, fmt.Errorf("fed: a merged record exceeds the %d-byte wire bound", MaxRecordBytes)
		}
	}
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

// Fold folds one pushed segment — its newest committed checkpoint —
// into the state. Errors leave the state as it was: ErrNoCheckpoint
// and decode errors as ReadExport reports them, ErrSkew (wrapped) for
// a segment under other correlation parameters.
func (st *State) Fold(segment []byte) (*Folded, error) {
	seg, err := decodeSegment(segment)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	in, err := st.decodeNewest(seg)
	if err != nil {
		return nil, err
	}
	if st.fold != nil {
		if err := st.fold.Compatible(seg.hdr.Params); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSkew, err)
		}
	}
	st.folded.Add(uint64(in.decoded))
	st.skipped.Add(uint64(len(in.keys) - in.decoded))
	out := &Folded{keys: in.keys, Sources: make([]netip.Addr, len(in.sources))}
	for i := range in.sources {
		out.Sources[i] = in.sources[i].Src
	}

	if st.fold == nil {
		// The first export is the state, as Merge's chain starts.
		ex := &incident.EvidenceExport{
			Sensors:    in.sensors,
			Params:     seg.hdr.Params,
			Classifier: in.cls,
			Lineage:    in.lin,
		}
		for i := range in.sources {
			ex.Sources = append(ex.Sources, *in.sources[i].Rec)
		}
		st.adopt(ex)
		return out, nil
	}
	if seed := st.seed; seed != nil {
		refs := make([]incident.SourceRef, len(seed.Sources))
		for i := range seed.Sources {
			refs[i] = incident.SourceRef{Src: seed.Sources[i].Src, Rec: &seed.Sources[i]}
		}
		st.fold.Merge(seed.Sensors, refs, seed.Classifier, seed.Lineage)
		st.seed = nil
	}
	st.fold.Merge(in.sensors, in.sources, in.cls, in.lin)
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
	st.sensors.Store(int64(len(st.fold.Parameters().Sensors)))
	st.sources.Store(int64(len(st.src.order)))
}

// encode renders one changed record's frame; nil (a record over the
// wire bound) fails the checkpoints that would carry it.
func (st *State) encode(rec *wireRecord) []byte {
	st.reencoded.Add(1)
	frame, err := st.enc.encode(rec)
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
		live := len(st.src.order) + len(st.cls.order) + len(st.lin.order)
		if st.seed != nil {
			live = len(st.seed.Sources) + len(st.seed.Classifier) + len(st.seed.Lineage)
		}
		limit = memoPerRecord * live
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

// pushFrame is one well-framed record of a pushed segment.
type pushFrame struct {
	// kind is the record kind — read off the canonical `{"k":"…",`
	// prefix for evidence records, whose bodies are decoded only if
	// their group wins, and from a full decode (kept in rec) for
	// everything else.
	kind    string
	payload []byte
	rec     *wireRecord
}

// pushGroup is one checkpoint group committed by its marks and
// record counts: frames[lo:hi] are its evidence records.
type pushGroup struct {
	open   *checkpointMark
	lo, hi int
}

// pushSegment is a pushed segment split and walked, its evidence
// records not yet decoded.
type pushSegment struct {
	hdr    *header
	frames []pushFrame
	groups []pushGroup
}

// sniffKind reads an evidence record's kind off the prefix json.Marshal
// gives a wireRecord. Any other spelling returns "" and is decoded in
// full.
func sniffKind(payload []byte) string {
	const prefix = `{"k":"`
	if !bytes.HasPrefix(payload, []byte(prefix)) {
		return ""
	}
	rest := payload[len(prefix):]
	for _, kind := range [...]string{kindSource, kindClassifier, kindLineage} {
		if len(rest) > len(kind)+1 && string(rest[:len(kind)]) == kind && rest[len(kind)] == '"' && rest[len(kind)+1] == ',' {
			return kind
		}
	}
	return ""
}

// decodeSegment splits a segment into frames, decodes the header and
// the marks, and finds the committed groups, under ReadExport's group
// rules. A frame that fails to decode drops the group it falls in;
// the framing still holds, so the walk goes on to the next group.
func decodeSegment(data []byte) (*pushSegment, error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		if err == io.EOF {
			return nil, errors.New("fed: empty segment")
		}
		return nil, err
	}
	first := &wireRecord{}
	if err := json.Unmarshal(payload, first); err != nil {
		return nil, fmt.Errorf("fed: bad record JSON: %w", err)
	}
	seg := &pushSegment{}
	if seg.hdr, err = checkHeader(first); err != nil {
		return nil, err
	}

	var open *checkpointMark
	var seen checkpointMark // evidence records counted in the open group
	var lo int
	for {
		// A framing error is a truncated or corrupt tail: the groups
		// committed before it stand.
		if payload, rest, err = nextFrame(rest); err != nil {
			break
		}
		fr := pushFrame{kind: sniffKind(payload), payload: payload}
		if fr.kind == "" {
			fr.rec = &wireRecord{}
			if err := json.Unmarshal(payload, fr.rec); err != nil {
				open = nil
				continue
			}
			fr.kind = fr.rec.Kind
		}
		switch fr.kind {
		case kindCheckpoint:
			open = fr.rec.Ckpt
			if open != nil && (open.Count < 0 || open.Cls < 0 || open.Lin < 0) {
				open = nil
			}
			lo, seen = len(seg.frames), checkpointMark{}
		case kindSource, kindClassifier, kindLineage:
			// Only a record inside a group that may still commit is
			// kept: what a hostile body can make the walk hold is
			// bounded by the records it frames inside well-formed groups.
			if open == nil || *seen.of(fr.kind) >= *open.of(fr.kind) || (fr.rec != nil && !fr.rec.carries(fr.kind)) {
				open = nil
				continue
			}
			*seen.of(fr.kind)++
			seg.frames = append(seg.frames, fr)
		case kindCommit:
			if end := fr.rec.End; open != nil && end != nil && end.Seq == open.Seq &&
				end.Count == open.Count && end.Cls == open.Cls && end.Lin == open.Lin &&
				seen.Count == open.Count && seen.Cls == open.Cls && seen.Lin == open.Lin {
				seg.groups = append(seg.groups, pushGroup{open: open, lo: lo, hi: len(seg.frames)})
			}
			open = nil
		}
		// Any other kind is an unknown minor-format record: passed over,
		// the framing still holds.
	}
	return seg, nil
}

// of returns the mark's count of one evidence record kind.
func (m *checkpointMark) of(kind string) *int {
	switch kind {
	case kindSource:
		return &m.Count
	case kindClassifier:
		return &m.Cls
	}
	return &m.Lin
}

// carries reports whether the record holds the payload its kind names.
func (rec *wireRecord) carries(kind string) bool {
	switch kind {
	case kindSource:
		return rec.Src != nil
	case kindClassifier:
		return rec.Cls != nil
	}
	return rec.Lin != nil
}

// foldInput is one segment's newest committed group, decoded as far
// as the memo requires.
type foldInput struct {
	sensors []string
	sources []incident.SourceRef
	cls     []incident.ClassifierEvidence
	lin     []lineage.Observation

	// keys names every record frame of the group; decoded counts those
	// that were unmarshalled rather than recognized.
	keys    []memoEntry
	decoded int
}

// decodeNewest decodes the newest committed group whose records all
// decode, skipping frames the memo holds. A group with a record that
// does not decode to its announced kind is not committed: the walk
// falls back to the group before it. Called with mu held.
func (st *State) decodeNewest(seg *pushSegment) (*foldInput, error) {
groups:
	for g := len(seg.groups) - 1; g >= 0; g-- {
		grp := &seg.groups[g]
		in := &foldInput{sensors: seg.hdr.Sensors}
		if grp.open.Sensors != nil {
			in.sensors = grp.open.Sensors
		}
		for i := grp.lo; i < grp.hi; i++ {
			fr := &seg.frames[i]
			key := st.keyOf(fr.payload)
			// (An empty state's memo is empty: the first export, which
			// is kept whole, is always decoded whole.)
			if src, held := st.memo[key]; held {
				in.keys = append(in.keys, memoEntry{key, src})
				if fr.kind == kindSource {
					in.sources = append(in.sources, incident.SourceRef{Src: src})
				}
				continue
			}
			rec := fr.rec
			if rec == nil {
				rec = &wireRecord{}
				if err := json.Unmarshal(fr.payload, rec); err != nil || rec.Kind != fr.kind {
					continue groups
				}
			}
			if !rec.carries(fr.kind) {
				continue groups
			}
			in.decoded++
			var src netip.Addr
			switch fr.kind {
			case kindSource:
				src = rec.Src.Src
				in.sources = append(in.sources, incident.SourceRef{Src: src, Rec: rec.Src})
			case kindClassifier:
				in.cls = append(in.cls, *rec.Cls)
			case kindLineage:
				in.lin = append(in.lin, *rec.Lin)
			}
			in.keys = append(in.keys, memoEntry{key, src})
		}
		return in, nil
	}
	return nil, ErrNoCheckpoint
}
