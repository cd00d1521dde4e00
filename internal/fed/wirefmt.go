// Package fed federates incident evidence across sensors: a
// versioned, length-prefixed JSONL wire format for the correlator's
// evidence exports, a durable size/age-rotated sink with crash
// recovery (so a long-running sensor survives restarts with its
// attacker state intact), and a commutative, idempotent merge that
// folds N sensors' exports into one deterministic incident report.
//
// Wire format. A segment is a stream of framed records:
//
//	<len> <json>\n
//
// where <len> is the decimal byte length of the JSON document (ASCII,
// at most 7 digits, bounded by MaxRecordBytes so a corrupt prefix can
// never drive an over-allocation) and the JSON document is a
// wireRecord envelope. The first record of a segment is a header
// ("hdr": format name, version, sensor provenance, correlation
// parameters). Evidence follows in checkpoint groups — an opening
// mark, the per-source "src", classifier "cls" and lineage "lin"
// records, then an "end" commit mark echoing the checkpoint sequence
// and counts. A "ckpt" mark opens a full group: the whole evidence
// state. A "dckpt" mark opens a delta group: only the records that
// changed since the group numbered seq-1 of the same segment, which it
// extends. A group missing its commit mark (a crash mid-write, a
// truncated copy), or holding a well-framed record that does not
// decode, is not committed. The decoder returns the newest committed
// group whose chain back to a full group is intact — consecutive
// seqs, every group committed, every record decoding — folded oldest
// first. The framing makes truncation detectable at every byte, and a
// damaged record costs its own group and the deltas after it.
//
// A sensor's sink writes full groups only. An aggregator's sink
// (State.OpenSink) opens every segment with a full group and appends
// deltas after it, so a segment is a base and what the folds changed
// since. A decoder that predates deltas passes "dckpt" over as an
// unknown minor-format record, and the records after it as records
// outside any group: it reads the segment's newest full group, stale
// but never wrong.
//
// One codec (codec.go) writes every frame, without reflection and byte
// for byte as encoding/json writes it, and reads that spelling back.
// A frame spelled any other way — another writer's whitespace, key
// order or escapes, fields from an older or newer build — is declined
// and read by json.Unmarshal: encoding/json stays the reference for
// what a frame means.
package fed

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"semnids/internal/incident"
	"semnids/internal/lineage"
)

const (
	// FormatName identifies evidence segments.
	FormatName = "semnids-evidence"
	// Version is the wire version this build reads and writes. A
	// decoder rejects any other major version (version skew must be an
	// error, never a misparse).
	Version = 1
	// MaxRecordBytes bounds one framed record: the decoder refuses
	// larger claims before allocating.
	MaxRecordBytes = 1 << 20

	maxLenDigits = 7
)

// Record kinds.
const (
	kindHeader     = "hdr"
	kindCheckpoint = "ckpt"
	kindDelta      = "dckpt"
	kindSource     = "src"
	kindClassifier = "cls"
	kindLineage    = "lin"
	kindCommit     = "end"
)

// header is the first record of every segment. The embedded Params
// flatten into it in field order: window_us, fanout_threshold and
// limits follow sensors.
type header struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	Sensors []string `json:"sensors"`
	incident.Params
}

// checkpointMark opens ("ckpt", or "dckpt" for a delta) and commits
// ("end") one evidence group of Count source records, Cls classifier
// records and Lin lineage records. The
// opening mark also carries the snapshot's sensor provenance: unlike
// the correlation parameters, the sensor set can grow between
// checkpoints of one segment (an aggregator folding new sensors, an
// engine importing foreign evidence), so it belongs to the snapshot,
// not the segment. Absent (older segments), the header's list stands.
type checkpointMark struct {
	Seq     uint64   `json:"seq"`
	Count   int      `json:"count"`
	Cls     int      `json:"cls,omitempty"`
	Lin     int      `json:"lin,omitempty"`
	Sensors []string `json:"sensors,omitempty"`
}

// wireRecord is the JSON envelope behind every frame.
type wireRecord struct {
	Kind string                       `json:"k"`
	Hdr  *header                      `json:"hdr,omitempty"`
	Ckpt *checkpointMark              `json:"ckpt,omitempty"`
	Src  *incident.SourceEvidence     `json:"src,omitempty"`
	Cls  *incident.ClassifierEvidence `json:"cls,omitempty"`
	Lin  *lineage.Observation         `json:"lin,omitempty"`
	End  *checkpointMark              `json:"end,omitempty"`
}

// ErrNoCheckpoint reports a segment with a valid header but no
// committed checkpoint — a sensor that crashed before its first
// complete write.
var ErrNoCheckpoint = errors.New("fed: segment has no committed checkpoint")

// nextFrame slices the first frame off data. io.EOF means data is
// empty; any other error means it is corrupt or truncated at this
// frame.
func nextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, io.EOF
	}
	n, digits := 0, 0
	for ; digits < len(data) && data[digits] != ' '; digits++ {
		b := data[digits]
		if b < '0' || b > '9' {
			return nil, nil, fmt.Errorf("fed: bad length prefix byte %q", b)
		}
		if digits == maxLenDigits {
			return nil, nil, errors.New("fed: oversized length prefix")
		}
		n = n*10 + int(b-'0')
	}
	switch {
	case digits == len(data):
		return nil, nil, fmt.Errorf("fed: truncated length prefix: %w", io.ErrUnexpectedEOF)
	case digits == 0:
		return nil, nil, errors.New("fed: empty length prefix")
	case n == 0 || n > MaxRecordBytes:
		return nil, nil, fmt.Errorf("fed: record length %d outside (0, %d]", n, MaxRecordBytes)
	}
	data = data[digits+1:]
	if len(data) < n+1 {
		return nil, nil, fmt.Errorf("fed: truncated record: %w", io.ErrUnexpectedEOF)
	}
	if data[n] != '\n' {
		return nil, nil, errors.New("fed: record missing terminator")
	}
	return data[:n], data[n+1:], nil
}

// headerFor renders an export's parameters as a segment header.
func headerFor(ex *incident.EvidenceExport) *header {
	return &header{Format: FormatName, Version: Version, Sensors: ex.Sensors, Params: ex.Params}
}

// snapshot is one evidence group as a checkpoint writes it: the
// segment header it belongs under, the record counts its marks
// declare, and the record frames, sources first, then classifier,
// then lineage. Frames come either from an export, encoded as they
// are written, or from a State's cache of already encoded records.
// A delta holds only the records changed since the previous group;
// unchanged marks one that adds nothing to it.
type snapshot struct {
	hdr             *header
	count, cls, lin int
	delta           bool
	unchanged       bool

	ex     *incident.EvidenceExport
	frames [][]byte
}

// exportSnapshot adapts a plain export.
func exportSnapshot(ex *incident.EvidenceExport) *snapshot {
	return &snapshot{hdr: headerFor(ex), count: len(ex.Sources), cls: len(ex.Classifier), lin: len(ex.Lineage), ex: ex}
}

// writeRecords writes the snapshot's record frames.
func (sn *snapshot) writeRecords(w *bufio.Writer, enc *frameEncoder) error {
	for _, frame := range sn.frames {
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	if sn.ex == nil {
		return nil
	}
	for i := range sn.ex.Sources {
		if err := writeRecord(w, enc, &wireRecord{Kind: kindSource, Src: &sn.ex.Sources[i]}); err != nil {
			return err
		}
	}
	for i := range sn.ex.Classifier {
		if err := writeRecord(w, enc, &wireRecord{Kind: kindClassifier, Cls: &sn.ex.Classifier[i]}); err != nil {
			return err
		}
	}
	for i := range sn.ex.Lineage {
		if err := writeRecord(w, enc, &wireRecord{Kind: kindLineage, Lin: &sn.ex.Lineage[i]}); err != nil {
			return err
		}
	}
	return nil
}

// writeCheckpoint appends one committed evidence group, full or delta.
// The commit mark echoes the opening mark's counts but not the sensors
// — the decoder validates the group on seq and counts alone. Lineage
// ("lin") records and delta ("dckpt") groups are minor-format additions
// within Version 1: older decoders skip unknown kinds, so pre-lineage
// builds drop the ancestry plane and pre-delta builds read the newest
// full group.
func writeCheckpoint(w *bufio.Writer, enc *frameEncoder, seq uint64, sn *snapshot) error {
	open := &checkpointMark{Seq: seq, Count: sn.count, Cls: sn.cls, Lin: sn.lin, Sensors: sn.hdr.Sensors}
	kind := kindCheckpoint
	if sn.delta {
		kind = kindDelta
	}
	if err := writeRecord(w, enc, &wireRecord{Kind: kind, Ckpt: open}); err != nil {
		return err
	}
	if err := sn.writeRecords(w, enc); err != nil {
		return err
	}
	end := &checkpointMark{Seq: seq, Count: open.Count, Cls: open.Cls, Lin: open.Lin}
	return writeRecord(w, enc, &wireRecord{Kind: kindCommit, End: end})
}

// WriteExport serializes an evidence export as one complete segment:
// header plus a single committed checkpoint.
func WriteExport(w io.Writer, ex *incident.EvidenceExport) error {
	bw := bufio.NewWriter(w)
	var enc frameEncoder
	sn := exportSnapshot(ex)
	if err := writeRecord(bw, &enc, &wireRecord{Kind: kindHeader, Hdr: sn.hdr}); err != nil {
		return err
	}
	if err := writeCheckpoint(bw, &enc, 1, sn); err != nil {
		return err
	}
	return bw.Flush()
}

// checkHeader validates a segment's first record.
func checkHeader(rec *wireRecord) (*header, error) {
	if rec.Kind != kindHeader || rec.Hdr == nil {
		return nil, fmt.Errorf("fed: segment does not start with a header (got %q)", rec.Kind)
	}
	hdr := rec.Hdr
	if hdr.Format != FormatName {
		return nil, fmt.Errorf("fed: unknown format %q", hdr.Format)
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("fed: wire version %d not supported (this build speaks %d)", hdr.Version, Version)
	}
	// Correlation parameters are part of the evidence semantics: a
	// crafted or hand-edited header carrying parameters no correlator
	// runs under fails here, not deeper in derivation.
	if err := hdr.Params.Validate(); err != nil {
		return nil, fmt.Errorf("fed: segment header: %w", err)
	}
	return hdr, nil
}

// segFrame is one well-framed evidence record of a segment.
type segFrame struct {
	// kind is the record kind — read off the canonical `{"k":"…",`
	// prefix (recordKind) for evidence records, whose bodies are
	// decoded only if their group wins, and from a full decode (kept in
	// rec) for everything else.
	kind    string
	payload []byte
	rec     *wireRecord
}

// segGroup is one checkpoint group committed by its marks and record
// counts: frames[lo:hi] are its evidence records. A delta extends the
// group numbered open.Seq-1.
type segGroup struct {
	open   *checkpointMark
	delta  bool
	lo, hi int
}

// segWalk is a segment split and walked, its evidence records not yet
// decoded.
type segWalk struct {
	hdr    *header
	frames []segFrame
	groups []segGroup
	dec    recordDecoder
}

// decodeSegment splits a segment into frames, decodes the header and
// the marks, and finds the groups the marks and record counts commit.
// A frame that fails to decode drops the group it falls in; the
// framing still holds, so the walk goes on to the next group.
func decodeSegment(data []byte) (*segWalk, error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		if err == io.EOF {
			return nil, errors.New("fed: empty segment")
		}
		return nil, err
	}
	seg := &segWalk{}
	first, err := seg.dec.record(payload)
	if err != nil {
		return nil, fmt.Errorf("fed: bad record JSON: %w", err)
	}
	if seg.hdr, err = checkHeader(first); err != nil {
		return nil, err
	}

	var open *checkpointMark
	var seen checkpointMark // evidence records counted in the open group
	var lo int
	var delta bool
	for {
		// A framing error is a truncated or corrupt tail: the groups
		// committed before it stand.
		if payload, rest, err = nextFrame(rest); err != nil {
			break
		}
		fr := segFrame{kind: recordKind(payload), payload: payload}
		if !isEvidence(fr.kind) {
			if fr.rec, err = seg.dec.record(payload); err != nil {
				open = nil
				continue
			}
			fr.kind = fr.rec.Kind
		}
		switch fr.kind {
		case kindCheckpoint, kindDelta:
			open = fr.rec.Ckpt
			if open != nil && (open.Count < 0 || open.Cls < 0 || open.Lin < 0) {
				open = nil
			}
			lo, seen, delta = len(seg.frames), checkpointMark{}, fr.kind == kindDelta
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
				seg.groups = append(seg.groups, segGroup{open: open, delta: delta, lo: lo, hi: len(seg.frames)})
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

// decodedChain is a segment's winning chain of groups — a full group
// and the deltas after it — decoded as far as a state's memo requires.
type decodedChain struct {
	groups []decodedGroup

	// keys names every record frame of the chain, for the memo;
	// decoded counts those that were decoded rather than recognized.
	keys    []memoEntry
	decoded int
}

// decodedGroup is one group's records.
type decodedGroup struct {
	sensors []string
	sources []incident.SourceEvidence
	cls     []incident.ClassifierEvidence
	lin     []lineage.Observation
}

// chainStart returns the index of the full group the chain ending at
// group g rests on. When the chain is broken — a delta whose group
// before it is missing, uncommitted or numbered other than seq-1 — it
// returns -1 and the index of the delta at the break: every chain
// through that delta is broken too.
func (seg *segWalk) chainStart(g int) (start, broken int) {
	k := g
	for ; seg.groups[k].delta; k-- {
		if k == 0 || seg.groups[k-1].open.Seq+1 != seg.groups[k].open.Seq {
			return -1, k
		}
	}
	return k, -1
}

// decodeNewest decodes the newest committed group whose chain back to
// a full group is intact and whose chain's records all decode. A group
// with a record that does not decode to its announced kind is not
// committed, and neither is a delta over it: the walk falls back to
// the group before it. Given a state (with its mu held), frames its
// memo holds are not decoded and every frame's key is kept; without
// one, no frame is hashed.
func (seg *segWalk) decodeNewest(st *State) (*decodedChain, error) {
	for g := len(seg.groups) - 1; g >= 0; {
		start, broken := seg.chainStart(g)
		if start < 0 {
			g = broken - 1
			continue
		}
		in := &decodedChain{}
		bad := -1
		for k := start; k <= g && bad < 0; k++ {
			if !seg.decodeGroup(&seg.groups[k], st, in) {
				bad = k
			}
		}
		if bad < 0 {
			return in, nil
		}
		g = bad - 1
	}
	return nil, ErrNoCheckpoint
}

// decodeGroup decodes one group's records onto the chain, reporting
// whether every one of them decodes.
func (seg *segWalk) decodeGroup(grp *segGroup, st *State, in *decodedChain) bool {
	out := decodedGroup{sensors: seg.hdr.Sensors}
	if grp.open.Sensors != nil {
		out.sensors = grp.open.Sensors
	}
	for i := grp.lo; i < grp.hi; i++ {
		fr := &seg.frames[i]
		var key frameKey
		if st != nil {
			key = st.keyOf(fr.payload)
			if src, held := st.memo[key]; held {
				in.keys = append(in.keys, memoEntry{key, src})
				continue
			}
		}
		rec := fr.rec
		if rec == nil {
			var err error
			if rec, err = seg.dec.record(fr.payload); err != nil || rec.Kind != fr.kind {
				return false
			}
		}
		if !rec.carries(fr.kind) {
			return false
		}
		in.decoded++
		var src netip.Addr
		switch fr.kind {
		case kindSource:
			src = rec.Src.Src
			out.sources = append(out.sources, *rec.Src)
		case kindClassifier:
			out.cls = append(out.cls, *rec.Cls)
		case kindLineage:
			out.lin = append(out.lin, *rec.Lin)
		}
		if st != nil {
			in.keys = append(in.keys, memoEntry{key, src})
		}
	}
	in.groups = append(in.groups, out)
	return true
}

// mergeInto folds the chain's records into f, oldest group first.
func (in *decodedChain) mergeInto(f *incident.Fold) {
	for i := range in.groups {
		g := &in.groups[i]
		f.Merge(g.sensors, g.sources, g.cls, g.lin)
	}
}

// export renders a fully decoded chain as an evidence export: a lone
// full group as it stands, a longer chain through one incident.Fold.
// The fold is a join, so a record a later delta supersedes, or a
// lineage observation the cap displaced, needs no removal record.
func (in *decodedChain) export(p incident.Params) *incident.EvidenceExport {
	if len(in.groups) == 1 {
		g := &in.groups[0]
		return &incident.EvidenceExport{Sensors: g.sensors, Params: p, Sources: g.sources, Classifier: g.cls, Lineage: g.lin}
	}
	f := incident.NewFold(p)
	in.mergeInto(f)
	return f.Export()
}

// ReadExport decodes a segment, read whole from r, returning the
// newest committed checkpoint as an evidence export. Corruption or
// truncation around a committed checkpoint is tolerated (the committed
// state is returned); a segment with no committed checkpoint, a bad
// header, or a version this build does not speak is an error, as is a
// failure to read r. It is the push decoder without a memo: the
// groups are walked on their marks and only the winning chain's
// records are decoded.
func ReadExport(r io.Reader) (*incident.EvidenceExport, error) {
	// Sized up front when r knows its length: growing the buffer as it
	// fills would allocate several times the segment.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("fed: reading segment: %w", err)
	}
	seg, err := decodeSegment(buf.Bytes())
	if err != nil {
		return nil, err
	}
	in, err := seg.decodeNewest(nil)
	if err != nil {
		return nil, err
	}
	return in.export(seg.hdr.Params), nil
}

// Committed reports whether a segment holds a committed checkpoint,
// with the error ReadExport would return for it, nil when it does. It
// walks the marks and decodes the winning chain's records, but renders
// no export.
func Committed(data []byte) error {
	seg, err := decodeSegment(data)
	if err == nil {
		_, err = seg.decodeNewest(nil)
	}
	return err
}

// Merge federates two evidence exports: a fresh incident.Fold joins
// both and renders every record — the union of their evidence under
// shared caps, propagation re-derived across sensors and closed,
// provenance preserved per record. Commutative, associative and
// idempotent on wire bytes, within the scope incident.Fold states.
// Both exports must carry equal, valid Params.
func Merge(a, b *incident.EvidenceExport) (*incident.EvidenceExport, error) {
	if err := a.Params.Validate(); err != nil {
		return nil, err
	}
	f := incident.NewFold(a.Params)
	for _, ex := range []*incident.EvidenceExport{a, b} {
		if err := f.Compatible(ex.Params); err != nil {
			return nil, err
		}
		f.Merge(ex.Sensors, ex.Sources, ex.Classifier, ex.Lineage)
	}
	return f.Export(), nil
}
