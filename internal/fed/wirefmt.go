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
// parameters). Evidence follows in checkpoint groups — a "ckpt" mark,
// the per-source "src" records, then an "end" commit mark echoing the
// checkpoint sequence and count. A group missing its commit mark (a
// crash mid-write, a truncated copy) is ignored by the decoder, which
// returns the newest *committed* checkpoint; the framing makes
// truncation detectable at every byte.
package fed

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

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

// checkpointMark opens ("ckpt") and commits ("end") one evidence
// snapshot of Count source records plus Cls classifier records. The
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

// marshalRecord renders one record's JSON document under the wire
// bound.
func marshalRecord(rec *wireRecord) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(data) > MaxRecordBytes {
		return nil, fmt.Errorf("fed: record of %d bytes exceeds the %d-byte wire bound", len(data), MaxRecordBytes)
	}
	return data, nil
}

// frameEncoder renders records as complete frames through one
// buffer: json.Encoder writes the document and the terminating
// newline, and the length prefix is filled in before it.
type frameEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func (e *frameEncoder) encode(rec *wireRecord) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	const room = maxLenDigits + 1
	var digits [room]byte
	e.buf.Reset()
	e.buf.Write(digits[:])
	if err := e.enc.Encode(rec); err != nil {
		return nil, err
	}
	b := e.buf.Bytes()
	n := len(b) - room - 1
	if n > MaxRecordBytes {
		return nil, fmt.Errorf("fed: record of %d bytes exceeds the %d-byte wire bound", n, MaxRecordBytes)
	}
	prefix := append(strconv.AppendInt(digits[:0], int64(n), 10), ' ')
	start := room - len(prefix)
	copy(b[start:], prefix)
	return bytes.Clone(b[start:]), nil
}

// writeRecord frames one record.
func writeRecord(w *bufio.Writer, rec *wireRecord) error {
	data, err := marshalRecord(rec)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(strconv.AppendInt(w.AvailableBuffer(), int64(len(data)), 10), ' ')); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// lenPrefix parses a frame's length prefix a byte at a time, for the
// stream and the slice decoder alike.
type lenPrefix struct{ n, digits int }

// feed takes the next byte; done reports the terminating space, after
// which n is the record's length.
func (p *lenPrefix) feed(b byte) (done bool, err error) {
	if b == ' ' {
		if p.digits == 0 {
			return false, errors.New("fed: empty length prefix")
		}
		if p.n == 0 || p.n > MaxRecordBytes {
			return false, fmt.Errorf("fed: record length %d outside (0, %d]", p.n, MaxRecordBytes)
		}
		return true, nil
	}
	if b < '0' || b > '9' {
		return false, fmt.Errorf("fed: bad length prefix byte %q", b)
	}
	if p.digits++; p.digits > maxLenDigits {
		return false, errors.New("fed: oversized length prefix")
	}
	p.n = p.n*10 + int(b-'0')
	return false, nil
}

// frameReader decodes the frames of one stream through one buffer.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

// next decodes one frame into rec, which it resets first: a decoded
// record never shares memory with the one before it. io.EOF means a
// clean end between records; any other error means the stream is
// corrupt or truncated at this record.
func (fr *frameReader) next(rec *wireRecord) error {
	var prefix lenPrefix
	for done := false; !done; {
		b, err := fr.br.ReadByte()
		if err != nil {
			if err == io.EOF && prefix.digits == 0 {
				return io.EOF
			}
			return fmt.Errorf("fed: truncated length prefix: %w", err)
		}
		if done, err = prefix.feed(b); err != nil {
			return err
		}
	}
	n := prefix.n
	if cap(fr.buf) < n+1 {
		fr.buf = make([]byte, n+1)
	}
	buf := fr.buf[:n+1]
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		return fmt.Errorf("fed: truncated record: %w", err)
	}
	if buf[n] != '\n' {
		return errors.New("fed: record missing terminator")
	}
	*rec = wireRecord{}
	if err := json.Unmarshal(buf[:n], rec); err != nil {
		return fmt.Errorf("fed: bad record JSON: %w", err)
	}
	return nil
}

// nextFrame slices the first frame off data, under the framing rules
// frameReader applies to a stream. io.EOF means data is empty.
func nextFrame(data []byte) (payload, rest []byte, err error) {
	var prefix lenPrefix
	for done := false; !done; data = data[1:] {
		if len(data) == 0 {
			if prefix.digits == 0 {
				return nil, nil, io.EOF
			}
			return nil, nil, fmt.Errorf("fed: truncated length prefix: %w", io.ErrUnexpectedEOF)
		}
		if done, err = prefix.feed(data[0]); err != nil {
			return nil, nil, err
		}
	}
	n := prefix.n
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

// snapshot is one evidence state as a checkpoint writes it: the
// segment header it belongs under, the record counts its marks
// declare, and the record frames, sources first, then classifier,
// then lineage. Frames come either from an export, marshalled as they
// are written, or from a State's cache of already encoded records.
type snapshot struct {
	hdr             *header
	count, cls, lin int

	ex     *incident.EvidenceExport
	frames [][]byte
}

// exportSnapshot adapts a plain export.
func exportSnapshot(ex *incident.EvidenceExport) *snapshot {
	return &snapshot{hdr: headerFor(ex), count: len(ex.Sources), cls: len(ex.Classifier), lin: len(ex.Lineage), ex: ex}
}

// writeRecords writes the snapshot's record frames.
func (sn *snapshot) writeRecords(w *bufio.Writer) error {
	for _, frame := range sn.frames {
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	if sn.ex == nil {
		return nil
	}
	for i := range sn.ex.Sources {
		if err := writeRecord(w, &wireRecord{Kind: kindSource, Src: &sn.ex.Sources[i]}); err != nil {
			return err
		}
	}
	for i := range sn.ex.Classifier {
		if err := writeRecord(w, &wireRecord{Kind: kindClassifier, Cls: &sn.ex.Classifier[i]}); err != nil {
			return err
		}
	}
	for i := range sn.ex.Lineage {
		if err := writeRecord(w, &wireRecord{Kind: kindLineage, Lin: &sn.ex.Lineage[i]}); err != nil {
			return err
		}
	}
	return nil
}

// writeCheckpoint appends one committed evidence snapshot. The commit
// mark echoes the opening mark's counts but not the sensors — the
// decoder validates the group on seq and counts alone. Lineage ("lin")
// records are a minor-format addition within Version 1: the opening
// mark declares their count and older decoders skip unknown kinds, so
// segments with lineage remain readable by pre-lineage builds (which
// simply drop the ancestry plane).
func writeCheckpoint(w *bufio.Writer, seq uint64, sn *snapshot) error {
	open := &checkpointMark{Seq: seq, Count: sn.count, Cls: sn.cls, Lin: sn.lin, Sensors: sn.hdr.Sensors}
	if err := writeRecord(w, &wireRecord{Kind: kindCheckpoint, Ckpt: open}); err != nil {
		return err
	}
	if err := sn.writeRecords(w); err != nil {
		return err
	}
	end := &checkpointMark{Seq: seq, Count: open.Count, Cls: open.Cls, Lin: open.Lin}
	return writeRecord(w, &wireRecord{Kind: kindCommit, End: end})
}

// WriteExport serializes an evidence export as one complete segment:
// header plus a single committed checkpoint.
func WriteExport(w io.Writer, ex *incident.EvidenceExport) error {
	bw := bufio.NewWriter(w)
	sn := exportSnapshot(ex)
	if err := writeRecord(bw, &wireRecord{Kind: kindHeader, Hdr: sn.hdr}); err != nil {
		return err
	}
	if err := writeCheckpoint(bw, 1, sn); err != nil {
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

// ReadExport decodes a segment, returning the newest committed
// checkpoint as an evidence export. Corruption or truncation after a
// committed checkpoint is tolerated (the committed state is
// returned); a segment with no committed checkpoint, a bad header, or
// a version this build does not speak is an error.
func ReadExport(r io.Reader) (*incident.EvidenceExport, error) {
	fr := &frameReader{br: bufio.NewReader(r)}
	rec := &wireRecord{}
	if err := fr.next(rec); err != nil {
		if err == io.EOF {
			return nil, errors.New("fed: empty segment")
		}
		return nil, err
	}
	hdr, err := checkHeader(rec)
	if err != nil {
		return nil, err
	}

	ex := &incident.EvidenceExport{Params: hdr.Params}
	var committed []incident.SourceEvidence
	var committedCls []incident.ClassifierEvidence
	var committedLin []lineage.Observation
	committedSensors := hdr.Sensors
	haveCommit := false

	var pending []incident.SourceEvidence
	var pendingCls []incident.ClassifierEvidence
	var pendingLin []lineage.Observation
	var open *checkpointMark
	drop := func() {
		open, pending, pendingCls, pendingLin = nil, nil, nil, nil
	}
	for {
		if err := fr.next(rec); err != nil {
			// Clean EOF between records ends the segment; anything else
			// is a truncated tail — either way the newest committed
			// checkpoint stands.
			break
		}
		switch rec.Kind {
		case kindCheckpoint:
			if rec.Ckpt == nil || rec.Ckpt.Count < 0 || rec.Ckpt.Cls < 0 || rec.Ckpt.Lin < 0 {
				drop()
				continue
			}
			open = rec.Ckpt
			pending = pending[:0]
			pendingCls = pendingCls[:0]
			pendingLin = pendingLin[:0]
		case kindSource:
			if open == nil || rec.Src == nil || len(pending) >= open.Count {
				drop()
				continue
			}
			pending = append(pending, *rec.Src)
		case kindClassifier:
			if open == nil || rec.Cls == nil || len(pendingCls) >= open.Cls {
				drop()
				continue
			}
			pendingCls = append(pendingCls, *rec.Cls)
		case kindLineage:
			if open == nil || rec.Lin == nil || len(pendingLin) >= open.Lin {
				drop()
				continue
			}
			pendingLin = append(pendingLin, *rec.Lin)
		case kindCommit:
			if open == nil || rec.End == nil || rec.End.Seq != open.Seq || rec.End.Count != open.Count ||
				rec.End.Cls != open.Cls || rec.End.Lin != open.Lin ||
				len(pending) != open.Count || len(pendingCls) != open.Cls || len(pendingLin) != open.Lin {
				drop()
				continue
			}
			committed = append(committed[:0], pending...)
			committedCls = append(committedCls[:0], pendingCls...)
			committedLin = append(committedLin[:0], pendingLin...)
			if open.Sensors != nil {
				committedSensors = open.Sensors
			}
			haveCommit = true
			drop()
		default:
			// Unknown minor-format record: skip (framing still holds).
		}
	}
	if !haveCommit {
		return nil, ErrNoCheckpoint
	}
	ex.Sensors = committedSensors
	ex.Sources = committed
	ex.Classifier = committedCls
	ex.Lineage = committedLin
	return ex, nil
}

// Merge federates two evidence exports — the union of their evidence
// under shared caps, propagation re-derived across sensors,
// provenance preserved per record. Commutative and idempotent; see
// incident.MergeExports for the semantics.
func Merge(a, b *incident.EvidenceExport) (*incident.EvidenceExport, error) {
	return incident.MergeExports(a, b)
}
