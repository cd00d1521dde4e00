package fed

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"unicode/utf8"

	"semnids/internal/core"
	"semnids/internal/incident"
	"semnids/internal/lineage"
)

// The evidence codec: one writer and one reader for wire records,
// without reflection.
//
// appendRecord writes a record byte for byte as encoding/json writes
// it: fields in struct order, omitempty as the tags say, null for a
// nil slice without omitempty, netip.Addr as its text ("" for the zero
// address), and encoding/json's HTML-safe string escaping. So the wire
// bytes are what json.Marshal gives, and an older build reads them.
//
// The decoder accepts the canonical spelling only: the bytes
// appendRecord writes for one of the seven record kinds, except the
// escape it writes for invalid UTF-8 (see unescape). Anything else —
// other whitespace, key order or case, unknown or duplicate keys, null
// for an omitted slice, other escapes, number spellings — it declines,
// and the record goes to json.Unmarshal. What it accepts it decodes
// to the value json.Unmarshal gives (FuzzCanonicalDecode), so the
// fallback is not a second format: a frame means the same thing
// whichever path reads it.

// frameEncoder renders records as frames through one reused document
// buffer. It is the one writer: WriteExport, both sinks and a State's
// record cache all frame through it.
type frameEncoder struct {
	doc []byte
}

// document renders rec's JSON document into the encoder's buffer,
// valid until the next call, and holds it to the wire bound.
func (e *frameEncoder) document(rec *wireRecord) ([]byte, error) {
	e.doc = appendRecord(e.doc[:0], rec)
	if n := len(e.doc); n > MaxRecordBytes {
		return nil, fmt.Errorf("fed: record of %d bytes exceeds the %d-byte wire bound", n, MaxRecordBytes)
	}
	return e.doc, nil
}

// framePrefix appends a frame's length prefix: the document's decimal
// length and a space.
func framePrefix(b []byte, n int) []byte {
	return append(strconv.AppendInt(b, int64(n), 10), ' ')
}

// appendFrame appends rec's frame to dst: the length prefix, the
// document and a newline. dst grows only by the frame, so appended to
// nil the frame is allocated at its size.
func (e *frameEncoder) appendFrame(dst []byte, rec *wireRecord) ([]byte, error) {
	doc, err := e.document(rec)
	if err != nil {
		return dst, err
	}
	var buf [maxLenDigits + 1]byte
	prefix := framePrefix(buf[:0], len(doc))
	if size := len(prefix) + len(doc) + 1; cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	dst = append(append(dst, prefix...), doc...)
	return append(dst, '\n'), nil
}

// writeRecord frames one record into w.
func writeRecord(w *bufio.Writer, enc *frameEncoder, rec *wireRecord) error {
	doc, err := enc.document(rec)
	if err != nil {
		return err
	}
	if w.Available() <= maxLenDigits {
		w.Flush()
	}
	// The prefix is appended in w's own buffer, which has room for it;
	// a bufio.Writer's error sticks, so the last call reports any.
	w.Write(framePrefix(w.AvailableBuffer(), len(doc)))
	w.Write(doc)
	return w.WriteByte('\n')
}

// appendRecord appends rec's JSON document as json.Marshal writes it.
func appendRecord(b []byte, rec *wireRecord) []byte {
	b = append(b, `{"k":`...)
	b = appendString(b, rec.Kind)
	if rec.Hdr != nil {
		b = appendHeader(append(b, `,"hdr":`...), rec.Hdr)
	}
	if rec.Ckpt != nil {
		b = appendMark(append(b, `,"ckpt":`...), rec.Ckpt)
	}
	if rec.Src != nil {
		b = appendSource(append(b, `,"src":`...), rec.Src)
	}
	if rec.Cls != nil {
		b = appendClassifier(append(b, `,"cls":`...), rec.Cls)
	}
	if rec.Lin != nil {
		b = appendObservation(append(b, `,"lin":`...), rec.Lin)
	}
	if rec.End != nil {
		b = appendMark(append(b, `,"end":`...), rec.End)
	}
	return append(b, '}')
}

func appendHeader(b []byte, h *header) []byte {
	b = appendString(append(b, `{"format":`...), h.Format)
	b = strconv.AppendInt(append(b, `,"version":`...), int64(h.Version), 10)
	b = append(b, `,"sensors":`...)
	if h.Sensors == nil {
		b = append(b, "null"...)
	} else {
		b = appendList(b, h.Sensors, appendStringAt)
	}
	p := &h.Params
	b = strconv.AppendUint(append(b, `,"window_us":`...), p.WindowUS, 10)
	b = strconv.AppendInt(append(b, `,"fanout_threshold":`...), int64(p.FanoutThreshold), 10)
	l := &p.Limits
	b = strconv.AppendInt(append(b, `,"limits":{"max_destinations":`...), int64(l.MaxDestinations), 10)
	b = strconv.AppendInt(append(b, `,"max_alerts":`...), int64(l.MaxAlerts), 10)
	b = strconv.AppendInt(append(b, `,"max_fingerprints":`...), int64(l.MaxFingerprints), 10)
	b = strconv.AppendInt(append(b, `,"max_victims":`...), int64(l.MaxVictims), 10)
	return append(b, "}}"...)
}

func appendMark(b []byte, m *checkpointMark) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), m.Seq, 10)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(m.Count), 10)
	b = appendOptInt(b, `,"cls":`, m.Cls)
	b = appendOptInt(b, `,"lin":`, m.Lin)
	if len(m.Sensors) > 0 {
		b = appendList(append(b, `,"sensors":`...), m.Sensors, appendStringAt)
	}
	return append(b, '}')
}

func appendSource(b []byte, s *incident.SourceEvidence) []byte {
	b = appendAddr(append(b, `{"src":`...), s.Src)
	if len(s.Sensors) > 0 {
		b = appendList(append(b, `,"sensors":`...), s.Sensors, appendStringAt)
	}
	b = appendString(append(b, `,"stage":`...), s.Stage)
	b = appendOptUint(b, `,"first_us":`, s.FirstUS)
	b = appendOptUint(b, `,"last_us":`, s.LastUS)
	b = appendOptUint(b, `,"last_seen_us":`, s.LastSeenUS)
	if len(s.Dests) > 0 {
		b = appendList(append(b, `,"dests":`...), s.Dests, appendDest)
	}
	if len(s.Alerts) > 0 {
		b = appendList(append(b, `,"alerts":`...), s.Alerts, appendAlert)
	}
	b = appendOptUint(b, `,"exploit_at_us":`, s.ExploitAtUS)
	if s.Severity != "" {
		b = appendString(append(b, `,"severity":`...), s.Severity)
	}
	if len(s.Templates) > 0 {
		b = appendList(append(b, `,"templates":`...), s.Templates, appendStringAt)
	}
	if len(s.TargetedBy) > 0 {
		b = appendList(append(b, `,"targeted_by":`...), s.TargetedBy, appendAttackers)
	}
	if len(s.Emitted) > 0 {
		b = appendList(append(b, `,"emitted":`...), s.Emitted, appendSpan)
	}
	b = appendOptUint(b, `,"propagation_at_us":`, s.PropagationAtUS)
	if len(s.Victims) > 0 {
		b = appendList(append(b, `,"victims":`...), s.Victims, appendVictim)
	}
	return append(b, '}')
}

func appendDest(b []byte, d *incident.DestEvidence) []byte {
	b = appendAddr(append(b, `{"addr":`...), d.Addr)
	b = strconv.AppendUint(append(b, `,"first_us":`...), d.FirstUS, 10)
	b = strconv.AppendUint(append(b, `,"last_us":`...), d.LastUS, 10)
	return append(b, '}')
}

func appendAlert(b []byte, a *incident.AlertEvidence) []byte {
	b = strconv.AppendUint(append(b, `{"ts_us":`...), a.TsUS, 10)
	b = appendAddr(append(b, `,"dst":`...), a.Dst)
	if a.Template != "" {
		b = appendString(append(b, `,"template":`...), a.Template)
	}
	return append(b, '}')
}

func appendAttackers(b []byte, f *incident.FingerprintAttackers) []byte {
	b = appendFingerprint(append(b, `{"fp":`...), &f.Fingerprint)
	b = append(b, `,"refs":`...)
	if f.Refs == nil {
		b = append(b, "null"...)
	} else {
		b = appendList(b, f.Refs, appendRef)
	}
	return append(b, '}')
}

func appendRef(b []byte, r *incident.AttackerRef) []byte {
	b = appendAddr(append(b, `{"attacker":`...), r.Attacker)
	b = strconv.AppendUint(append(b, `,"ts_us":`...), r.TsUS, 10)
	return append(b, '}')
}

func appendSpan(b []byte, s *incident.FingerprintSpan) []byte {
	b = appendFingerprint(append(b, `{"fp":`...), &s.Fingerprint)
	b = strconv.AppendUint(append(b, `,"first_us":`...), s.FirstUS, 10)
	b = strconv.AppendUint(append(b, `,"last_us":`...), s.LastUS, 10)
	return append(b, '}')
}

func appendVictim(b []byte, v *incident.VictimEvidence) []byte {
	b = appendAddr(append(b, `{"addr":`...), v.Addr)
	b = strconv.AppendUint(append(b, `,"echo_us":`...), v.EchoUS, 10)
	return append(b, '}')
}

func appendClassifier(b []byte, c *incident.ClassifierEvidence) []byte {
	b = appendAddr(append(b, `{"src":`...), c.Src)
	b = appendOptUint(b, `,"suspicious_until_us":`, c.SuspiciousUntilUS)
	if len(c.Dark) > 0 {
		b = appendList(append(b, `,"dark":`...), c.Dark, appendAddrAt)
	}
	return append(b, '}')
}

func appendObservation(b []byte, o *lineage.Observation) []byte {
	b = appendFingerprint(append(b, `{"exact":`...), &o.Exact)
	b = appendFingerprint(append(b, `,"tail":`...), &o.Tail)
	b = appendOptUint(b, `,"template_sym":`, o.TemplateSym)
	b = appendOptUint(b, `,"stmts_sym":`, o.StmtsSym)
	b = strconv.AppendUint(append(b, `,"first_us":`...), o.FirstUS, 10)
	b = appendAddr(append(b, `,"src":`...), o.Src)
	b = appendAddr(append(b, `,"dst":`...), o.Dst)
	if len(o.Sensors) > 0 {
		b = appendList(append(b, `,"sensors":`...), o.Sensors, appendStringAt)
	}
	return append(b, '}')
}

func appendFingerprint(b []byte, f *core.Fingerprint) []byte {
	b = strconv.AppendUint(append(b, `{"A":`...), f.A, 10)
	b = strconv.AppendUint(append(b, `,"B":`...), f.B, 10)
	b = strconv.AppendInt(append(b, `,"N":`...), int64(f.N), 10)
	return append(b, '}')
}

// appendList appends a JSON array of list's elements.
func appendList[T any](b []byte, list []T, elem func([]byte, *T) []byte) []byte {
	b = append(b, '[')
	for i := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &list[i])
	}
	return append(b, ']')
}

// appendOptUint and appendOptInt append an omitempty number field.
func appendOptUint(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

func appendOptInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendAddr appends an address as encoding/json writes a
// TextMarshaler: its text as a JSON string. Only a zone can hold a
// byte that needs escaping.
func appendAddr(b []byte, a netip.Addr) []byte {
	if a.Zone() != "" {
		return appendString(b, a.String())
	}
	return append(a.AppendTo(append(b, '"')), '"')
}

func appendAddrAt(b []byte, a *netip.Addr) []byte { return appendAddr(b, *a) }

func appendStringAt(b []byte, s *string) []byte { return appendString(b, *s) }

const hexDigits = "0123456789abcdef"

// htmlSafe reports whether encoding/json writes an ASCII byte inside a
// string as it is: not a control byte, '"', '\\', '<', '>' or '&'.
func htmlSafe(c byte) bool {
	return c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it with HTML escaping on: control bytes, '"', '\\', '<', '>'
// and '&', U+2028 and U+2029, and each byte of invalid UTF-8 as
// the six-byte escape of U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, "\\ufffd"...)
			i++
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// recordKind reads a record's kind off the prefix appendRecord writes
// for a record with a body, `{"k":"<kind>",`, and returns "" for any
// other spelling. The decoder starts with it, and the segment walk
// counts an evidence record by it without decoding the rest.
func recordKind(payload []byte) string {
	const prefix = `{"k":"`
	if !bytes.HasPrefix(payload, []byte(prefix)) {
		return ""
	}
	rest := payload[len(prefix):]
	for _, kind := range [...]string{kindSource, kindClassifier, kindLineage, kindCheckpoint, kindDelta, kindCommit, kindHeader} {
		if len(rest) > len(kind)+1 && string(rest[:len(kind)]) == kind && rest[len(kind)] == '"' && rest[len(kind)+1] == ',' {
			return kind
		}
	}
	return ""
}

// isEvidence reports whether kind is an evidence record's.
func isEvidence(kind string) bool {
	return kind == kindSource || kind == kindClassifier || kind == kindLineage
}

// recordDecoder reads wire records: canonically where it can, through
// encoding/json where it must. One decoder reads one segment; it is
// not safe for concurrent use.
type recordDecoder struct {
	// fallbacks counts records the canonical reader declined and
	// json.Unmarshal decoded.
	fallbacks int

	// The document being read: b[i:] is still to read, and ok turns
	// false at the first byte off the canonical spelling.
	b  []byte
	i  int
	ok bool

	// strs interns the strings read, which repeat record after record
	// (sensor IDs, stages, templates). The rest is scratch: unescaped
	// text, a value written again to compare with what was read, and
	// one list per element type, each copied out at its final length.
	strs        map[string]string
	text, again []byte
	strList     []string
	addrs       []netip.Addr
	dests       []incident.DestEvidence
	alerts      []incident.AlertEvidence
	targeted    []incident.FingerprintAttackers
	refs        []incident.AttackerRef
	emitted     []incident.FingerprintSpan
	victims     []incident.VictimEvidence
}

// record decodes one frame's document, canonically or, when the
// canonical reader declines it, through json.Unmarshal.
func (d *recordDecoder) record(payload []byte) (*wireRecord, error) {
	rec := &wireRecord{}
	if d.canonical(payload, rec) {
		return rec, nil
	}
	*rec = wireRecord{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, err
	}
	d.fallbacks++
	return rec, nil
}

// canonical decodes payload into rec if it is spelled exactly as
// appendRecord writes a record of one of the seven kinds, and reports
// whether it was; rec is undefined when it was not.
func (d *recordDecoder) canonical(payload []byte, rec *wireRecord) bool {
	rec.Kind = recordKind(payload)
	if rec.Kind == "" {
		return false
	}
	d.b, d.i, d.ok = payload, len(`{"k":"`)+len(rec.Kind)+1, true
	if d.key(`,"hdr":`) {
		rec.Hdr = &header{}
		d.header(rec.Hdr)
	}
	if d.key(`,"ckpt":`) {
		rec.Ckpt = &checkpointMark{}
		d.mark(rec.Ckpt)
	}
	if d.key(`,"src":`) {
		rec.Src = &incident.SourceEvidence{}
		d.source(rec.Src)
	}
	if d.key(`,"cls":`) {
		rec.Cls = &incident.ClassifierEvidence{}
		d.classifier(rec.Cls)
	}
	if d.key(`,"lin":`) {
		rec.Lin = &lineage.Observation{}
		d.observation(rec.Lin)
	}
	if d.key(`,"end":`) {
		rec.End = &checkpointMark{}
		d.mark(rec.End)
	}
	d.lit("}")
	return d.ok && d.i == len(d.b)
}

func (d *recordDecoder) header(h *header) {
	h.Format = d.str(`{"format":`)
	h.Version = d.int(`,"version":`)
	if d.lit(`,"sensors":`); !d.key("null") {
		h.Sensors = list(d, &d.strList, (*recordDecoder).strElem)
	}
	p := &h.Params
	p.WindowUS = d.uint(`,"window_us":`)
	p.FanoutThreshold = d.int(`,"fanout_threshold":`)
	l := &p.Limits
	l.MaxDestinations = d.int(`,"limits":{"max_destinations":`)
	l.MaxAlerts = d.int(`,"max_alerts":`)
	l.MaxFingerprints = d.int(`,"max_fingerprints":`)
	l.MaxVictims = d.int(`,"max_victims":`)
	d.lit("}}")
}

func (d *recordDecoder) mark(m *checkpointMark) {
	m.Seq = d.uint(`{"seq":`)
	m.Count = d.int(`,"count":`)
	m.Cls = d.optInt(`,"cls":`)
	m.Lin = d.optInt(`,"lin":`)
	m.Sensors = optList(d, `,"sensors":`, &d.strList, (*recordDecoder).strElem)
	d.lit("}")
}

func (d *recordDecoder) source(s *incident.SourceEvidence) {
	s.Src = d.addr(`{"src":`)
	s.Sensors = optList(d, `,"sensors":`, &d.strList, (*recordDecoder).strElem)
	s.Stage = d.str(`,"stage":`)
	s.FirstUS = d.optUint(`,"first_us":`)
	s.LastUS = d.optUint(`,"last_us":`)
	s.LastSeenUS = d.optUint(`,"last_seen_us":`)
	s.Dests = optList(d, `,"dests":`, &d.dests, (*recordDecoder).dest)
	s.Alerts = optList(d, `,"alerts":`, &d.alerts, (*recordDecoder).alert)
	s.ExploitAtUS = d.optUint(`,"exploit_at_us":`)
	s.Severity = d.optStr(`,"severity":`)
	s.Templates = optList(d, `,"templates":`, &d.strList, (*recordDecoder).strElem)
	s.TargetedBy = optList(d, `,"targeted_by":`, &d.targeted, (*recordDecoder).attackers)
	s.Emitted = optList(d, `,"emitted":`, &d.emitted, (*recordDecoder).span)
	s.PropagationAtUS = d.optUint(`,"propagation_at_us":`)
	s.Victims = optList(d, `,"victims":`, &d.victims, (*recordDecoder).victim)
	d.lit("}")
}

func (d *recordDecoder) dest(v *incident.DestEvidence) {
	v.Addr = d.addr(`{"addr":`)
	v.FirstUS = d.uint(`,"first_us":`)
	v.LastUS = d.uint(`,"last_us":`)
	d.lit("}")
}

func (d *recordDecoder) alert(v *incident.AlertEvidence) {
	v.TsUS = d.uint(`{"ts_us":`)
	v.Dst = d.addr(`,"dst":`)
	v.Template = d.optStr(`,"template":`)
	d.lit("}")
}

func (d *recordDecoder) attackers(v *incident.FingerprintAttackers) {
	d.fingerprint(`{"fp":`, &v.Fingerprint)
	if d.lit(`,"refs":`); !d.key("null") {
		v.Refs = list(d, &d.refs, (*recordDecoder).ref)
	}
	d.lit("}")
}

func (d *recordDecoder) ref(v *incident.AttackerRef) {
	v.Attacker = d.addr(`{"attacker":`)
	v.TsUS = d.uint(`,"ts_us":`)
	d.lit("}")
}

func (d *recordDecoder) span(v *incident.FingerprintSpan) {
	d.fingerprint(`{"fp":`, &v.Fingerprint)
	v.FirstUS = d.uint(`,"first_us":`)
	v.LastUS = d.uint(`,"last_us":`)
	d.lit("}")
}

func (d *recordDecoder) victim(v *incident.VictimEvidence) {
	v.Addr = d.addr(`{"addr":`)
	v.EchoUS = d.uint(`,"echo_us":`)
	d.lit("}")
}

func (d *recordDecoder) classifier(c *incident.ClassifierEvidence) {
	c.Src = d.addr(`{"src":`)
	c.SuspiciousUntilUS = d.optUint(`,"suspicious_until_us":`)
	c.Dark = optList(d, `,"dark":`, &d.addrs, (*recordDecoder).addrElem)
	d.lit("}")
}

func (d *recordDecoder) observation(o *lineage.Observation) {
	d.fingerprint(`{"exact":`, &o.Exact)
	d.fingerprint(`,"tail":`, &o.Tail)
	o.TemplateSym = d.optUint(`,"template_sym":`)
	o.StmtsSym = d.optUint(`,"stmts_sym":`)
	o.FirstUS = d.uint(`,"first_us":`)
	o.Src = d.addr(`,"src":`)
	o.Dst = d.addr(`,"dst":`)
	o.Sensors = optList(d, `,"sensors":`, &d.strList, (*recordDecoder).strElem)
	d.lit("}")
}

func (d *recordDecoder) fingerprint(key string, f *core.Fingerprint) {
	d.lit(key)
	f.A = d.uint(`{"A":`)
	f.B = d.uint(`,"B":`)
	f.N = d.int(`,"N":`)
	d.lit("}")
}

// list reads a JSON array, one element per call of elem, into scratch
// and returns a copy sized to it: one allocation per array. An empty
// array reads as an empty slice, as json.Unmarshal gives it.
func list[T any](d *recordDecoder, scratch *[]T, elem func(*recordDecoder, *T)) []T {
	d.lit("[")
	if d.key("]") {
		return []T{}
	}
	var zero T
	s := (*scratch)[:0]
	for d.ok {
		s = append(s, zero)
		elem(d, &s[len(s)-1])
		if d.key("]") {
			*scratch = s
			return append(make([]T, 0, len(s)), s...)
		}
		d.lit(",")
	}
	*scratch = s
	return nil
}

// optList reads an omitempty array field: absent, or an array
// appendRecord never writes empty.
func optList[T any](d *recordDecoder, key string, scratch *[]T, elem func(*recordDecoder, *T)) []T {
	if !d.key(key) {
		return nil
	}
	out := list(d, scratch, elem)
	if len(out) == 0 {
		d.ok = false
	}
	return out
}

// lit consumes s, which must come next.
func (d *recordDecoder) lit(s string) {
	if !d.key(s) {
		d.ok = false
	}
}

// key consumes s if it comes next, and reports whether it did.
func (d *recordDecoder) key(s string) bool {
	if d.ok && len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// optUint, optInt and optStr read an omitempty field: absent, or a
// value appendRecord never writes as zero or empty.
func (d *recordDecoder) optUint(key string) uint64 {
	if !d.key(key) {
		return 0
	}
	v := d.uint("")
	d.ok = d.ok && v != 0
	return v
}

func (d *recordDecoder) optInt(key string) int {
	if !d.key(key) {
		return 0
	}
	v := d.int("")
	d.ok = d.ok && v != 0
	return v
}

func (d *recordDecoder) optStr(key string) string {
	if !d.key(key) {
		return ""
	}
	v := d.str("")
	d.ok = d.ok && v != ""
	return v
}

// uint reads the key, then a decimal as strconv.AppendUint writes
// it: no sign, no leading zero, no overflow.
func (d *recordDecoder) uint(key string) uint64 {
	if d.lit(key); !d.ok || d.i == len(d.b) || d.b[d.i] < '0' || d.b[d.i] > '9' {
		d.ok = false
		return 0
	}
	if d.b[d.i] == '0' {
		d.i++
		return 0
	}
	var v uint64
	for ; d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9'; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if v > (math.MaxUint64-c)/10 {
			d.ok = false
			return 0
		}
		v = v*10 + c
	}
	return v
}

// int reads the key, then a decimal as strconv.AppendInt writes an
// int: "-0" and values outside int are declined.
func (d *recordDecoder) int(key string) int {
	if d.lit(key); !d.key("-") {
		v := d.uint("")
		if v > math.MaxInt {
			d.ok = false
		}
		return int(v)
	}
	v := d.uint("")
	if v == 0 || v > math.MaxInt+1 {
		d.ok = false
		return 0
	}
	return -int(v)
}

// str reads the key, then a string, interned.
func (d *recordDecoder) str(key string) string {
	d.lit(key)
	text := d.unquote()
	if !d.ok {
		return ""
	}
	if s, held := d.strs[string(text)]; held {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(text)
	d.strs[s] = s
	return s
}

func (d *recordDecoder) strElem(s *string) { *s = d.str("") }

// addr reads the key, then an address as appendAddr writes it: the
// zero address as "", anything else in the one spelling netip writes.
// Dotted quads are read here, other forms through netip.ParseAddr.
func (d *recordDecoder) addr(key string) netip.Addr {
	d.lit(key)
	text := d.unquote()
	if !d.ok || len(text) == 0 {
		return netip.Addr{}
	}
	if a, ok := parseIPv4(text); ok {
		return a
	}
	a, err := netip.ParseAddr(string(text))
	if d.again = a.AppendTo(d.again[:0]); err != nil || !bytes.Equal(d.again, text) {
		d.ok = false
	}
	return a
}

func (d *recordDecoder) addrElem(a *netip.Addr) { *a = d.addr("") }

// parseIPv4 reads a dotted quad as netip writes one: four decimals of
// at most 255, without leading zeros.
func parseIPv4(text []byte) (netip.Addr, bool) {
	var ip [4]byte
	i := 0
	for k := range ip {
		if k > 0 {
			if i == len(text) || text[i] != '.' {
				return netip.Addr{}, false
			}
			i++
		}
		start, v := i, 0
		for ; i < len(text) && i-start < 3 && text[i] >= '0' && text[i] <= '9'; i++ {
			v = v*10 + int(text[i]-'0')
		}
		if i == start || v > 255 || text[start] == '0' && i-start > 1 {
			return netip.Addr{}, false
		}
		ip[k] = byte(v)
	}
	return netip.AddrFrom4(ip), i == len(text)
}

// unquote reads a string as appendString writes one and returns its
// contents: a slice of the document when nothing is escaped, else the
// text scratch buffer, valid until the next read.
func (d *recordDecoder) unquote() []byte {
	d.lit(`"`)
	start, escaped := d.i, false
	for d.ok && d.i < len(d.b) {
		switch d.b[d.i] {
		case '"':
			text := d.b[start:d.i]
			d.i++
			if escaped {
				return d.unescape(text)
			}
			return text
		case '\\':
			escaped = true
			d.i += 2
			continue
		}
		d.raw()
	}
	d.ok = false
	return nil
}

// raw consumes one character appendString writes as it is: an
// HTML-safe ASCII byte, or a valid UTF-8 sequence other than U+2028
// and U+2029.
func (d *recordDecoder) raw() {
	if c := d.b[d.i]; c < utf8.RuneSelf {
		d.ok = htmlSafe(c)
		d.i++
		return
	}
	r, size := utf8.DecodeRune(d.b[d.i:])
	d.ok = size > 1 && r != 0x2028 && r != 0x2029
	d.i += size
}

// unescape decodes the contents of a string with escapes into the
// text buffer, and keeps it only if appendString writes it back as it
// came: every escape is then the one the encoder writes for its
// character. So the escape of U+FFFD, which the encoder writes for
// invalid UTF-8 but never for a valid U+FFFD, is declined.
func (d *recordDecoder) unescape(quoted []byte) []byte {
	out := d.text[:0]
	for i := 0; i < len(quoted); i++ {
		c := quoted[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		switch c = quoted[i]; c {
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			if i+4 >= len(quoted) {
				d.ok = false
				return nil
			}
			var r rune
			for _, h := range quoted[i+1 : i+5] {
				r = r<<4 | rune(unhex(h))
			}
			out = utf8.AppendRune(out, r)
			i += 4
			continue
		}
		out = append(out, c)
	}
	d.text = out
	d.again = appendString(d.again[:0], string(out))
	if !bytes.Equal(d.again[1:len(d.again)-1], quoted) {
		d.ok = false
	}
	return out
}

// unhex returns a lowercase hex digit's value, or a value no escape
// the encoder writes decodes to.
func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	}
	return 0x1000
}
