package fed

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"reflect"
	"testing"

	"semnids/internal/core"
	"semnids/internal/incident"
	"semnids/internal/lineage"
)

// awkward holds strings that exercise every branch of encoding/json's
// escaping: HTML characters, quotes and backslashes, every kind of
// control byte, U+2028 and U+2029, valid non-ASCII (U+FFFD among it)
// and invalid UTF-8.
var awkward = []string{
	"",
	"sensor-a",
	"<script>&amp;</script>",
	`quote " and backslash \ and slash /`,
	"ctl \x00\x01\x07\x1f \b\f\n\r\t \x7f",
	"line\xe2\x80\xa8para\xe2\x80\xa9sep",
	"caf\xc3\xa9 \xef\xbf\xbd \xf0\x9f\x90\x9b",
	"bad \xff\xfe utf8 \xc3",
}

// codecRecords returns records of all seven kinds: every record of two
// correlator-derived exports with classifier and lineage sets, marks
// and headers, and hand-built records for the corners of the format.
func codecRecords(t testing.TB) []*wireRecord {
	var recs []*wireRecord
	for _, ex := range []*incident.EvidenceExport{
		goldenExport(t),
		synthLineage(synthExport(t, "sensor-b", 2, 400), "sensor-b", 2, 30),
	} {
		recs = append(recs, &wireRecord{Kind: kindHeader, Hdr: headerFor(ex)})
		for i := range ex.Sources {
			recs = append(recs, &wireRecord{Kind: kindSource, Src: &ex.Sources[i]})
		}
		for i := range ex.Classifier {
			recs = append(recs, &wireRecord{Kind: kindClassifier, Cls: &ex.Classifier[i]})
		}
		for i := range ex.Lineage {
			recs = append(recs, &wireRecord{Kind: kindLineage, Lin: &ex.Lineage[i]})
		}
	}

	zoned := netip.MustParseAddr("fe80::1%eth0")
	addrs := []netip.Addr{
		{}, netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("255.255.255.255"), netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:10.0.0.1"), netip.MustParseAddr("::"), zoned,
		zoned.WithZone("z<\"\\>\xe2\x80\xa8"),
	}
	fps := []core.Fingerprint{{}, {A: math.MaxUint64, B: 1, N: -5}, {A: 7, B: math.MaxUint64, N: math.MinInt}, {N: math.MaxInt}}
	for i, s := range awkward {
		a := addrs[i%len(addrs)]
		recs = append(recs,
			&wireRecord{Kind: kindSource, Src: &incident.SourceEvidence{
				Src: a, Sensors: []string{s, "sensor-a"}, Stage: s,
				FirstUS: uint64(i), LastUS: math.MaxUint64, LastSeenUS: 0,
				Dests:       []incident.DestEvidence{{Addr: a, FirstUS: 0, LastUS: math.MaxUint64}},
				Alerts:      []incident.AlertEvidence{{TsUS: 0, Dst: a, Template: s}, {TsUS: 1, Dst: zoned}},
				ExploitAtUS: math.MaxUint64, Severity: s, Templates: []string{s, s},
				TargetedBy: []incident.FingerprintAttackers{
					{Fingerprint: fps[i%len(fps)]},
					{Fingerprint: fps[(i+1)%len(fps)], Refs: []incident.AttackerRef{}},
					{Fingerprint: fps[(i+2)%len(fps)], Refs: []incident.AttackerRef{{Attacker: a, TsUS: math.MaxUint64}, {}}},
				},
				Emitted:         []incident.FingerprintSpan{{Fingerprint: fps[i%len(fps)], FirstUS: 0, LastUS: 1}},
				PropagationAtUS: uint64(i) * 1e15,
				Victims:         []incident.VictimEvidence{{Addr: a, EchoUS: 0}},
			}},
			&wireRecord{Kind: kindSource, Src: &incident.SourceEvidence{Src: a, Sensors: []string{}, Stage: s, Dests: []incident.DestEvidence{}}},
			&wireRecord{Kind: kindClassifier, Cls: &incident.ClassifierEvidence{Src: a, SuspiciousUntilUS: uint64(i), Dark: addrs}},
			&wireRecord{Kind: kindClassifier, Cls: &incident.ClassifierEvidence{Src: a, Dark: []netip.Addr{}}},
			&wireRecord{Kind: kindLineage, Lin: &lineage.Observation{
				Exact: fps[i%len(fps)], Tail: fps[(i+1)%len(fps)], TemplateSym: uint64(i), StmtsSym: math.MaxUint64,
				FirstUS: 0, Src: a, Dst: addrs[(i+1)%len(addrs)], Sensors: []string{s},
			}},
			&wireRecord{Kind: kindHeader, Hdr: &header{Format: s, Version: -i, Sensors: []string{s}}},
			&wireRecord{Kind: kindCheckpoint, Ckpt: &checkpointMark{Seq: math.MaxUint64, Count: -i, Cls: i, Lin: -1, Sensors: []string{s}}},
			&wireRecord{Kind: kindDelta, Ckpt: &checkpointMark{Seq: uint64(i), Count: math.MaxInt, Sensors: []string{}}},
			&wireRecord{Kind: kindCommit, End: &checkpointMark{Seq: 0, Count: math.MinInt, Cls: math.MaxInt}},
		)
	}
	p := incident.Params{WindowUS: math.MaxUint64, FanoutThreshold: -3}
	recs = append(recs,
		&wireRecord{Kind: kindHeader, Hdr: &header{Format: FormatName, Version: Version, Params: p}},
		&wireRecord{Kind: kindHeader, Hdr: &header{Format: FormatName, Version: Version, Sensors: []string{}, Params: p}},
		&wireRecord{Kind: kindSource, Src: &incident.SourceEvidence{}},
		&wireRecord{Kind: kindClassifier, Cls: &incident.ClassifierEvidence{}},
		&wireRecord{Kind: kindLineage, Lin: &lineage.Observation{}},
		&wireRecord{Kind: kindCommit, End: &checkpointMark{}},
	)
	return recs
}

// TestCodecMatchesEncodingJSON holds the codec to encoding/json, the
// reference: the encoder writes json.Marshal's bytes and a newline
// after the length prefix, and what the canonical decoder reads is
// what json.Unmarshal reads. It declines only the escape of U+FFFD
// that invalid UTF-8 is written as: that decodes to a valid U+FFFD,
// which the encoder writes unescaped.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	var enc frameEncoder
	var dec recordDecoder
	for i, rec := range codecRecords(t) {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := enc.appendFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if wantFrame := fmt.Sprintf("%d %s\n", len(want), want); string(frame) != wantFrame {
			t.Fatalf("record %d (%s): the encoder wrote\n%q\nencoding/json writes\n%q", i, rec.Kind, frame, wantFrame)
		}
		if cap(frame) != len(frame) {
			t.Fatalf("record %d: a %d-byte frame took %d bytes", i, len(frame), cap(frame))
		}

		ref := &wireRecord{}
		if err := json.Unmarshal(want, ref); err != nil {
			t.Fatal(err)
		}
		got := &wireRecord{}
		if !dec.canonical(want, got) {
			if !bytes.Contains(want, []byte(`\ufffd`)) {
				t.Fatalf("record %d (%s): the canonical decoder declined the encoder's bytes\n%s", i, rec.Kind, want)
			}
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("record %d (%s): canonical decode\n%#v\njson.Unmarshal\n%#v", i, rec.Kind, got, ref)
		}
	}
}

// FuzzCanonicalDecode: on any bytes, the canonical decoder declines,
// or it decodes what json.Unmarshal decodes and the encoder writes the
// same bytes back. Seeds are every record of TestCodecMatchesEncodingJSON;
// the checked-in corpus holds spellings it must decline — respaced,
// reordered and re-cased keys, unknown and duplicate keys, null slices,
// other escapes, an overflowing, a leading-zero and a negative-zero
// number, and trailing bytes.
func FuzzCanonicalDecode(f *testing.F) {
	for _, rec := range codecRecords(f) {
		doc, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec recordDecoder
		got := &wireRecord{}
		if !dec.canonical(data, got) {
			return
		}
		ref := &wireRecord{}
		if err := json.Unmarshal(data, ref); err != nil {
			t.Fatalf("accepted what json.Unmarshal refuses (%v):\n%q", err, data)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("canonical decode\n%#v\njson.Unmarshal\n%#v\nof %q", got, ref, data)
		}
		if again := appendRecord(nil, got); !bytes.Equal(again, data) {
			t.Fatalf("accepted\n%q\nbut the encoder writes\n%q", data, again)
		}
	})
}

// TestCodecAllocs pins the codec's allocations: a canonical src decode
// allocates less than json.Unmarshal of the same frame, and encoding
// allocates nothing but the frame it returns.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	ex := synthExport(t, "sensor-a", 1, 400)
	src := &ex.Sources[0]
	for i := range ex.Sources {
		if len(ex.Sources[i].Dests)+len(ex.Sources[i].Alerts) > len(src.Dests)+len(src.Alerts) {
			src = &ex.Sources[i]
		}
	}
	rec := &wireRecord{Kind: kindSource, Src: src}
	doc, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var dec recordDecoder
	dec.canonical(doc, &wireRecord{}) // warm the intern table, as a segment's first records do
	canonical := testing.AllocsPerRun(100, func() {
		if !dec.canonical(doc, &wireRecord{}) {
			t.Fatal("declined the encoder's bytes")
		}
	})
	reference := testing.AllocsPerRun(100, func() {
		if err := json.Unmarshal(doc, &wireRecord{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("src record of %d bytes: canonical decode %.0f allocs, json.Unmarshal %.0f", len(doc), canonical, reference)
	if canonical >= reference {
		t.Fatalf("canonical decode allocates %.0f times, json.Unmarshal %.0f", canonical, reference)
	}

	var enc frameEncoder
	buf := make([]byte, 0, 2*len(doc)+16)
	if _, err := enc.appendFrame(buf, rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { enc.appendFrame(buf, rec) }); n != 0 {
		t.Fatalf("encoding into a buffer with room allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { enc.appendFrame(nil, rec) }); n != 1 {
		t.Fatalf("encoding a frame of its own allocates %.0f times, want 1 (the frame)", n)
	}
	w := bufio.NewWriterSize(io.Discard, 64<<10)
	if n := testing.AllocsPerRun(100, func() { writeRecord(w, &enc, rec) }); n != 0 {
		t.Fatalf("writing a frame allocates %.0f times, want 0", n)
	}
}

// respaced re-spells every frame of a segment as json.Indent writes
// it: the same records, none of them in the canonical spelling.
func respaced(t testing.TB, data []byte) (out []byte, frames int) {
	for rest := data; len(rest) > 0; frames++ {
		payload, next, err := nextFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := json.Indent(&doc, payload, "", "  "); err != nil {
			t.Fatal(err)
		}
		out = fmt.Appendf(out, "%d %s\n", doc.Len(), doc.Bytes())
		rest = next
	}
	return out, frames
}

// TestCodecFallbackCounted: a fold of segments this build's writers
// produced — WriteExport's, a sink's growing full groups, a State's
// base and deltas — decodes every frame canonically, and a respaced
// copy of each folds to the same state with every frame counted as a
// fallback.
func TestCodecFallbackCounted(t *testing.T) {
	exports := growingExports(t, 4)
	chain, _, _ := deltaSegment(t, exports...)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"WriteExport", encode(t, goldenExport(t))},
		{"growing full groups", growingSegment(t, exports...)},
		{"base and deltas", chain},
	} {
		st := NewState()
		if _, err := st.Fold(tc.data); err != nil {
			t.Fatal(err)
		}
		if n := st.Stats().FramesFallback; n != 0 {
			t.Fatalf("%s: %d frames of this build's writer fell back to encoding/json", tc.name, n)
		}
		spaced, frames := respaced(t, tc.data)
		again := NewState()
		if _, err := again.Fold(spaced); err != nil {
			t.Fatal(err)
		}
		if n := again.Stats().FramesFallback; n != uint64(frames) {
			t.Fatalf("%s: respaced copy counted %d fallbacks over %d frames", tc.name, n, frames)
		}
		if !bytes.Equal(encode(t, again.Export()), encode(t, st.Export())) {
			t.Fatalf("%s: the respaced copy folded to another state", tc.name)
		}
	}
}
