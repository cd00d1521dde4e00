package fed

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"semnids/internal/incident"
	"semnids/internal/lineage"
)

// foldFresh decodes a segment the way a push does — through an empty
// State — and returns what the state adopted.
func foldFresh(data []byte) (*incident.EvidenceExport, error) {
	st := NewState()
	if _, err := st.Fold(data); err != nil {
		return nil, err
	}
	return st.Export(), nil
}

// referenceDecode is the segment decoder's contract written the slow
// way: one pass that decodes every frame, then the newest group whose
// chain is intact, tried group by group. A well-framed frame that does
// not decode — or whose body disagrees with the kind its canonical
// prefix announces — spoils the group it falls in (counted as the kind
// its prefix names) or, outside the canonical spelling, drops it at
// once. A delta's chain links it to the committed group before it,
// which must carry seq-1; a chain reaches down to a full group through
// unspoiled groups only. A lone full group is the answer as it stands,
// a longer chain the fed.Merge chain over its groups.
func referenceDecode(data []byte) (ex *incident.EvidenceExport, err error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		return nil, err
	}
	first := &wireRecord{}
	if err := json.Unmarshal(payload, first); err != nil {
		return nil, err
	}
	hdr, err := checkHeader(first)
	if err != nil {
		return nil, err
	}
	type group struct {
		seq      uint64
		delta    bool
		spoiled  bool
		contents incident.EvidenceExport
	}
	var groups []group
	var open *checkpointMark
	var cur group
	var seen checkpointMark
	for {
		if payload, rest, err = nextFrame(rest); err != nil {
			break
		}
		rec := &wireRecord{}
		jsonErr := json.Unmarshal(payload, rec)
		if kind := sniffKind(payload); kind != "" {
			if open == nil || *seen.of(kind) >= *open.of(kind) {
				open = nil
				continue
			}
			*seen.of(kind)++
			if jsonErr != nil || rec.Kind != kind || !rec.carries(kind) {
				cur.spoiled = true
				continue
			}
		} else if jsonErr != nil || (rec.Kind == kindSource || rec.Kind == kindClassifier || rec.Kind == kindLineage) && !rec.carries(rec.Kind) {
			open = nil
			continue
		} else if rec.Kind == kindSource || rec.Kind == kindClassifier || rec.Kind == kindLineage {
			if open == nil || *seen.of(rec.Kind) >= *open.of(rec.Kind) {
				open = nil
				continue
			}
			*seen.of(rec.Kind)++
		}
		switch rec.Kind {
		case kindCheckpoint, kindDelta:
			open, seen = rec.Ckpt, checkpointMark{}
			if open != nil && (open.Count < 0 || open.Cls < 0 || open.Lin < 0) {
				open = nil
			}
			if open != nil {
				cur = group{seq: open.Seq, delta: rec.Kind == kindDelta}
				cur.contents.Sensors, cur.contents.Params = hdr.Sensors, hdr.Params
				if open.Sensors != nil {
					cur.contents.Sensors = open.Sensors
				}
			}
		case kindSource:
			cur.contents.Sources = append(cur.contents.Sources, *rec.Src)
		case kindClassifier:
			cur.contents.Classifier = append(cur.contents.Classifier, *rec.Cls)
		case kindLineage:
			cur.contents.Lineage = append(cur.contents.Lineage, *rec.Lin)
		case kindCommit:
			if end := rec.End; open != nil && end != nil && end.Seq == open.Seq &&
				end.Count == open.Count && end.Cls == open.Cls && end.Lin == open.Lin &&
				seen.Count == open.Count && seen.Cls == open.Cls && seen.Lin == open.Lin {
				groups = append(groups, cur)
			}
			open = nil
		}
	}
	for g := len(groups) - 1; g >= 0; g-- {
		k := g
		for k > 0 && groups[k].delta && !groups[k].spoiled && groups[k-1].seq+1 == groups[k].seq {
			k--
		}
		if groups[k].delta || groups[k].spoiled {
			continue
		}
		ex = &groups[k].contents
		for k++; k <= g; k++ {
			if ex, err = Merge(ex, &groups[k].contents); err != nil {
				return nil, err
			}
		}
		return ex, nil
	}
	return nil, ErrNoCheckpoint
}

// preDeltaDecode is the decoder contract before delta groups: the
// newest committed full group, every other record kind passed over. It
// stands for a reader built before deltas existed.
func preDeltaDecode(data []byte) (ex *incident.EvidenceExport, err error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		return nil, err
	}
	first := &wireRecord{}
	if err := json.Unmarshal(payload, first); err != nil {
		return nil, err
	}
	hdr, err := checkHeader(first)
	if err != nil {
		return nil, err
	}
	var open *checkpointMark
	var src []incident.SourceEvidence
	var cls []incident.ClassifierEvidence
	var lin []lineage.Observation
	for {
		if payload, rest, err = nextFrame(rest); err != nil {
			break
		}
		rec := &wireRecord{}
		if err := json.Unmarshal(payload, rec); err != nil {
			open = nil
			continue
		}
		if kind := sniffKind(payload); kind != "" && (rec.Kind != kind || !rec.carries(kind)) {
			open = nil
			continue
		}
		switch rec.Kind {
		case kindCheckpoint:
			open, src, cls, lin = rec.Ckpt, nil, nil, nil
			if open != nil && (open.Count < 0 || open.Cls < 0 || open.Lin < 0) {
				open = nil
			}
		case kindSource:
			if open == nil || rec.Src == nil || len(src) >= open.Count {
				open = nil
				continue
			}
			src = append(src, *rec.Src)
		case kindClassifier:
			if open == nil || rec.Cls == nil || len(cls) >= open.Cls {
				open = nil
				continue
			}
			cls = append(cls, *rec.Cls)
		case kindLineage:
			if open == nil || rec.Lin == nil || len(lin) >= open.Lin {
				open = nil
				continue
			}
			lin = append(lin, *rec.Lin)
		case kindCommit:
			if end := rec.End; open != nil && end != nil && end.Seq == open.Seq &&
				end.Count == open.Count && end.Cls == open.Cls && end.Lin == open.Lin &&
				len(src) == open.Count && len(cls) == open.Cls && len(lin) == open.Lin {
				ex = &incident.EvidenceExport{
					Sensors: hdr.Sensors, Params: hdr.Params,
					Sources: src, Classifier: cls, Lineage: lin,
				}
				if open.Sensors != nil {
					ex.Sensors = open.Sensors
				}
			}
			open = nil
		}
	}
	if ex == nil {
		return nil, ErrNoCheckpoint
	}
	return ex, nil
}

// sniffKind is the reference decoders' prefix rule, written apart from
// the codec's recordKind: an evidence record's kind read off the
// prefix json.Marshal gives a wireRecord. Any other spelling returns
// "" and is decoded in full.
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

// checkDecoders holds one input to the decoder contract: ReadExport,
// a fold into an empty State and referenceDecode accept the same
// segments, find the same checkpoint in them, and refuse the same
// ones as ErrNoCheckpoint.
func checkDecoders(t testing.TB, name string, data []byte) {
	t.Helper()
	ref, refErr := referenceDecode(data)
	for _, d := range []struct {
		name   string
		decode func([]byte) (*incident.EvidenceExport, error)
	}{
		{"ReadExport", func(data []byte) (*incident.EvidenceExport, error) { return ReadExport(bytes.NewReader(data)) }},
		{"push decoder", foldFresh},
	} {
		got, err := d.decode(data)
		if (err == nil) != (refErr == nil) || errors.Is(err, ErrNoCheckpoint) != errors.Is(refErr, ErrNoCheckpoint) {
			t.Fatalf("%s: %s err = %v, reference err = %v", name, d.name, err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: %s and the reference disagree on the committed checkpoint", name, d.name)
		}
	}
}

// TestPushDecoderMatchesReadExport runs the wire decoder's own failure
// corpus — TestWireRejects' cases, truncation at every byte of a
// two-checkpoint stream, the corrupt tail, the mismatched end mark —
// through ReadExport, the push decoder and the reference.
func TestPushDecoderMatchesReadExport(t *testing.T) {
	ex := synthExport(t, "sensor-a", 2, 200)
	data := encode(t, ex)
	for _, cut := range []int{0, 1, 5, len(data) / 2, len(data) - 1, len(data)} {
		checkDecoders(t, "truncation", data[:cut])
	}
	checkDecoders(t, "corrupt tail", append(append([]byte(nil), data...), data[100:len(data)-7]...))
	for name, in := range map[string]string{
		"bad-prefix":      "x7 {}\n",
		"huge-claim":      "9999999 {}\n",
		"oversized-claim": "99999999 {}\n",
		"zero-claim":      "0 \n",
		"not-json":        "3 {{{\n",
		"no-header":       `14 {"k":"ckpt"}` + "\n",
	} {
		checkDecoders(t, name, []byte(in))
	}
	for _, hdr := range []*header{
		{Format: FormatName, Version: 99},
		{Format: FormatName, Version: Version},
		{Format: "other", Version: Version},
	} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeRecord(bw, &frameEncoder{}, &wireRecord{Kind: kindHeader, Hdr: hdr}); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		checkDecoders(t, "header", buf.Bytes())
	}

	// TestWireLineageTruncationFallsBack's stream, cut at every byte.
	first := synthLineage(synthExport(t, "sensor-a", 4, 3), "sensor-a", 21, 2)
	second := synthLineage(synthExport(t, "sensor-a", 4, 3), "sensor-a", 22, 3)
	var two bytes.Buffer
	if err := WriteExport(&two, first); err != nil {
		t.Fatal(err)
	}
	if err := WriteExport(&two, second); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= two.Len(); cut++ {
		checkDecoders(t, "two checkpoints", two.Bytes()[:cut])
	}

	// TestWireLineageCountMismatchRejected's end-mark corruption.
	mismatched := synthLineage(synthExport(t, "sensor-a", 5, 100), "sensor-a", 31, 5)
	withLin := string(encode(t, mismatched))
	mark := fmt.Sprintf(`"lin":%d`, len(mismatched.Lineage))
	i := strings.LastIndex(withLin, mark)
	if i < 0 || len(mismatched.Lineage) > 8 {
		t.Fatalf("no single-digit lin count to corrupt in %d lineage records", len(mismatched.Lineage))
	}
	checkDecoders(t, "end mark", []byte(withLin[:i]+fmt.Sprintf(`"lin":%d`, len(mismatched.Lineage)+1)+withLin[i+len(mark):]))
}

// damageSource breaks the nth source address in a segment without
// changing its length, so the frame still frames but no longer decodes.
func damageSource(t testing.TB, data []byte, nth int) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	at := 0
	for n := 0; n <= nth; n++ {
		i := bytes.Index(out[at:], []byte(`"src":"10.`))
		if i < 0 {
			t.Fatal("no source address to damage")
		}
		at += i + len(`"src":"10.`)
	}
	out[at-3], out[at-2] = 'x', 'x'
	return out
}

// damagedSegment is a two-checkpoint segment whose superseded group
// holds a record that does not decode, and the newest group's export.
func damagedSegment(t testing.TB) ([]byte, *incident.EvidenceExport) {
	t.Helper()
	newer := synthExport(t, "sensor-a", 6, 120)
	return damageSource(t, growingSegment(t, synthExport(t, "sensor-a", 6, 60), newer), 0), newer
}

// TestPushDecoderDropsOnlyTheDamagedGroup pins what a well-framed
// record that does not decode costs: inside a superseded group, that
// group and not the intact groups after it; inside the newest group,
// that group, falling back to the one before. ReadExport and the push
// decoder agree on both.
func TestPushDecoderDropsOnlyTheDamagedGroup(t *testing.T) {
	older := synthExport(t, "sensor-a", 6, 60)
	newer := synthExport(t, "sensor-a", 6, 120)
	seg := growingSegment(t, older, newer)

	early := damageSource(t, seg, 0)
	got, err := ReadExport(bytes.NewReader(early))
	if err != nil || !reflect.DeepEqual(got.Sources, newer.Sources) {
		t.Fatalf("damage in the superseded group: ReadExport = %v, want the newest checkpoint", err)
	}
	checkDecoders(t, "damaged superseded group", early)

	late := damageSource(t, seg, len(older.Sources))
	got, err = foldFresh(late)
	if err != nil || !reflect.DeepEqual(got.Sources, older.Sources) {
		t.Fatalf("damage in the newest group: push decoder = %v, want the checkpoint before it", err)
	}
	checkDecoders(t, "damaged newest group", late)
}

// TestRecoverPastDamagedGroup: a sink directory whose only segment
// has a damaged superseded group recovers the intact newest group
// rather than starting fresh.
func TestRecoverPastDamagedGroup(t *testing.T) {
	dir := t.TempDir()
	seg, newer := damagedSegment(t)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil || got == nil {
		t.Fatalf("Recover = (%v, %v), want the newest checkpoint", got != nil, err)
	}
	if !bytes.Equal(encode(t, got), encode(t, newer)) {
		t.Fatal("Recover did not return the newest checkpoint")
	}
}

// growingSegment frames exports as the checkpoint groups of one
// segment, as a sink appends them.
func growingSegment(t testing.TB, exports ...*incident.EvidenceExport) []byte {
	t.Helper()
	var buf bytes.Buffer
	var enc frameEncoder
	bw := bufio.NewWriter(&buf)
	if err := writeRecord(bw, &enc, &wireRecord{Kind: kindHeader, Hdr: headerFor(exports[0])}); err != nil {
		t.Fatal(err)
	}
	for i, ex := range exports {
		if err := writeCheckpoint(bw, &enc, uint64(i+1), exportSnapshot(ex)); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	return buf.Bytes()
}

// TestPushDecodesOnlyTheWinningGroup is the spooled-segment case: a
// segment of 16 growing checkpoint groups costs the record decodes of
// its newest group — counted by the state's folded-frame counter —
// where ReadExport unmarshals all sixteen; pushed again into the state
// that holds it, it costs none.
func TestPushDecodesOnlyTheWinningGroup(t *testing.T) {
	var groups []*incident.EvidenceExport
	total := 0
	for k := 1; k <= 16; k++ {
		ex := synthLineage(synthExport(t, "sensor-a", 9, 40*k), "sensor-a", 9, 2*k)
		groups = append(groups, ex)
		total += len(ex.Sources) + len(ex.Lineage)
	}
	seg := growingSegment(t, groups...)
	newest := groups[len(groups)-1]
	one := uint64(len(newest.Sources) + len(newest.Lineage))

	st := NewState()
	folded, err := st.Fold(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().FramesFolded; got != one {
		t.Fatalf("16-group segment cost %d record decodes, want the newest group's %d (all groups hold %d)", got, one, total)
	}
	want, err := ReadExport(bytes.NewReader(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Export(), want) {
		t.Fatal("push decoder and ReadExport disagree on the newest checkpoint")
	}
	st.Commit(folded)
	if _, err := st.Fold(seg); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.FramesFolded != one || s.FramesSkipped != one {
		t.Fatalf("re-push decoded %d frames and skipped %d, want 0 and %d", s.FramesFolded-one, s.FramesSkipped, one)
	}
	if got := encode(t, st.Export()); !bytes.Equal(got, encode(t, mustMerge(t, want, want))) {
		t.Fatal("re-pushed segment changed the state away from Merge(A, A)")
	}
}

func mustMerge(t testing.TB, a, b *incident.EvidenceExport) *incident.EvidenceExport {
	t.Helper()
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStateCheckpointsCachedFrames checks the encode-once path end to
// end at the sink: a state's checkpoints — written from cached frames
// — are byte for byte what WriteExport gives for its export, the
// adopted first export included, and recover to it.
func TestStateCheckpointsCachedFrames(t *testing.T) {
	dir := t.TempDir()
	st := NewState()
	sink, err := st.OpenSink(SinkConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var chain *incident.EvidenceExport
	for i, ex := range []*incident.EvidenceExport{
		synthLineage(synthExport(t, "sensor-a", 11, 150), "sensor-a", 1, 6),
		synthLineage(synthExport(t, "sensor-b", 12, 150), "sensor-b", 2, 6),
		synthLineage(synthExport(t, "sensor-a", 11, 300), "sensor-a", 1, 9),
	} {
		f, err := st.Fold(encode(t, ex))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st.Commit(f)
		if chain == nil {
			chain = ex
		} else {
			chain = mustMerge(t, chain, ex)
		}
		want := encode(t, chain)
		if got := encode(t, st.Export()); !bytes.Equal(got, want) {
			t.Fatalf("fold %d: state diverged from the Merge chain", i)
		}
		rec, err := Recover(dir)
		if err != nil || rec == nil {
			t.Fatalf("fold %d: recover: %v", i, err)
		}
		if got := encode(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("fold %d: the checkpoint on disk is not the state", i)
		}
	}
}
