package fed

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"semnids/internal/incident"
)

// deltaSegment folds exports into a fresh State one at a time and
// frames its checkpoints as one segment, as the state's sink appends
// them: a full group, then a delta after every later fold. It returns
// the segment, the state's export after each fold, and the offset at
// which each group ends.
func deltaSegment(t testing.TB, exports ...*incident.EvidenceExport) (seg []byte, states []*incident.EvidenceExport, ends []int) {
	t.Helper()
	var buf bytes.Buffer
	var enc frameEncoder
	bw := bufio.NewWriter(&buf)
	st := NewState()
	for i, ex := range exports {
		if _, err := st.Fold(encode(t, ex)); err != nil {
			t.Fatal(err)
		}
		sn, err := st.snapshot(i == 0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := writeRecord(bw, &enc, &wireRecord{Kind: kindHeader, Hdr: sn.hdr}); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeCheckpoint(bw, &enc, uint64(i+1), sn); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		states = append(states, st.Export())
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), states, ends
}

// growingExports is one sensor's evidence growing over n checkpoints,
// lineage included.
func growingExports(t testing.TB, n int) []*incident.EvidenceExport {
	var out []*incident.EvidenceExport
	for k := 1; k <= n; k++ {
		out = append(out, synthLineage(synthExport(t, "sensor-a", 13, 60*k), "sensor-a", 13, 3*k))
	}
	return out
}

// readsAs holds a segment to an expected export: ReadExport, a fold
// into an empty State and the reference decoder all return it, on wire
// bytes.
func readsAs(t *testing.T, name string, data []byte, want *incident.EvidenceExport) {
	t.Helper()
	got, err := ReadExport(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: ReadExport: %v", name, err)
	}
	if !bytes.Equal(encode(t, got), encode(t, want)) {
		t.Fatalf("%s: ReadExport did not return the expected group", name)
	}
	if err := Committed(data); err != nil {
		t.Fatalf("%s: Committed = %v for a segment ReadExport reads", name, err)
	}
	checkDecoders(t, name, data)
}

// TestDeltaChainReadsEveryPrefix writes a base and five deltas and
// reads every prefix that ends on a group: each reads as the state
// after that group's fold, and the segment is far smaller than the
// same checkpoints written whole.
func TestDeltaChainReadsEveryPrefix(t *testing.T) {
	exports := growingExports(t, 6)
	seg, states, ends := deltaSegment(t, exports...)
	for k, end := range ends {
		readsAs(t, "prefix", seg[:end], states[k])
	}
	if whole := len(growingSegment(t, states...)); len(seg) >= whole {
		t.Fatalf("base+delta segment is %d bytes, the same groups written whole %d", len(seg), whole)
	}
}

// TestDeltaChainCutInsideDelta cuts the segment inside its last delta
// — at every byte of its opening mark and commit mark, and through its
// records — and the group before it is read.
func TestDeltaChainCutInsideDelta(t *testing.T) {
	seg, states, ends := deltaSegment(t, growingExports(t, 3)...)
	from, to := ends[1], ends[2]
	stride := (to - from) / 40
	for cut := from; cut < to; cut++ {
		if cut-from > 120 && to-cut > 80 && (cut-from)%stride != 0 {
			continue
		}
		readsAs(t, "cut inside the last delta", seg[:cut], states[1])
	}
}

// TestDeltaChainDamagedMiddleDelta damages one record of a middle
// delta, in its body (the group commits on its marks but does not
// decode) and in its opening mark (the group does not commit): either
// way the chain ends at the group before it, and the deltas after the
// hole are never folded over it.
func TestDeltaChainDamagedMiddleDelta(t *testing.T) {
	seg, states, ends := deltaSegment(t, growingExports(t, 5)...)
	const mid = 2 // the second delta
	at := ends[mid-1]

	body := append([]byte(nil), seg...)
	i := bytes.Index(body[at:ends[mid]], []byte(`"src":"10.`))
	if i < 0 {
		t.Fatal("the middle delta holds no source record")
	}
	i += at + len(`"src":"`)
	body[i], body[i+1] = 'x', 'x'
	readsAs(t, "damaged record", body, states[mid-1])

	mark := append([]byte(nil), seg...)
	j := bytes.Index(mark[at:], []byte(`"k":"dckpt"`))
	if j < 0 {
		t.Fatal("no delta mark")
	}
	mark[at+j+len(`"k"`)] = '!'
	readsAs(t, "damaged mark", mark, states[mid-1])
}

// TestDeltaChainSeqGap drops a middle delta whole: the deltas after the
// gap do not extend the group before it.
func TestDeltaChainSeqGap(t *testing.T) {
	seg, states, ends := deltaSegment(t, growingExports(t, 5)...)
	const mid = 2
	gap := append(append([]byte(nil), seg[:ends[mid-1]]...), seg[ends[mid]:]...)
	readsAs(t, "seq gap", gap, states[mid-1])
}

// TestDeltaChainFirstGroupIgnored: a delta with no group before it in
// its segment extends nothing, so a segment that opens with one has no
// committed checkpoint until a full group follows.
func TestDeltaChainFirstGroupIgnored(t *testing.T) {
	seg, _, ends := deltaSegment(t, growingExports(t, 3)...)
	hdrEnd := bytes.Index(seg, []byte("\n")) + 1
	orphan := append(append([]byte(nil), seg[:hdrEnd]...), seg[ends[0]:]...)
	if _, err := ReadExport(bytes.NewReader(orphan)); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("ReadExport of deltas with no base = %v, want ErrNoCheckpoint", err)
	}
	if err := Committed(orphan); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Committed of deltas with no base = %v, want ErrNoCheckpoint", err)
	}
	checkDecoders(t, "deltas with no base", orphan)

	// A full group after the orphans commits again.
	full := append(append([]byte(nil), orphan...), seg[hdrEnd:ends[0]]...)
	got, err := ReadExport(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ReadExport(bytes.NewReader(seg[:ends[0]]))
	if !bytes.Equal(encode(t, got), encode(t, want)) {
		t.Fatal("the full group after the orphan deltas is not read")
	}
}

// TestDeltaChainPreDeltaReaderReadsBase: a reader that predates deltas
// passes the delta marks over and reads the segment's base — the
// state at its first group, stale but never wrong.
func TestDeltaChainPreDeltaReaderReadsBase(t *testing.T) {
	seg, states, _ := deltaSegment(t, growingExports(t, 4)...)
	got, err := preDeltaDecode(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, got), encode(t, states[0])) {
		t.Fatal("the pre-delta reader did not read the segment's base")
	}
}

// TestDeltaChainPushDecodesTheChain: the push decoder folds the
// winning chain, base and deltas, once; pushed again into the state
// that holds it, every frame is skipped.
func TestDeltaChainPushDecodesTheChain(t *testing.T) {
	seg, states, _ := deltaSegment(t, growingExports(t, 4)...)
	st := NewState()
	folded, err := st.Fold(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, st.Export()), encode(t, states[len(states)-1])) {
		t.Fatal("the push decoder's fold of the chain is not the state that wrote it")
	}
	st.Commit(folded)
	before := st.Stats()
	if _, err := st.Fold(seg); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats(); after.FramesFolded != before.FramesFolded {
		t.Fatalf("re-push decoded %d frames, want 0", after.FramesFolded-before.FramesFolded)
	}
}

// TestStateSinkWritesDeltas checks the sink end to end: one segment of
// a full group and deltas, each checkpoint recovering the state; a
// checkpoint with nothing changed writes nothing; a small RotateBytes
// opens new segments, each with a full group.
func TestStateSinkWritesDeltas(t *testing.T) {
	for _, rotate := range []int64{0, 4 << 10} {
		dir := t.TempDir()
		st := NewState()
		sink, err := st.OpenSink(SinkConfig{Dir: dir, Retention: Retention{RotateBytes: rotate, KeepSegments: 1 << 10}})
		if err != nil {
			t.Fatal(err)
		}
		for i, ex := range growingExports(t, 6) {
			f, err := st.Fold(encode(t, ex))
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			st.Commit(f)
			rec, err := Recover(dir)
			if err != nil || rec == nil {
				t.Fatalf("rotate=%d fold %d: recover: %v", rotate, i, err)
			}
			if !bytes.Equal(encode(t, rec), encode(t, st.Export())) {
				t.Fatalf("rotate=%d fold %d: the checkpoint on disk is not the state", rotate, i)
			}
		}
		written := sink.Metrics().WrittenBytes
		if err := sink.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		sink.Close()
		m := sink.Metrics()
		if m.WrittenBytes != written || m.Checkpoints != 6 {
			t.Fatalf("rotate=%d: unchanged checkpoints wrote %d bytes, %d groups in all", rotate, m.WrittenBytes-written, m.Checkpoints)
		}
		if m.Checkpoints != m.FullGroups+m.DeltaGroups {
			t.Fatalf("rotate=%d: %d checkpoints, %d full and %d delta groups", rotate, m.Checkpoints, m.FullGroups, m.DeltaGroups)
		}
		segs, err := Segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, sg := range segs {
			total += sg.Size
			data, err := os.ReadFile(filepath.Join(dir, sg.Name))
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(data, []byte(`"k":"ckpt"`)); n != 1 {
				t.Fatalf("rotate=%d: %s holds %d full groups, want its base only", rotate, sg.Name, n)
			}
		}
		if uint64(total) != m.WrittenBytes {
			t.Fatalf("rotate=%d: %d bytes on disk, WrittenBytes %d", rotate, total, m.WrittenBytes)
		}
		if rotate == 0 && len(segs) != 1 || rotate > 0 && len(segs) < 3 {
			t.Fatalf("rotate=%d: %d segments", rotate, len(segs))
		}
		if m.FullGroups != uint64(len(segs)) {
			t.Fatalf("rotate=%d: %d full groups over %d segments, want one base each", rotate, m.FullGroups, len(segs))
		}
	}
}

// TestStateSinkFullGroupAfterWriteError: a delta that fails to write
// has already cleared the changed marks, so the sink must not append
// the next delta after it. The failure closes the segment, and the
// next checkpoint opens a new one with a full group — even with
// nothing changed since — which recovers the whole state.
func TestStateSinkFullGroupAfterWriteError(t *testing.T) {
	dir := t.TempDir()
	var diskFull atomic.Bool
	st := NewState()
	sink, err := st.OpenSink(SinkConfig{
		Dir:       dir,
		Retention: Retention{CheckpointEvery: time.Hour},
		openSeg: func(path string) (segmentFile, error) {
			f, err := openSegFile(path)
			if err != nil {
				return nil, err
			}
			return enospcFile{segmentFile: f, fail: &diskFull}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	exports := growingExports(t, 2)
	if _, err := st.Fold(encode(t, exports[0])); err != nil {
		t.Fatal(err)
	}
	if err := sink.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fold(encode(t, exports[1])); err != nil {
		t.Fatal(err)
	}
	diskFull.Store(true)
	if err := sink.Checkpoint(); err == nil {
		t.Fatal("a delta written to a full disk reported success")
	}
	diskFull.Store(false)
	if err := sink.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments = %v (%v), want the first and the one opened after the failure", segs, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segs[1].Name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(data, []byte(`"k":"ckpt"`)) != 1 || bytes.Contains(data, []byte(`"k":"dckpt"`)) {
		t.Fatal("the segment opened after the failure does not hold one full group")
	}
	rec, err := Recover(dir)
	if err != nil || rec == nil {
		t.Fatalf("recover: %v", err)
	}
	if !bytes.Equal(encode(t, rec), encode(t, st.Export())) {
		t.Fatal("the checkpoint after the failure is not the state")
	}
}
