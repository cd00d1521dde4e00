package fed

import (
	"bytes"
	"reflect"
	"testing"

	"semnids/internal/incident"
)

// FuzzDecodeEvidence hammers the evidence wire decoder with arbitrary
// bytes: truncated records, corrupt length prefixes, version skew,
// garbage JSON. The decoder must fail cleanly — no panic, no
// over-allocation from a hostile length claim (the prefix is bounded
// before any buffer is sized) — and anything it does accept must
// re-encode and decode to the same evidence.
func FuzzDecodeEvidence(f *testing.F) {
	// Golden exports: small, large, empty.
	for _, seed := range []struct {
		seed   int64
		events int
	}{{1, 50}, {2, 400}, {3, 0}} {
		ex := synthExport(f, "sensor-a", seed.seed, seed.events)
		data := encode(f, ex)
		f.Add(data)
		// Truncations of a valid segment.
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		// The same export with lineage records: lin framing, its count
		// marks, and truncations landing mid-lin.
		withLin := encode(f, synthLineage(ex, "sensor-a", seed.seed, 20))
		f.Add(withLin)
		f.Add(withLin[:len(withLin)/2])
		f.Add(withLin[:len(withLin)-1])
	}
	// Corrupt length prefixes and version skew.
	f.Add([]byte("9999999 {}\n"))
	f.Add([]byte("99999999 {}\n"))
	f.Add([]byte("0 \n"))
	f.Add([]byte("x7 {}\n"))
	f.Add([]byte(`96 {"k":"hdr","hdr":{"format":"semnids-evidence","version":99,"window_us":1,"fanout_threshold":1}}` + "\n"))
	f.Add([]byte(`14 {"k":"ckpt"}` + "\n"))
	// A damaged superseded group before an intact newest one.
	damaged, _ := damagedSegment(f)
	f.Add(damaged)

	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := ReadExport(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: the decode must be re-encodable, and the
		// canonical encoding must decode to the same evidence.
		var buf bytes.Buffer
		if err := WriteExport(&buf, ex); err != nil {
			t.Fatalf("accepted evidence failed to re-encode: %v", err)
		}
		again, err := ReadExport(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		if len(again.Sources) != len(ex.Sources) {
			t.Fatalf("round trip changed source count: %d != %d", len(again.Sources), len(ex.Sources))
		}
	})
}

// FuzzFoldSegment folds arbitrary bytes into a valid live state — two
// exports in, memo warm — and holds the result to the reference path:
// ReadExport picks what referenceDecode picks, and the state
// afterwards is Merge(state before, that export) on wire bytes, or
// untouched if the segment is refused. Never a panic.
func FuzzFoldSegment(f *testing.F) {
	a := synthLineage(synthExport(f, "sensor-a", 1, 60), "sensor-a", 1, 6)
	b := synthExport(f, "sensor-b", 2, 60)
	grown := synthLineage(synthExport(f, "sensor-a", 1, 120), "sensor-a", 1, 10)
	other := synthLineage(synthExport(f, "sensor-c", 3, 80), "sensor-c", 3, 4)
	skewed := *other
	skewed.WindowUS *= 2
	for _, data := range [][]byte{
		encode(f, a), encode(f, grown), encode(f, other),
		growingSegment(f, a, grown),
		growingSegment(f, other, a, grown),
		encode(f, &skewed),
	} {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		f.Add(append(append([]byte(nil), data...), data[len(data)/3:]...))
	}
	f.Add([]byte("9999999 {}\n"))
	f.Add([]byte(`14 {"k":"ckpt"}` + "\n"))
	damaged, _ := damagedSegment(f)
	f.Add(damaged)
	// A base and deltas: whole, cut inside a delta, a delta dropped
	// (a seq gap), and deltas with no base before them.
	chain, _, ends := deltaSegment(f, growingExports(f, 4)...)
	hdrEnd := bytes.IndexByte(chain, '\n') + 1
	f.Add(chain)
	f.Add(chain[:ends[2]-(ends[2]-ends[1])/2])
	f.Add(append(append([]byte(nil), chain[:ends[1]]...), chain[ends[2]:]...))
	f.Add(append(append([]byte(nil), chain[:hdrEnd]...), chain[ends[0]:]...))
	small, _, _ := deltaSegment(f, synthExport(f, "sensor-a", 5, 6), synthExport(f, "sensor-a", 5, 12), synthExport(f, "sensor-a", 5, 18))
	f.Add(small)

	base := [][]byte{encode(f, a), encode(f, b)}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewState()
		for _, seg := range base {
			folded, err := st.Fold(seg)
			if err != nil {
				t.Fatal(err)
			}
			st.Commit(folded)
		}
		before := st.Export()

		ref, refErr := referenceDecode(data)
		if got, err := ReadExport(bytes.NewReader(data)); (err == nil) != (refErr == nil) || (err == nil && !reflect.DeepEqual(got, ref)) {
			t.Fatalf("reference decoder = (%v, %v), ReadExport = (%v, %v)", ref != nil, refErr, got != nil, err)
		}
		var want *incident.EvidenceExport
		if refErr == nil {
			want, _ = Merge(before, ref)
		}
		_, err := st.Fold(data)
		if want == nil {
			if err == nil {
				t.Fatalf("folded a segment the reference path refuses (%v)", refErr)
			}
			want = before
		} else if err != nil {
			t.Fatalf("refused a segment the reference path folds: %v", err)
		}
		if got := encode(t, st.Export()); !bytes.Equal(got, encode(t, want)) {
			t.Fatal("state after the fold is not the reference path's")
		}
	})
}
