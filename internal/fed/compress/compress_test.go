package compress

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semnids/internal/core"
	"semnids/internal/fed"
	"semnids/internal/incident"
	"semnids/internal/lineage"
)

// encode compresses b and returns the wire bytes, failing the test on
// any writer error.
func encode(t testing.TB, b []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	w := NewWriter(&out)
	if _, err := w.Write(b); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out.Bytes()
}

func decode(t testing.TB, b []byte) []byte {
	t.Helper()
	got, err := io.ReadAll(NewReader(bytes.NewReader(b)))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return got
}

// corpus builds inputs that exercise literals, short and long matches,
// overlapping runs and incompressible data.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 50000)
	rng.Read(random)

	jsonish := func(n int) []byte {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, `{"kind":"evd","src":"10.9.%d.%d","class":"code-red-ii","bytes":%d,"sig":"return-address-region"}`+"\n",
				i%256, (i*7)%256, 1000+i%512)
		}
		return []byte(sb.String())
	}

	return map[string][]byte{
		"empty":       nil,
		"one":         {0x42},
		"two":         {0x42, 0x42},
		"run":         bytes.Repeat([]byte{'a'}, 10000),
		"run-pair":    bytes.Repeat([]byte("ab"), 7000),
		"ascii":       []byte("the quick brown fox jumps over the lazy dog"),
		"random":      random,
		"jsonish":     jsonish(400),
		"big-jsonish": jsonish(4000), // several deflate blocks
		"binary-rep":  bytes.Repeat([]byte{0, 1, 2, 3, 0xff, 0xfe}, 9000),
	}
}

// evidence is a sensor's export after events correlator events, with
// the canonical lineage set of obs observations a sensor running with
// lineage attaches.
func evidence(t testing.TB, sensor string, seed int64, events, obs int) *incident.EvidenceExport {
	t.Helper()
	c := incident.New(incident.Config{Params: incident.Params{WindowUS: 30e6, FanoutThreshold: 3}})
	defer c.Stop()
	rng := rand.New(rand.NewSource(seed))
	host := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}) }
	fp := func(i int) core.Fingerprint { return core.FingerprintOf([]byte(fmt.Sprintf("payload-%d", i))) }
	for i := 0; i < events; i++ {
		ev := core.Event{
			Kind: core.EventAlert, TimestampUS: uint64(1000 + rng.Intn(2_000_000)),
			Src: host(rng.Intn(events/8 + 1)), Dst: host(4096 + rng.Intn(64)), SrcPort: 1234, DstPort: 80,
			Fingerprint: fp(rng.Intn(16)), Template: "code-red-ii", Severity: "high",
		}
		if rng.Intn(2) == 0 {
			ev.Kind, ev.Src, ev.Dst = core.EventFingerprint, ev.Dst, host(8192+rng.Intn(64))
		}
		c.Publish(ev)
	}
	c.Flush()
	ex := c.Export(sensor)
	var lin []lineage.Observation
	for i := 0; i < obs; i++ {
		id := rng.Intn(obs)
		lin = append(lin, lineage.Observation{
			Exact:       core.FingerprintOf([]byte(fmt.Sprintf("%s-variant-%d", sensor, id))),
			Tail:        fp(id % 2),
			TemplateSym: uint64(id%4) + 1,
			StmtsSym:    uint64(id%6) + 1,
			FirstUS:     uint64(1000 + rng.Intn(100000)),
			Src:         host(rng.Intn(64)),
			Dst:         host(4096 + rng.Intn(64)),
			Sensors:     []string{sensor},
		})
	}
	ex.Lineage = lineage.Merge(lin, nil)
	return ex
}

// lineageSegment has a sink write two growing lineage checkpoints into
// one segment and returns its bytes and the length of its first
// committed checkpoint group.
func lineageSegment(t testing.TB) (seg []byte, firstEnd int) {
	t.Helper()
	dir := t.TempDir()
	exports := []*incident.EvidenceExport{evidence(t, "sensor-a", 1, 24, 6), evidence(t, "sensor-a", 1, 48, 12)}
	next := 0
	sink, err := fed.OpenSink(fed.SinkConfig{
		Dir:       dir,
		Retention: fed.Retention{CheckpointEvery: time.Hour},
		Export:    func() *incident.EvidenceExport { return exports[next] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Kill()
	size := func() int {
		segs, err := fed.Segments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v: want exactly one", segs, err)
		}
		return int(segs[0].Size)
	}
	if err := sink.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	firstEnd, next = size(), 1
	if err := sink.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, _ := fed.Segments(dir)
	seg, err = os.ReadFile(filepath.Join(dir, segs[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	return seg, firstEnd
}

// readBack renders the checkpoint fed.ReadExport finds in a segment
// prefix as wire bytes, or "error" when it finds none.
func readBack(t testing.TB, seg []byte) string {
	t.Helper()
	ex, err := fed.ReadExport(bytes.NewReader(seg))
	if err != nil {
		return "error"
	}
	var buf bytes.Buffer
	if err := fed.WriteExport(&buf, ex); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRoundTrip(t *testing.T) {
	for name, in := range corpus() {
		t.Run(name, func(t *testing.T) {
			if got := decode(t, encode(t, in)); !bytes.Equal(got, in) {
				t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(in))
			}
		})
	}
	t.Run("multi-mb-export", func(t *testing.T) {
		var raw bytes.Buffer
		if err := fed.WriteExport(&raw, evidence(t, "sensor-big", 7, 60000, 4000)); err != nil {
			t.Fatal(err)
		}
		if raw.Len() < 2<<20 {
			t.Fatalf("export only %d bytes, want a multi-MB fixture", raw.Len())
		}
		if got := decode(t, encode(t, raw.Bytes())); !bytes.Equal(got, raw.Bytes()) {
			t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), raw.Len())
		}
	})
}

func TestRoundTripChunked(t *testing.T) {
	in := corpus()["jsonish"]
	var out bytes.Buffer
	w := NewWriter(&out)
	for i := 0; i < len(in); i += 3 {
		if _, err := w.Write(in[i:min(i+3, len(in))]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Tiny destination buffers on the read side.
	r := NewReader(bytes.NewReader(out.Bytes()))
	var got []byte
	buf := make([]byte, 7)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if !bytes.Equal(got, in) {
		t.Fatalf("chunked round trip mismatch")
	}
}

// TestTruncationEveryOffset is the prefix guarantee the push path
// relies on: a compressed lineage segment cut at any byte decodes to a
// prefix of the segment and fails with ErrTruncated, and that prefix
// reads back as the newest checkpoint committed inside it.
func TestTruncationEveryOffset(t *testing.T) {
	seg, firstEnd := lineageSegment(t)
	first := readBack(t, seg[:firstEnd])
	second := readBack(t, seg)
	if first == "error" || second == "error" || first == second {
		t.Fatalf("fixture does not hold two distinct committed checkpoints")
	}
	wire := encode(t, seg)
	t.Logf("segment: %d bytes, first checkpoint commits at %d, %d on the wire", len(seg), firstEnd, len(wire))
	prevLen, prevWant := -1, ""
	for cut := 0; cut < len(wire); cut++ {
		got, err := io.ReadAll(NewReader(bytes.NewReader(wire[:cut])))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
		if !bytes.HasPrefix(seg, got) {
			t.Fatalf("cut=%d: decoded %d bytes are not a prefix of the segment", cut, len(got))
		}
		if len(got) == prevLen {
			continue // the same prefix reads back the same
		}
		want := "error"
		switch {
		case len(got) == len(seg):
			want = second
		case len(got) >= firstEnd:
			want = first
		}
		if have := readBack(t, got); have != want {
			t.Fatalf("cut=%d: %d-byte prefix reads back the wrong checkpoint (first commits at %d of %d)",
				cut, len(got), firstEnd, len(seg))
		}
		prevLen, prevWant = len(got), want
	}
	if prevWant != second {
		t.Fatalf("no cut recovered the complete segment")
	}
}

func TestCorruptInput(t *testing.T) {
	valid := encode(t, []byte("hello hello hello"))
	gzipHeader := valid[:10]
	for name, wire := range map[string][]byte{
		"bad-magic":  append([]byte{'X'}, valid[1:]...),
		"bad-params": append(append([]byte{}, valid[:2]...), append([]byte{7}, valid[3:]...)...), // method 7, not deflate
		// A fixed-Huffman block whose first symbol copies from distance 1
		// with nothing decoded yet.
		"backref-before-start": append(append([]byte{}, gzipHeader...), 0x03, 0x02, 0, 0, 0, 0, 0, 0, 0, 0),
		"bad-checksum":         append(append([]byte{}, valid[:len(valid)-8]...), 0xde, 0xad, 0xbe, 0xef, 17, 0, 0, 0),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := io.ReadAll(NewReader(bytes.NewReader(wire))); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestWriterCloseAfterWriteError: a stream whose bytes never reached
// the destination must not close cleanly.
func TestWriterCloseAfterWriteError(t *testing.T) {
	w := NewWriter(failWriter{})
	big := bytes.Repeat([]byte("abcdefgh"), 4096)
	var werr error
	for i := 0; i < 64 && werr == nil; i++ {
		_, werr = w.Write(big)
	}
	if werr == nil {
		t.Fatalf("Write never surfaced the downstream failure")
	}
	if err := w.Close(); err == nil {
		t.Fatalf("Close succeeded after a failed write")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestCompressionRatioJSONL(t *testing.T) {
	in := corpus()["big-jsonish"]
	wire := encode(t, in)
	ratio := float64(len(in)) / float64(len(wire))
	t.Logf("jsonish: %d -> %d bytes (%.2fx)", len(in), len(wire), ratio)
	if ratio < 3.0 {
		t.Fatalf("compression ratio %.2fx below 3x floor on repetitive JSONL", ratio)
	}
	// Incompressible input must not blow up: at worst stored blocks,
	// five bytes per block plus the header and trailer.
	rnd := corpus()["random"]
	if rw := encode(t, rnd); len(rw) > len(rnd)+len(rnd)/100+64 {
		t.Fatalf("incompressible expansion too large: %d -> %d", len(rnd), len(rw))
	}
}

// FuzzDecompress drives the decoder over arbitrary input: it must never
// panic or exceed the output bound, and every failure must be one of
// the two sentinels.
func FuzzDecompress(f *testing.F) {
	seeds := [][]byte{
		nil,
		{0x1f},
		{0x1f, 0x8b},
		{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff},
		{0xff, 0xff, 0xff, 0xff},
	}
	for _, in := range corpus() {
		wire := encode(f, in)
		seeds = append(seeds, wire, wire[:len(wire)/2], wire[:len(wire)-1])
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOut = 1 << 22
		n, err := io.Copy(io.Discard, io.LimitReader(NewReader(bytes.NewReader(data)), maxOut))
		if n > maxOut {
			t.Fatalf("decoder exceeded output bound")
		}
		if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

func BenchmarkCompressJSONL(b *testing.B) {
	in := corpus()["big-jsonish"]
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	var wireLen int
	for i := 0; i < b.N; i++ {
		wireLen = len(encode(b, in))
	}
	b.ReportMetric(float64(len(in))/float64(wireLen), "ratio")
}

func BenchmarkDecompressJSONL(b *testing.B) {
	in := corpus()["big-jsonish"]
	wire := encode(b, in)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := io.Copy(io.Discard, NewReader(bytes.NewReader(wire))); err != nil {
			b.Fatal(err)
		}
	}
}
