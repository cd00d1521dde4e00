package transport

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"semnids/internal/core"
	"semnids/internal/fed"
	"semnids/internal/fed/compress"
	"semnids/internal/fed/transport/faultnet"
	"semnids/internal/incident"
)

// synthExport builds a deterministic evidence export by driving a
// real correlator with seeded random events (the same generator shape
// the fed wire-format tests use).
func synthExport(t testing.TB, sensor string, seed int64, events int) *incident.EvidenceExport {
	t.Helper()
	return synthExportWindow(t, sensor, seed, events, 30e6)
}

func synthExportWindow(t testing.TB, sensor string, seed int64, events int, windowUS uint64) *incident.EvidenceExport {
	t.Helper()
	c := incident.New(incident.Config{Params: incident.Params{WindowUS: windowUS, FanoutThreshold: 3}})
	defer c.Stop()
	rng := rand.New(rand.NewSource(seed))
	host := func(i int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
	}
	fps := make([]core.Fingerprint, 16)
	for i := range fps {
		fps[i] = core.FingerprintOf([]byte(fmt.Sprintf("payload-%d", i)))
	}
	sev := []string{"low", "medium", "high"}
	for i := 0; i < events; i++ {
		src, dst := host(rng.Intn(12)), host(20+rng.Intn(12))
		ts := uint64(1000 + rng.Intn(2_000_000))
		switch rng.Intn(4) {
		case 0, 1:
			c.Publish(core.Event{Kind: core.EventFlowOpen, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 1234, DstPort: 80})
		case 2:
			c.Publish(core.Event{
				Kind: core.EventAlert, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 1234, DstPort: 80,
				Fingerprint: fps[rng.Intn(len(fps))], Template: "code-red-ii", Severity: sev[rng.Intn(len(sev))],
			})
		case 3:
			c.Publish(core.Event{
				Kind: core.EventFingerprint, TimestampUS: ts, Src: dst, Dst: host(40 + rng.Intn(8)),
				SrcPort: 4321, DstPort: 80, Fingerprint: fps[rng.Intn(len(fps))],
			})
		}
	}
	c.Flush()
	return c.Export(sensor)
}

// encode renders an export to wire bytes.
func encode(t testing.TB, ex *incident.EvidenceExport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fed.WriteExport(&buf, ex); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// foldAll merges exports left to right.
func foldAll(t testing.TB, exs ...*incident.EvidenceExport) *incident.EvidenceExport {
	t.Helper()
	merged := exs[0]
	for _, ex := range exs[1:] {
		var err error
		if merged, err = fed.Merge(merged, ex); err != nil {
			t.Fatal(err)
		}
	}
	return merged
}

// writeSegment drops one encoded export into dir under the sink's
// segment naming convention.
func writeSegment(t testing.TB, dir string, index int, ex *incident.EvidenceExport) string {
	t.Helper()
	name := fmt.Sprintf("evidence-%06d.seg", index)
	if err := os.WriteFile(filepath.Join(dir, name), encode(t, ex), 0o644); err != nil {
		t.Fatal(err)
	}
	return name
}

func newAggregator(t testing.TB, dir string, mut func(*AggregatorConfig)) *Aggregator {
	t.Helper()
	cfg := AggregatorConfig{Dir: dir}
	if mut != nil {
		mut(&cfg)
	}
	agg, err := NewAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// post pushes a segment body at an aggregator server gzip, as the
// pusher does, returning the status.
func post(t testing.TB, url string, body []byte) int {
	t.Helper()
	return postEncoded(t, url, compress.ContentEncoding, compressBytes(body))
}

// postEncoded pushes a body as is under a Content-Encoding ("" for
// none).
func postEncoded(t testing.TB, url, encoding string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// growingSegment has a sink write one checkpoint per export into a
// single segment, as a sensor's spool segment grows, and returns it.
func growingSegment(t testing.TB, exports ...*incident.EvidenceExport) []byte {
	t.Helper()
	dir := t.TempDir()
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
	for next = range exports {
		if err := sink.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := fed.Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v: want exactly one", segs, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segs[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fastUpstream is a push policy tuned for test cadence.
func fastUpstream(client *http.Client, urls ...string) Upstream {
	return Upstream{
		URLs:           urls,
		Client:         client,
		RequestTimeout: 2 * time.Second,
		ScanInterval:   10 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     40 * time.Millisecond,
		ProbeInterval:  20 * time.Millisecond,
		Seed:           1,
	}
}

// fastPusher starts a pusher tuned for test cadence.
func fastPusher(t testing.TB, dir, url string, client *http.Client) *Pusher {
	t.Helper()
	p, err := NewPusher(PusherConfig{Dir: dir, Upstream: fastUpstream(client, url)})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAggregatorStatuses locks the push endpoint's status-code
// contract: every malformed input is refused cleanly before any fold,
// valid pushes ack durably, and duplicates are harmless.
// TestAggregatorRefusesInvalidUTF8NodeID: a NodeID that is not valid
// UTF-8 would reach the wire as U+FFFD, so the aggregator refuses it.
func TestAggregatorRefusesInvalidUTF8NodeID(t *testing.T) {
	_, err := NewAggregator(AggregatorConfig{Dir: t.TempDir(), NodeID: "agg-\xff"})
	if err == nil || !strings.Contains(err.Error(), "NodeID") {
		t.Fatalf("NodeID agg-\\xff: %v, want an error naming NodeID", err)
	}
}

func TestAggregatorStatuses(t *testing.T) {
	agg := newAggregator(t, t.TempDir(), func(c *AggregatorConfig) { c.MaxBodyBytes = 64 << 10 })
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()

	ex := synthExport(t, "sensor-a", 1, 300)
	data := encode(t, ex)

	// GET is the health probe: 204, stamped with the aggregator's
	// node ID.
	if resp, err := http.Get(srv.URL); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("GET = %d, want 204", resp.StatusCode)
		}
		if got := resp.Header.Get(HeaderNode); got == "" {
			t.Errorf("probe response missing %s", HeaderNode)
		}
	}
	if got := post(t, srv.URL, []byte("not a segment")); got != http.StatusBadRequest {
		t.Errorf("garbage body = %d, want 400", got)
	}
	// A header-only stream (first framed record, nothing committed).
	header := data[:bytes.IndexByte(data, '\n')+1]
	if got := post(t, srv.URL, header); got != http.StatusBadRequest {
		t.Errorf("checkpoint-less body = %d, want 400", got)
	}
	// Mid-checkpoint truncation.
	if got := post(t, srv.URL, data[:len(data)-3]); got != http.StatusBadRequest {
		t.Errorf("truncated body = %d, want 400", got)
	}
	if m := agg.Metrics(); m.Merged != 0 {
		t.Fatalf("rejected pushes folded evidence: %+v", m)
	}

	if got := post(t, srv.URL, data); got != http.StatusOK {
		t.Fatalf("valid push = %d, want 200", got)
	}
	if !reflect.DeepEqual(agg.Export(), ex) {
		t.Fatal("aggregator state diverged from the pushed export")
	}
	// Duplicate delivery: state must be byte-identical before and after.
	before := encode(t, agg.Export())
	if got := post(t, srv.URL, data); got != http.StatusOK {
		t.Fatalf("duplicate push = %d, want 200", got)
	}
	if !bytes.Equal(encode(t, agg.Export()), before) {
		t.Fatal("duplicate push changed the aggregator state")
	}

	// Oversized: a body over MaxBodyBytes is refused even though its
	// committed prefix would decode.
	big := synthExport(t, "sensor-big", 2, 20000)
	if data := encode(t, big); int64(len(data)) > 64<<10 {
		if got := post(t, srv.URL, data); got != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body = %d, want 413", got)
		}
	} else {
		t.Fatalf("oversized fixture only %d bytes", len(data))
	}

	// The bound holds on the decoded side too: a compressed body well
	// under it that expands past it is refused.
	bomb := compressBytes(append(append([]byte(nil), data...), bytes.Repeat([]byte("2 {}\n"), 1<<16)...))
	if len(bomb) >= 64<<10 {
		t.Fatalf("decompression-bomb fixture is %d bytes on the wire, want under the bound", len(bomb))
	}
	if got := postEncoded(t, srv.URL, compress.ContentEncoding, bomb); got != http.StatusRequestEntityTooLarge {
		t.Errorf("expanding compressed body = %d, want 413", got)
	}

	// Correlation-parameter skew: same wire format, incompatible fold.
	skew := synthExportWindow(t, "sensor-skew", 3, 300, 60e6)
	if got := post(t, srv.URL, encode(t, skew)); got != http.StatusConflict {
		t.Errorf("skewed parameters = %d, want 409", got)
	}

	// Every push body is gzip: neither the encoding of LZSS-era
	// pushers nor an identity body is spoken.
	if got := postEncoded(t, srv.URL, "semnids-lzss", data); got != http.StatusUnsupportedMediaType {
		t.Errorf("semnids-lzss body = %d, want 415", got)
	}
	if got := postEncoded(t, srv.URL, "", data); got != http.StatusUnsupportedMediaType {
		t.Errorf("identity body = %d, want 415", got)
	}

	m := agg.Metrics()
	if m.Rejected < 3 || m.TooLarge != 2 || m.Skew != 1 || m.Unsupported != 2 || m.Merged != 2 {
		t.Errorf("metrics = %+v, want rejected>=3 tooLarge=2 skew=1 unsupported=2 merged=2", m)
	}
	if !bytes.Equal(encode(t, agg.Export()), before) {
		t.Fatal("a refused push changed the aggregator state")
	}
}

// TestAggregatorRefusesCorruptCompressedBody: a compressed body that
// fails its decoder's checks (a flipped byte, a bad CRC) is refused
// with 400 and folds nothing, while the same body torn mid-stream is a
// truncation like any other and folds its committed prefix.
func TestAggregatorRefusesCorruptCompressedBody(t *testing.T) {
	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()

	base := synthExport(t, "sensor-a", 1, 300)
	if got := post(t, srv.URL, encode(t, base)); got != http.StatusOK {
		t.Fatalf("base push = %d, want 200", got)
	}
	e1 := synthExport(t, "sensor-b", 2, 300)
	e2 := foldAll(t, e1, synthExport(t, "sensor-b", 3, 300))
	wire := compressBytes(growingSegment(t, e1, e2))

	before := encode(t, agg.Export())
	flipped := append([]byte(nil), wire...)
	flipped[len(flipped)/2] ^= 0xff
	badCRC := append([]byte(nil), wire...)
	badCRC[len(badCRC)-8] ^= 0xff // the trailer is CRC-32 then length
	for name, body := range map[string][]byte{"flipped byte": flipped, "bad CRC": badCRC} {
		if got := postEncoded(t, srv.URL, compress.ContentEncoding, body); got != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", name, got)
		}
		if !bytes.Equal(encode(t, agg.Export()), before) {
			t.Fatalf("%s body changed the aggregator state", name)
		}
	}
	if m := agg.Metrics(); m.Rejected != 2 || m.Merged != 1 {
		t.Fatalf("metrics = %+v, want rejected=2 merged=1", m)
	}

	// Torn near the end: the second checkpoint's commit mark is lost,
	// the first one's survives.
	if got := postEncoded(t, srv.URL, compress.ContentEncoding, wire[:len(wire)-16]); got != http.StatusOK {
		t.Fatalf("torn body = %d, want 200", got)
	}
	if !bytes.Equal(encode(t, agg.Export()), encode(t, foldAll(t, base, e1))) {
		t.Fatal("torn body did not fold exactly its committed prefix")
	}
	if got := postEncoded(t, srv.URL, compress.ContentEncoding, wire); got != http.StatusOK {
		t.Fatalf("whole body = %d, want 200", got)
	}
	if !bytes.Equal(encode(t, agg.Export()), encode(t, foldAll(t, base, e2))) {
		t.Fatal("whole body did not fold the newest checkpoint")
	}
}

// TestPusherDeliversSpool is the basic happy path: segments on disk
// before and after the pusher starts all reach the aggregator, and
// the folded state equals a direct merge of the same exports.
func TestPusherDeliversSpool(t *testing.T) {
	spool, aggDir := t.TempDir(), t.TempDir()
	e1 := synthExport(t, "sensor-a", 1, 300)
	e2 := synthExport(t, "sensor-a", 2, 300)
	e3 := synthExport(t, "sensor-b", 3, 300)
	writeSegment(t, spool, 0, e1)

	agg := newAggregator(t, aggDir, nil)
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()

	p := fastPusher(t, spool, srv.URL, nil)
	defer p.Close()
	waitFor(t, "first segment ack", func() bool { return p.Synced() })

	// New segments appear while the pusher runs — including one that
	// grows in place (same index, more bytes), which must be re-pushed.
	// Synced() reflects the latest completed scan, so convergence is
	// judged on the aggregator's state, not the pusher's gauge.
	writeSegment(t, spool, 1, e2)
	writeSegment(t, spool, 1, foldAll(t, e2, e3))
	p.Notify()
	want := encode(t, foldAll(t, e1, e2, e3))
	waitFor(t, "aggregator to converge on the direct merge", func() bool {
		return bytes.Equal(encode(t, agg.Export()), want)
	})
	waitFor(t, "acks recorded and spool drained", func() bool {
		m := p.Metrics()
		return m.Acked >= 2 && p.Synced()
	})
	if m := p.Metrics(); m.Rejected != 0 || m.Dropped != 0 {
		t.Errorf("pusher metrics = %+v, want no rejects/drops", m)
	}
}

// TestPusherDeliversPastDamagedGroup: a spool segment whose
// superseded group holds a record that does not decode still commits
// its intact newest group, so the pusher sends it and the aggregator
// folds that group.
func TestPusherDeliversPastDamagedGroup(t *testing.T) {
	spool := t.TempDir()
	newer := synthExport(t, "sensor-a", 6, 120)
	seg := growingSegment(t, synthExport(t, "sensor-a", 6, 60), newer)
	// Same length, no longer an address: the frame still frames.
	i := bytes.Index(seg, []byte(`"src":"10.`)) + len(`"src":"`)
	seg[i], seg[i+1] = 'x', 'x'
	if err := os.WriteFile(filepath.Join(spool, "evidence-000000.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()
	p := fastPusher(t, spool, srv.URL, nil)
	defer p.Close()
	waitFor(t, "the damaged segment acked", func() bool { return p.Metrics().Acked == 1 })
	if !bytes.Equal(encode(t, agg.Export()), encode(t, newer)) {
		t.Fatal("the aggregator did not fold the segment's newest checkpoint")
	}
	if m := p.Metrics(); m.Rejected != 0 {
		t.Errorf("pusher metrics = %+v, want no rejects", m)
	}
}

// TestPusherBackoffAndRecovery pins the degradation contract: while
// the aggregator is down the pusher backs off exponentially and the
// spool holds everything; when it returns, the spool drains and the
// backoff resets.
func TestPusherBackoffAndRecovery(t *testing.T) {
	spool := t.TempDir()
	ex := synthExport(t, "sensor-a", 4, 300)
	writeSegment(t, spool, 0, ex)

	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	var up atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
			return
		}
		agg.ServeHTTP(w, r)
	}))
	defer srv.Close()

	p := fastPusher(t, spool, srv.URL, nil)
	defer p.Close()
	waitFor(t, "retries against the dead aggregator", func() bool {
		m := p.Metrics()
		return m.Retried >= 3 && m.Backoff > 0 && m.Spooled == 1 && m.LastError != ""
	})
	if p.Synced() {
		t.Fatal("pusher claims synced while the aggregator rejects everything")
	}

	up.Store(true)
	waitFor(t, "catch-up after recovery", func() bool { return p.Synced() })
	if m := p.Metrics(); m.Backoff != 0 || m.LastError != "" || m.Acked == 0 {
		t.Errorf("post-recovery metrics = %+v, want reset backoff and an ack", m)
	}
	if !bytes.Equal(encode(t, agg.Export()), encode(t, ex)) {
		t.Fatal("recovered aggregator state diverged from the spooled export")
	}
}

// TestPusherCountsPrunedSegments: a committed segment deleted before
// any ack is dropped evidence and must be counted, not silently
// forgotten.
func TestPusherCountsPrunedSegments(t *testing.T) {
	spool := t.TempDir()
	name := writeSegment(t, spool, 0, synthExport(t, "sensor-a", 5, 300))

	// No server at all: every push fails, nothing gets acked.
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()

	p := fastPusher(t, spool, url, nil)
	defer p.Close()
	waitFor(t, "segment observed and spooled", func() bool {
		m := p.Metrics()
		return m.Spooled == 1 && m.Retried > 0
	})
	if err := os.Remove(filepath.Join(spool, name)); err != nil {
		t.Fatal(err)
	}
	p.Notify()
	waitFor(t, "prune accounted as dropped", func() bool {
		m := p.Metrics()
		return m.Dropped == 1 && m.Spooled == 0
	})
}

// TestPusherSkipsRejectedSegment: a segment the aggregator permanently
// refuses (parameter skew) must not wedge the spool — later segments
// still flow, the rejection is counted.
func TestPusherSkipsRejectedSegment(t *testing.T) {
	spool := t.TempDir()
	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()

	// Segment 0 fixes the aggregator's parameters; segment 1 skews;
	// segment 2 must still get through.
	writeSegment(t, spool, 0, synthExport(t, "sensor-a", 6, 300))
	writeSegment(t, spool, 1, synthExportWindow(t, "sensor-a", 7, 300, 60e6))
	writeSegment(t, spool, 2, synthExport(t, "sensor-b", 8, 300))

	p := fastPusher(t, spool, srv.URL, nil)
	defer p.Close()
	waitFor(t, "spool resolved around the rejected segment", func() bool {
		m := p.Metrics()
		return m.Rejected == 1 && m.Acked >= 2 && m.Spooled == 0
	})
	st := agg.Export()
	if len(st.Sensors) != 2 {
		t.Fatalf("aggregator sensors = %v, want the two compatible segments folded", st.Sensors)
	}
	if m := p.Metrics(); !strings.Contains(m.LastError, "409") && m.Backoff != 0 {
		t.Errorf("rejection raised backoff: %+v", m)
	}
}

// TestPusherResendsDamagedBody: a push body damaged in flight fails
// the aggregator's gzip checks and is refused, and the one re-send of
// the same body delivers it. The first push is already gzip.
func TestPusherResendsDamagedBody(t *testing.T) {
	spool := t.TempDir()
	ex := synthExport(t, "sensor-a", 9, 300)
	writeSegment(t, spool, 0, ex)

	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	var bodies atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && bodies.Add(1) == 1 {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			body[len(body)/2] ^= 0xff
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		agg.ServeHTTP(w, r)
	}))
	defer srv.Close()

	p := fastPusher(t, spool, srv.URL, nil)
	defer p.Close()
	waitFor(t, "the damaged push acked", func() bool { return p.Synced() })
	m := p.Metrics()
	if m.Pushed != 2 || m.Acked != 1 || m.Rejected != 0 {
		t.Fatalf("pusher metrics = %+v, want the segment acked on its second attempt with no rejection", m)
	}
	if m.WireBytes == 0 || m.WireBytes >= m.RawBytes {
		t.Fatalf("wire bytes %d, raw bytes %d: the first ack was not gzip", m.WireBytes, m.RawBytes)
	}
	if am := agg.Metrics(); am.Rejected != 1 || am.Merged != 1 {
		t.Fatalf("aggregator metrics = %+v, want the damaged body refused and the re-send folded", am)
	}
	if !bytes.Equal(encode(t, agg.Export()), encode(t, ex)) {
		t.Fatal("the re-sent body did not fold the spooled export")
	}
}

// TestAggregatorRestartRecovery is the kill-mid-stream property test:
// at several seeds, an aggregator is crash-killed (no final
// checkpoint) partway through a push sequence, restarted on the same
// directory, and fed the rest plus re-deliveries of everything before
// the kill. The resumed fold must be byte-identical to an
// uninterrupted fold of the same exports — acked evidence survives
// the crash, duplicates change nothing.
func TestAggregatorRestartRecovery(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dir := t.TempDir()
		exports := make([]*incident.EvidenceExport, 4)
		for i := range exports {
			exports[i] = synthExport(t, fmt.Sprintf("sensor-%c", 'a'+i%2), seed*10+int64(i), 250)
		}
		want := encode(t, foldAll(t, exports...))

		agg := newAggregator(t, dir, nil)
		srv := httptest.NewServer(agg)
		for _, ex := range exports[:2] {
			if got := post(t, srv.URL, encode(t, ex)); got != http.StatusOK {
				t.Fatalf("seed %d: pre-kill push = %d", seed, got)
			}
		}
		ackedState := encode(t, agg.Export())
		agg.Kill()
		srv.Close()

		agg2 := newAggregator(t, dir, nil)
		if got := encode(t, agg2.Export()); !bytes.Equal(got, ackedState) {
			t.Fatalf("seed %d: restart did not recover the acked state", seed)
		}
		srv2 := httptest.NewServer(agg2)
		// Re-deliver everything acked before the kill, then the rest —
		// the retransmit storm a real sensor fleet produces after an
		// aggregator outage.
		for _, ex := range append(append([]*incident.EvidenceExport{}, exports[:2]...), exports[2:]...) {
			if got := post(t, srv2.URL, encode(t, ex)); got != http.StatusOK {
				t.Fatalf("seed %d: post-restart push = %d", seed, got)
			}
		}
		if got := encode(t, agg2.Export()); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: resumed fold diverged from the uninterrupted fold", seed)
		}
		agg2.Close()
		srv2.Close()

		// And the final state itself recovers once more.
		agg3 := newAggregator(t, dir, nil)
		if got := encode(t, agg3.Export()); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: clean-close state did not recover", seed)
		}
		agg3.Close()
	}
}

// TestPushConvergesUnderFaults runs the whole transport under the
// fault harness: drops, truncations, 5xx bursts, duplicates and
// latency on a fixed seed, with multiple sensors pushing real sink
// segments. Despite every injected fault the aggregator must converge
// to exactly the clean fold of the sensors' final exports.
func TestPushConvergesUnderFaults(t *testing.T) {
	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()

	ft := faultnet.New(nil, faultnet.Plan{
		Seed:       42,
		Drop:       0.25,
		Truncate:   0.2,
		Err:        0.2,
		Duplicate:  0.2,
		MaxLatency: 2 * time.Millisecond,
	})
	client := &http.Client{Transport: ft}

	var finals []*incident.EvidenceExport
	var pushers []*Pusher
	for s := 0; s < 3; s++ {
		spool := t.TempDir()
		// Each sensor's evidence grows across three checkpoints into
		// rotated segments, like a live sink.
		for i := 0; i < 3; i++ {
			cum := foldAll(t, synthExport(t, fmt.Sprintf("sensor-%d", s), int64(s*100+1), 100*(i+1)))
			writeSegment(t, spool, i, cum)
			if i == 2 {
				finals = append(finals, cum)
			}
		}
		pushers = append(pushers, fastPusher(t, spool, srv.URL, client))
	}
	defer func() {
		for _, p := range pushers {
			p.Close()
		}
	}()

	waitFor(t, "all sensors synced through the fault harness", func() bool {
		for _, p := range pushers {
			if !p.Synced() {
				return false
			}
		}
		return true
	})
	// Every push is gzip, so faults landed inside gzip bodies.
	for i, p := range pushers {
		if m := p.Metrics(); m.Acked == 0 || m.WireBytes >= m.RawBytes {
			t.Errorf("sensor %d delivered no gzip push: %+v", i, m)
		}
	}

	want := encode(t, foldAll(t, finals...))
	if got := encode(t, agg.Export()); !bytes.Equal(got, want) {
		t.Fatal("fold under faults diverged from the clean fold")
	}
	c := ft.Counts()
	if c.Drops == 0 || c.Truncations == 0 || c.Errs == 0 || c.Duplicates == 0 {
		t.Fatalf("fault plan did not exercise every fault kind: %+v", c)
	}
	if m := agg.Metrics(); m.Rejected == 0 {
		// Truncated uploads that reach the server must have been
		// refused (400), never folded.
		t.Logf("note: no server-side rejections (truncations may have died client-side): %+v", m)
	}
}

// TestAggregatorConfigReachesSinkAndPusher: AggregatorConfig.Retention
// and AggregatorConfig.Upstream are handed to the aggregator's sink and
// its upstream pusher whole. A one-byte rotation with two kept
// segments leaves exactly two segments after five acked pushes (the
// defaults would leave one), and relaying to a dead upstream backs off
// from the configured floor (the default is 250ms).
func TestAggregatorConfigReachesSinkAndPusher(t *testing.T) {
	const backoffMin = 700 * time.Millisecond
	dir := t.TempDir()
	agg := newAggregator(t, dir, func(c *AggregatorConfig) {
		c.Retention = fed.Retention{RotateBytes: 1, KeepSegments: 2, CheckpointEvery: time.Hour}
		c.Upstream = Upstream{
			URLs:         []string{"http://127.0.0.1:1/push"},
			ScanInterval: 10 * time.Millisecond,
			BackoffMin:   backoffMin,
			BackoffMax:   time.Hour,
		}
	})
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()
	for i := 0; i < 5; i++ {
		if got := post(t, srv.URL, encode(t, synthExport(t, "sensor-a", int64(90+i), 100))); got != http.StatusOK {
			t.Fatalf("push %d = %d, want 200", i, got)
		}
	}
	if segs, err := fed.Segments(dir); err != nil || len(segs) != 2 {
		t.Fatalf("%d segments (%v) after 5 one-byte rotations, want KeepSegments = 2", len(segs), err)
	}
	var backoff time.Duration
	waitFor(t, "a failed relay", func() bool {
		pm, _ := agg.PushStats()
		backoff = pm.Backoff
		return backoff > 0
	})
	// Each nudged pass doubles it, so any power-of-two multiple of the
	// floor is fine; none of those is a multiple of the default's.
	if n := backoff / backoffMin; backoff%backoffMin != 0 || n&(n-1) != 0 {
		t.Fatalf("backoff %v is not the configured floor %v doubled", backoff, backoffMin)
	}
}

func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":         nil,
		"a,,b":     {"a", "b"},
		" a , b ":  {"a", "b"},
		"a":        {"a"},
		" , ,":     nil,
		"http://x": {"http://x"},
	} {
		if got := SplitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}
