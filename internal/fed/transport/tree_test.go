package transport

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"semnids/internal/fed/compress"
)

// flakyServer serves an aggregator behind an on/off switch: while
// down, every request gets a 503 without reaching the aggregator (the
// load-balancer-drops-the-backend failure shape).
func flakyServer(agg http.Handler) (*httptest.Server, *atomic.Bool) {
	var up atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
			return
		}
		agg.ServeHTTP(w, r)
	}))
	return srv, &up
}

// TestPusherBackoffResetsAfterSuccess pins the backoff contract: a
// successful push resets the retry backoff to zero, so the first
// failure of the *next* outage starts from BackoffMin — never from
// the previous outage's lingering ceiling.
func TestPusherBackoffResetsAfterSuccess(t *testing.T) {
	const backoffMin, backoffMax = 50 * time.Millisecond, 400 * time.Millisecond
	spool := t.TempDir()
	writeSegment(t, spool, 0, synthExport(t, "sensor-a", 11, 300))

	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	srv, up := flakyServer(agg)
	defer srv.Close()

	p, err := NewPusher(PusherConfig{
		Dir:            spool,
		URL:            srv.URL,
		RequestTimeout: 2 * time.Second,
		ScanInterval:   10 * time.Millisecond,
		BackoffMin:     backoffMin,
		BackoffMax:     backoffMax,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// First outage: drive the backoff well past BackoffMin.
	waitFor(t, "backoff to climb past 4x the floor", func() bool {
		return p.Metrics().Backoff >= 4*backoffMin
	})

	up.Store(true)
	waitFor(t, "ack and reset", func() bool { return p.Synced() })
	if m := p.Metrics(); m.Backoff != 0 {
		t.Fatalf("backoff = %v after a successful push, want 0", m.Backoff)
	}

	// Second outage: the first failure must back off from the floor.
	// The condition captures the metrics snapshot the moment the first
	// new retry is visible, before further doublings can blur it.
	before := p.Metrics()
	up.Store(false)
	writeSegment(t, spool, 1, synthExport(t, "sensor-a", 12, 600))
	p.Notify()
	var after PushMetrics
	waitFor(t, "first retry of the second outage", func() bool {
		m := p.Metrics()
		if m.Retried > before.Retried {
			after = m
			return true
		}
		return false
	})
	if after.Backoff > 2*backoffMin {
		t.Fatalf("first post-ack failure backed off %v, want <= %v (reset to the floor, not the old ceiling)",
			after.Backoff, 2*backoffMin)
	}
}

// TestPusherFailoverAndPromotion drives the multi-upstream contract:
// with the primary down, pushes fail over to the secondary and ack
// there; when the primary returns, a health probe promotes it back and
// subsequent pushes land on it.
func TestPusherFailoverAndPromotion(t *testing.T) {
	spool := t.TempDir()
	e1 := synthExport(t, "sensor-a", 21, 300)
	writeSegment(t, spool, 0, e1)

	primary := newAggregator(t, t.TempDir(), func(c *AggregatorConfig) { c.NodeID = "agg-primary" })
	defer primary.Close()
	secondary := newAggregator(t, t.TempDir(), func(c *AggregatorConfig) { c.NodeID = "agg-secondary" })
	defer secondary.Close()
	priSrv, priUp := flakyServer(primary)
	defer priSrv.Close()
	secSrv := httptest.NewServer(secondary)
	defer secSrv.Close()

	p, err := NewPusher(PusherConfig{
		Dir:            spool,
		URLs:           []string{priSrv.URL, secSrv.URL},
		RequestTimeout: 2 * time.Second,
		ScanInterval:   10 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     40 * time.Millisecond,
		ProbeInterval:  20 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Primary down: the segment must land on the secondary.
	want1 := encode(t, e1)
	waitFor(t, "failover delivery to the secondary", func() bool {
		return secondary.Export() != nil && bytes.Equal(encode(t, secondary.Export()), want1)
	})
	// The ack lands server-side before the pusher's own accounting, so
	// the switch is polled, not read once.
	waitFor(t, "failover recorded", func() bool {
		m := p.Metrics()
		return m.Failovers >= 1 && m.ActiveUpstream == secSrv.URL
	})
	m := p.Metrics()
	if len(m.Upstreams) != 2 || m.Upstreams[1].Acked == 0 || !m.Upstreams[1].Active || m.Upstreams[0].Active {
		t.Fatalf("per-upstream status = %+v, want the secondary active with an ack", m.Upstreams)
	}
	if m.Upstreams[0].Retried == 0 {
		t.Fatalf("per-upstream status = %+v, want retries recorded against the dead primary", m.Upstreams)
	}

	// Primary back: the probe must promote it, and new evidence must
	// land there.
	priUp.Store(true)
	waitFor(t, "probe-driven promotion back to the primary", func() bool {
		return p.Metrics().ActiveUpstream == priSrv.URL
	})
	e2 := foldAll(t, e1, synthExport(t, "sensor-b", 22, 300))
	writeSegment(t, spool, 1, e2)
	p.Notify()
	want2 := encode(t, e2)
	waitFor(t, "post-promotion delivery to the primary", func() bool {
		return primary.Export() != nil && bytes.Equal(encode(t, primary.Export()), want2)
	})
	waitFor(t, "ack recorded on the promoted primary", func() bool {
		return p.Metrics().Upstreams[0].Acked >= 1
	})
}

// TestPusherSpoolsWhenAllUpstreamsDown: with every upstream dead the
// pusher degrades to spool-and-forward — one backoff raise per pass
// (not per upstream), evidence intact — and drains when any upstream
// returns.
func TestPusherSpoolsWhenAllUpstreamsDown(t *testing.T) {
	const backoffMin = 5 * time.Millisecond
	spool := t.TempDir()
	ex := synthExport(t, "sensor-a", 31, 300)
	writeSegment(t, spool, 0, ex)

	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	srvA, upA := flakyServer(agg)
	defer srvA.Close()
	srvB, _ := flakyServer(http.NotFoundHandler()) // stays down for good
	defer srvB.Close()

	p, err := NewPusher(PusherConfig{
		Dir:            spool,
		URLs:           []string{srvA.URL, srvB.URL},
		RequestTimeout: 2 * time.Second,
		ScanInterval:   10 * time.Millisecond,
		BackoffMin:     backoffMin,
		BackoffMax:     40 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var outage PushMetrics
	waitFor(t, "retries against both dead upstreams", func() bool {
		outage = p.Metrics()
		return outage.Retried >= 4 && outage.Spooled == 1
	})
	// Each pass tries both upstreams but raises the backoff once: the
	// retry count must run ahead of what per-retry doubling from the
	// floor would produce. With >= 4 retries in >= 2 passes the backoff
	// is at most min<<(passes-1), far under min<<(retries-1).
	if outage.Backoff > backoffMin<<(outage.Retried/2) {
		t.Fatalf("backoff %v after %d retries over 2 upstreams: raised per upstream, want once per pass",
			outage.Backoff, outage.Retried)
	}

	upA.Store(true)
	waitFor(t, "spool drain after one upstream returns", func() bool { return p.Synced() })
	if !bytes.Equal(encode(t, agg.Export()), encode(t, ex)) {
		t.Fatal("drained state diverged from the spooled export")
	}
}

// TestPusherCompressionNegotiation proves the encoding handshake end
// to end: a pusher sends its first push identity, learns support from
// the response headers, compresses from then on, and the folded state
// is byte-identical to the identity fold.
func TestPusherCompressionNegotiation(t *testing.T) {
	spool := t.TempDir()
	e1 := synthExport(t, "sensor-a", 41, 400)
	writeSegment(t, spool, 0, e1)

	agg := newAggregator(t, t.TempDir(), nil)
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()

	p, err := NewPusher(PusherConfig{
		Dir:            spool,
		URL:            srv.URL,
		RequestTimeout: 2 * time.Second,
		ScanInterval:   10 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     40 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	waitFor(t, "first (identity) ack", func() bool { return p.Synced() })
	first := p.Metrics()
	if first.Compressed != 0 {
		t.Fatalf("compressed before learning support: %+v", first)
	}
	if !first.Upstreams[0].Compress {
		t.Fatal("the ack's headers did not teach the pusher compression support")
	}

	// Everything after the handshake goes compressed.
	e2 := foldAll(t, e1, synthExport(t, "sensor-b", 42, 400))
	writeSegment(t, spool, 1, e2)
	p.Notify()
	waitFor(t, "compressed follow-up ack", func() bool {
		m := p.Metrics()
		return m.Compressed >= 1 && p.Synced()
	})
	m := p.Metrics()
	if m.WireBytes >= m.RawBytes {
		t.Fatalf("wire bytes %d >= raw bytes %d: compression never engaged", m.WireBytes, m.RawBytes)
	}
	if !bytes.Equal(encode(t, agg.Export()), encode(t, e2)) {
		t.Fatal("compressed fold diverged from the identity fold")
	}
}

// legacyAggregator acks identity pushes and answers every compressed
// body with refuse, advertising accept in HeaderAcceptEncoding (nothing
// when empty). It counts the compressed bodies it was offered.
func legacyAggregator(acks, offered *atomic.Uint64, accept string, refuse int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if accept != "" {
			w.Header().Set(HeaderAcceptEncoding, accept)
		}
		if r.Method != http.MethodPost {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if enc := r.Header.Get("Content-Encoding"); enc != "" && enc != "identity" {
			offered.Add(1)
			http.Error(w, "cannot decode "+enc, refuse)
			return
		}
		acks.Add(1)
		w.WriteHeader(http.StatusOK)
	})
}

// TestPusherInteropWithOldAggregator pins the downgrade paths. A
// pre-compression aggregator (no capability header) and an LZSS-era
// one (advertises only semnids-lzss, 415s anything else) are never sent
// a compressed body. A pool that advertises gzip but 400s compressed
// bodies (a stale capability behind a load balancer) costs one identity
// retry per push, never a permanent rejection.
func TestPusherInteropWithOldAggregator(t *testing.T) {
	for _, tc := range []struct {
		name       string
		accept     string
		refuse     int
		compresses bool
	}{
		{"auto", "", http.StatusBadRequest, false},
		{"lzss-era", "semnids-lzss", http.StatusUnsupportedMediaType, false},
		{"stale-gzip-pool", compress.ContentEncoding, http.StatusBadRequest, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spool := t.TempDir()
			e1 := synthExport(t, "sensor-a", 51, 300)
			writeSegment(t, spool, 0, e1)
			var acks, offered atomic.Uint64
			srv := httptest.NewServer(legacyAggregator(&acks, &offered, tc.accept, tc.refuse))
			defer srv.Close()

			p, err := NewPusher(PusherConfig{
				Dir:            spool,
				URL:            srv.URL,
				RequestTimeout: 2 * time.Second,
				ScanInterval:   10 * time.Millisecond,
				BackoffMin:     5 * time.Millisecond,
				BackoffMax:     40 * time.Millisecond,
				Seed:           1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			waitFor(t, "first ack from the old aggregator", func() bool { return p.Synced() })
			// The first ack has taught the pusher what the peer advertises:
			// the next push is the one that would go compressed.
			writeSegment(t, spool, 1, foldAll(t, e1, synthExport(t, "sensor-b", 52, 300)))
			p.Notify()
			waitFor(t, "second ack from the old aggregator", func() bool {
				return acks.Load() >= 2 && p.Synced()
			})
			m := p.Metrics()
			if m.Rejected != 0 {
				t.Fatalf("interop counted a permanent rejection: %+v (the identity fallback must absorb it)", m)
			}
			if m.Compressed != 0 {
				t.Fatalf("a compressed body was acked by an aggregator that cannot decode one: %+v", m)
			}
			if got := offered.Load() > 0; got != tc.compresses {
				t.Fatalf("%d compressed bodies offered, want compressed attempts = %v", offered.Load(), tc.compresses)
			}
		})
	}
}

// TestAggregatorLoopGuards pins the topology refusals: a Via set
// naming this node is a cycle, a hop count over budget is refused, and
// both are counted — while legitimate deep pushes fold and feed the
// node's own route stamp, and pushes refused for their body (corrupt,
// oversized, unknown encoding, skewed) leave that stamp alone.
func TestAggregatorLoopGuards(t *testing.T) {
	agg := newAggregator(t, t.TempDir(), func(c *AggregatorConfig) {
		c.NodeID = "mid1"
		c.MaxHops = 3
		c.MaxBodyBytes = 256 << 10
	})
	defer agg.Close()
	srv := httptest.NewServer(agg)
	defer srv.Close()
	data := encode(t, synthExport(t, "sensor-a", 61, 300))

	postBody := func(hops, via, encoding string, body []byte) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if encoding != "" {
			req.Header.Set("Content-Encoding", encoding)
		}
		if hops != "" {
			req.Header.Set(HeaderHops, hops)
		}
		if via != "" {
			req.Header.Set(HeaderVia, via)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	postWith := func(hops, via string) int { return postBody(hops, via, "", data) }

	if got := postWith("2", "root,mid1"); got != http.StatusConflict {
		t.Fatalf("cycle push = %d, want 409", got)
	}
	if got := postWith("4", "leafside"); got != http.StatusConflict {
		t.Fatalf("over-budget push = %d, want 409", got)
	}
	if m := agg.Metrics(); m.Cycles != 2 || m.Merged != 0 {
		t.Fatalf("metrics = %+v, want 2 topology refusals and no fold", m)
	}
	// Any client that can reach /push can send these; none of them
	// folds, so none may deepen or pollute this node's upstream stamp
	// (a forged depth would get its own pushes refused by the parent).
	for name, c := range map[string]struct {
		encoding string
		body     []byte
		want     int
	}{
		"corrupt":          {"", data[:len(data)-3], http.StatusBadRequest},
		"oversized":        {"", append(append([]byte(nil), data...), bytes.Repeat([]byte("2 {}\n"), 1<<17)...), http.StatusRequestEntityTooLarge},
		"unknown encoding": {"br", data, http.StatusUnsupportedMediaType},
	} {
		if got := postBody("3", "forged-"+name, c.encoding, c.body); got != c.want {
			t.Fatalf("%s body with forged topology = %d, want %d", name, got, c.want)
		}
	}
	if hops, via := agg.route(); hops != 1 || len(via) != 1 {
		t.Fatalf("route after refused pushes = (%d, %v), want (1, [mid1])", hops, via)
	}
	if got := postWith("3", "mid9"); got != http.StatusOK {
		t.Fatalf("legitimate deep push = %d, want 200", got)
	}
	skew := encode(t, synthExportWindow(t, "sensor-skew", 62, 100, 60e6))
	if got := postBody("3", "forged-skew", "", skew); got != http.StatusConflict {
		t.Fatalf("skewed push with forged topology = %d, want 409", got)
	}
	// The node's own upstream route must now be one tier deeper than
	// the deepest accepted push, via itself plus everything seen.
	hops, via := agg.route()
	if hops != 4 || len(via) != 2 || via[0] != "mid1" || via[1] != "mid9" {
		t.Fatalf("route = (%d, %v), want (4, [mid1 mid9])", hops, via)
	}
}

// fastTreeNode builds a mid-tier aggregator: folds local pushes and
// relays them to the upstream list at test cadence.
func fastTreeNode(t testing.TB, dir, nodeID string, upstreams []string, client *http.Client) *Aggregator {
	t.Helper()
	return newAggregator(t, dir, func(c *AggregatorConfig) {
		c.NodeID = nodeID
		c.Upstreams = upstreams
		c.UpstreamClient = client
		c.PushInterval = 10 * time.Millisecond
		c.PushTimeout = 2 * time.Second
		c.PushBackoffMin = 5 * time.Millisecond
		c.PushBackoffMax = 40 * time.Millisecond
		c.PushProbeInterval = 20 * time.Millisecond
	})
}

// TestAggregatorRelaysUpstream is the transport-level tree property:
// a mid-tier aggregator's folds flow up to the root — including
// re-pushes of its sink segment as it grows — and a crash-kill plus
// restart of the mid tier loses nothing that was acked, duplicating
// harmlessly instead.
func TestAggregatorRelaysUpstream(t *testing.T) {
	root := newAggregator(t, t.TempDir(), func(c *AggregatorConfig) { c.NodeID = "root" })
	defer root.Close()
	rootSrv := httptest.NewServer(root)
	defer rootSrv.Close()

	midDir := t.TempDir()
	mid := fastTreeNode(t, midDir, "mid1", []string{rootSrv.URL}, nil)
	midSrv := httptest.NewServer(mid)
	defer midSrv.Close()

	// First sensor push folds at the mid tier and must relay to the
	// root.
	e1 := synthExport(t, "sensor-a", 71, 300)
	if got := post(t, midSrv.URL, encode(t, e1)); got != http.StatusOK {
		t.Fatalf("push 1 = %d", got)
	}
	want1 := encode(t, e1)
	waitFor(t, "first fold to reach the root", func() bool {
		return root.Export() != nil && bytes.Equal(encode(t, root.Export()), want1)
	})

	// Second push grows the mid tier's sink segment in place; the
	// grown segment must be re-pushed and the root must converge on
	// the two-export fold.
	e2 := synthExport(t, "sensor-b", 72, 300)
	if got := post(t, midSrv.URL, encode(t, e2)); got != http.StatusOK {
		t.Fatalf("push 2 = %d", got)
	}
	want12 := encode(t, foldAll(t, e1, e2))
	waitFor(t, "grown segment re-push to reach the root", func() bool {
		return bytes.Equal(encode(t, root.Export()), want12)
	})
	waitFor(t, "both relays acked in the mid tier's accounting", func() bool {
		pm, ok := mid.PushStats()
		return ok && pm.Acked >= 2
	})
	// The root saw relayed evidence: hops 2, via the mid node.
	if hops, via := root.route(); hops != 3 || len(via) != 2 || via[1] != "mid1" {
		t.Fatalf("root route = (%d, %v), want (3, [root mid1])", hops, via)
	}

	// Crash-kill the mid tier (no farewell checkpoint, no final
	// sweep), restart it on the same directory, and keep pushing: the
	// tree must converge on the full fold, with the restart's
	// re-pushed duplicates folding idempotently at the root.
	mid.Kill()
	midSrv.Close()
	mid2 := fastTreeNode(t, midDir, "mid1", []string{rootSrv.URL}, nil)
	defer mid2.Close()
	midSrv2 := httptest.NewServer(mid2)
	defer midSrv2.Close()
	if got := encode(t, mid2.Export()); !bytes.Equal(got, want12) {
		t.Fatal("mid-tier restart did not recover the acked fold")
	}

	e3 := synthExport(t, "sensor-c", 73, 300)
	if got := post(t, midSrv2.URL, encode(t, e3)); got != http.StatusOK {
		t.Fatalf("post-restart push = %d", got)
	}
	want123 := encode(t, foldAll(t, e1, e2, e3))
	waitFor(t, "post-restart fold to reach the root", func() bool {
		return bytes.Equal(encode(t, root.Export()), want123)
	})
}

// TestAggregatorRefusesDirectCycle wires two aggregators into a 2-loop
// (each the other's upstream) and proves the Via guard breaks it: the
// second hop is refused with 409, counted, and the states still
// converge on the pushed evidence instead of folding in circles.
func TestAggregatorRefusesDirectCycle(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()

	// Bring up B first as a plain node to learn its URL, then wire A
	// and B into the cycle via placeholder servers whose handlers can
	// be swapped after both exist.
	var aggA, aggB atomic.Pointer[Aggregator]
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a := aggA.Load(); a != nil {
			a.ServeHTTP(w, r)
			return
		}
		http.Error(w, "not up yet", http.StatusServiceUnavailable)
	}))
	defer srvA.Close()
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b := aggB.Load(); b != nil {
			b.ServeHTTP(w, r)
			return
		}
		http.Error(w, "not up yet", http.StatusServiceUnavailable)
	}))
	defer srvB.Close()

	a := fastTreeNode(t, dirA, "agg-a", []string{srvB.URL}, nil)
	defer a.Close()
	b := fastTreeNode(t, dirB, "agg-b", []string{srvA.URL}, nil)
	defer b.Close()
	aggA.Store(a)
	aggB.Store(b)

	ex := synthExport(t, "sensor-a", 81, 300)
	if got := post(t, srvA.URL, encode(t, ex)); got != http.StatusOK {
		t.Fatalf("push = %d", got)
	}
	// A folds and relays to B; B folds and tries to relay back to A,
	// whose Via guard must refuse the revisit.
	want := encode(t, ex)
	waitFor(t, "evidence to reach B", func() bool {
		return b.Export() != nil && bytes.Equal(encode(t, b.Export()), want)
	})
	waitFor(t, "A to refuse the cycled push", func() bool {
		return a.Metrics().Cycles >= 1
	})
	if !bytes.Equal(encode(t, a.Export()), want) {
		t.Fatal("cycle refusal corrupted A's state")
	}
}

// TestCompressionRatioEvidence pins the acceptance floor: the push
// encoding must cut a worm-outbreak evidence workload (many sources
// flooding alerts that share a few templates and fingerprints) to at
// most a third of its identity size.
func TestCompressionRatioEvidence(t *testing.T) {
	ex := foldAll(t,
		synthExport(t, "sensor-a", 91, 4000),
		synthExport(t, "sensor-b", 92, 4000),
		synthExport(t, "sensor-c", 93, 4000),
	)
	raw := encode(t, ex)
	wire := compressBytes(raw)
	if wire == nil {
		t.Fatal("compressBytes failed")
	}
	ratio := float64(len(raw)) / float64(len(wire))
	t.Logf("evidence workload: raw=%d wire=%d ratio=%.2fx", len(raw), len(wire), ratio)
	if ratio < 3.0 {
		t.Fatalf("compression ratio %.2fx on the evidence workload, want >= 3x", ratio)
	}
	// And the wire bytes decode back to the identical export.
	rd := compress.NewReader(bytes.NewReader(wire))
	var out bytes.Buffer
	if _, err := out.ReadFrom(rd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatal("round trip diverged")
	}
}

// BenchmarkCompressEvidence measures the push encoder over the same
// worm-outbreak evidence workload the ratio floor is pinned on.
func BenchmarkCompressEvidence(b *testing.B) {
	ex := foldAll(b,
		synthExport(b, "sensor-a", 91, 4000),
		synthExport(b, "sensor-b", 92, 4000),
		synthExport(b, "sensor-c", 93, 4000),
	)
	raw := encode(b, ex)
	var wire []byte
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = compressBytes(raw)
	}
	b.StopTimer()
	if wire == nil {
		b.Fatal("compressBytes failed")
	}
	b.ReportMetric(float64(len(raw))/float64(len(wire)), "ratio")
	_ = fmt.Sprintf("%d", len(wire))
}
