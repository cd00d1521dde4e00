package nids

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"semnids/internal/engine"
	"semnids/internal/fed/transport"
	"semnids/internal/fed/transport/faultnet"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// pushEngine builds a correlated engine with a durable sink and the
// push transport, tuned for test cadence.
func pushEngine(t *testing.T, shards int, sensor, dir, url string, client *http.Client) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:            shards,
		Correlate:         true,
		SensorID:          sensor,
		IncidentExportDir: dir,
		PushURL:           url,
		PushClient:        client,
		PushInterval:      10 * time.Millisecond,
		PushTimeout:       2 * time.Second,
		PushBackoffMin:    5 * time.Millisecond,
		PushBackoffMax:    40 * time.Millisecond,
		PushSeed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// aggServer wraps an aggregator behind a swappable pointer so tests
// can crash-kill and restart the aggregator without changing the URL
// the sensors push to. While no aggregator is installed, pushes get a
// retryable 503 — the outage window.
type aggServer struct {
	cur atomic.Pointer[transport.Aggregator]
	srv *httptest.Server
}

func newAggServer(t *testing.T, dir string) *aggServer {
	t.Helper()
	a := &aggServer{}
	a.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		agg := a.cur.Load()
		if agg == nil {
			http.Error(w, "aggregator down", http.StatusServiceUnavailable)
			return
		}
		agg.ServeHTTP(w, r)
	}))
	t.Cleanup(a.srv.Close)
	a.install(t, dir)
	return a
}

func (a *aggServer) install(t *testing.T, dir string) *transport.Aggregator {
	t.Helper()
	agg, err := transport.NewAggregator(transport.AggregatorConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a.cur.Store(agg)
	return agg
}

// waitUntil polls cond with a generous deadline (fault schedules and
// backoff make individual attempts slow on a loaded machine).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFederationPushConvergesUnderFaults is the transport acceptance
// test: a worm trace split across two push-federated sensors must
// converge at the aggregator to the byte-identical incident report of
// a solo sensor — at shard counts 1, 2 and 4, through a fault plan
// injecting drops, mid-body truncations, 5xx bursts, duplicates and
// latency on a fixed seed, and across a kill-style aggregator restart
// in the middle of the stream.
func TestFederationPushConvergesUnderFaults(t *testing.T) {
	pkts := traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 2, FanoutPerHost: 2})
	cut := splitAtFlowBoundary(t, pkts, len(pkts)/2)

	for _, shards := range []int{1, 2, 4} {
		solo := federatedEngine(t, shards, "solo", "")
		feed(solo, pkts)
		solo.Stop()
		want := renderIncidents(t, solo)
		if want == "no correlated incidents\n" {
			t.Fatal("baseline run produced no incidents")
		}

		aggDir := t.TempDir()
		as := newAggServer(t, aggDir)
		ft := faultnet.New(nil, faultnet.Plan{
			Seed:       11,
			Drop:       0.2,
			Truncate:   0.15,
			Err:        0.15,
			Duplicate:  0.15,
			MaxLatency: 2 * time.Millisecond,
		})
		client := &http.Client{Transport: ft}

		sensors := [2]*Engine{
			pushEngine(t, shards, "sensor-a", t.TempDir(), as.srv.URL, client),
			pushEngine(t, shards, "sensor-b", t.TempDir(), as.srv.URL, client),
		}
		route := func(ps []*netpkt.Packet) {
			for _, p := range ps {
				sensors[engine.FlowHash(netpkt.FlowKey{SrcIP: p.SrcIP}, 2)].Process(clonePacket(p))
			}
		}

		// First half, then a kill-style aggregator restart mid-stream:
		// no final checkpoint, no flush — recovery must come from the
		// durably acked folds alone.
		route(pkts[:cut])
		sensors[0].Drain()
		sensors[1].Drain()
		as.cur.Load().Kill()
		as.cur.Store(nil) // outage: pushes bounce off a 503 until restart
		restarted := as.install(t, aggDir)

		route(pkts[cut:])
		sensors[0].Drain()
		sensors[1].Drain()

		waitUntil(t, "aggregator convergence on the solo report", func() bool {
			st := restarted.Export()
			return st != nil && renderDerived(t, st) == want
		})
		for _, e := range sensors {
			// The aggregator can converge on a fold whose ack the fault
			// plan dropped; the sensor's retry then collects it. The
			// first ack teaches the pusher gzip, so a nudged checkpoint
			// afterwards goes compressed: drops and truncations land
			// inside compressed bodies too.
			waitUntil(t, "an acked compressed push from each sensor", func() bool {
				p := e.SinkStats().Push
				if p.Compressed == 0 {
					e.Drain()
				}
				return p.Acked > 0 && p.Compressed > 0
			})
			e.Stop()
		}
		if c := ft.Counts(); c.Drops == 0 && c.Truncations == 0 && c.Errs == 0 && c.Duplicates == 0 {
			t.Errorf("shards=%d: fault plan injected nothing: %+v", shards, c)
		}
		restarted.Close()
	}
}

// TestFederationPushDegradation pins the unreachable-aggregator
// contract: ingest continues at full rate, the sink's segment
// directory spools, retries back off with the state visible in
// SinkStats, and — with a small retention budget — prune eventually
// outruns push and the Dropped counter says so. When the aggregator
// comes back, the newest full-snapshot checkpoint still delivers the
// complete evidence: degradation cost lag, not the report.
func TestFederationPushDegradation(t *testing.T) {
	pkts := traffic.WormOutbreak(traffic.WormSpec{Seed: 13, Generations: 2, FanoutPerHost: 2})
	aggDir := t.TempDir()
	as := newAggServer(t, aggDir)
	as.cur.Load().Close()
	as.cur.Store(nil) // aggregator down from the start

	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:            2,
		Correlate:         true,
		SensorID:          "sensor-a",
		IncidentExportDir: t.TempDir(),
		// A one-byte rotation budget forces a fresh segment per
		// checkpoint, and the two-segment retention floor prunes
		// aggressively — the smallest spool the sink allows.
		IncidentExportRotateBytes: 1,
		IncidentKeepSegments:      2,
		PushURL:                   as.srv.URL,
		PushInterval:              5 * time.Millisecond,
		PushTimeout:               time.Second,
		PushBackoffMin:            5 * time.Millisecond,
		PushBackoffMax:            20 * time.Millisecond,
		PushSeed:                  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, pkts)

	// Ingest never stalled: the engine processed the full trace while
	// every push failed.
	if m := e.Stats(); m.Packets != uint64(len(pkts)) {
		t.Fatalf("ingest degraded with the aggregator down: %d of %d packets", m.Packets, len(pkts))
	}
	// Drain inside the poll: checkpoints are notification-driven, and
	// feed() only processes packets — without a nudge the first
	// checkpoint (and thus the first spooled segment) would wait for
	// the sink's 10s periodic tick.
	waitUntil(t, "spool and backoff visible in stats", func() bool {
		e.Drain()
		p := e.SinkStats().Push
		return p.Retried > 0 && p.Backoff > 0 && p.Spooled > 0 && p.LastError != ""
	})
	// Keep checkpointing until rotation prunes an unacked segment.
	waitUntil(t, "prune to outrun push (Dropped counter)", func() bool {
		e.Drain()
		return e.SinkStats().Push.Dropped > 0
	})

	// Aggregator comes back: catch-up drains the spool, resets the
	// backoff, and the newest full snapshot carries everything the
	// pruned segments held.
	restarted := as.install(t, aggDir)
	waitUntil(t, "catch-up after recovery", func() bool {
		st := restarted.Export()
		return st != nil && renderDerived(t, st) == renderIncidents(t, e) && e.PushSynced()
	})
	if p := e.SinkStats().Push; p.Backoff != 0 || p.LastError != "" {
		t.Errorf("post-recovery push state not reset: %+v", p)
	}
	e.Stop()
	restarted.Close()
}

// TestClassifierStatePersistsAcrossRestart is the classifier-counter
// satellite: sub-threshold dark-space scan counts and honeypot
// suspicion marks ride the exported segments, so a slow scanner does
// not get a fresh start at zero by waiting for a sensor restart.
func TestClassifierStatePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	scanner := netip.MustParseAddr("10.9.9.9")
	lurker := netip.MustParseAddr("10.8.8.8")
	dark := func(last byte) netip.Addr {
		base := traffic.DarkNet.Addr().As4()
		return netip.AddrFrom4([4]byte{base[0], base[1], base[2], last})
	}
	probe := func(src, dst netip.Addr, port uint16, ts uint64) *netpkt.Packet {
		return &netpkt.Packet{
			SrcIP: src, DstIP: dst, Proto: netpkt.ProtoTCP, HasTCP: true,
			SrcPort: port, DstPort: 80, Flags: netpkt.FlagSYN, TimestampUS: ts,
		}
	}

	// First life: two dark touches (threshold is 3) and one honeypot
	// contact — all below any alert, pure classifier state.
	first := federatedEngine(t, 2, "sensor-a", dir)
	first.Process(probe(scanner, dark(10), 40001, 1000))
	first.Process(probe(scanner, dark(11), 40002, 2000))
	first.Process(probe(lurker, traffic.HoneypotAddr, 40003, 3000))
	first.Drain()
	if sel := first.Stats().Selected; sel != 1 {
		t.Fatalf("first life selected = %d, want only the honeypot contact", sel)
	}
	first.Stop()

	// Second life, same directory: the third distinct dark touch must
	// complete the scanner verdict, and the honeypot lurker must still
	// be suspicious — both verdicts depend entirely on recovered state.
	second := federatedEngine(t, 2, "sensor-a", dir)
	second.Process(probe(scanner, dark(12), 40004, 4000))
	second.Process(probe(lurker, traffic.WebServer, 40005, 5000))
	second.Drain()
	if sel := second.Stats().Selected; sel != 2 {
		t.Errorf("restarted sensor selected = %d, want the scanner and the suspicious lurker", sel)
	}
	second.Stop()

	// Control: a fresh sensor with no recovered state selects neither.
	control := federatedEngine(t, 2, "sensor-b", "")
	control.Process(probe(scanner, dark(12), 40004, 4000))
	control.Process(probe(lurker, traffic.WebServer, 40005, 5000))
	control.Drain()
	if sel := control.Stats().Selected; sel != 0 {
		t.Errorf("control sensor selected = %d, want 0", sel)
	}
	control.Stop()
}

// TestClassifierEvidenceFederates: classifier state from two sensors
// folds through the wire format and seeds a third engine — the same
// union a restart performs, one level up.
func TestClassifierEvidenceFederates(t *testing.T) {
	scanner := netip.MustParseAddr("10.9.9.9")
	dark := func(last byte) netip.Addr {
		base := traffic.DarkNet.Addr().As4()
		return netip.AddrFrom4([4]byte{base[0], base[1], base[2], last})
	}
	probe := func(dst netip.Addr, port uint16, ts uint64) *netpkt.Packet {
		return &netpkt.Packet{
			SrcIP: scanner, DstIP: dst, Proto: netpkt.ProtoTCP, HasTCP: true,
			SrcPort: port, DstPort: 80, Flags: netpkt.FlagSYN, TimestampUS: ts,
		}
	}

	// Two vantage points each see one distinct dark touch.
	a := federatedEngine(t, 2, "sensor-a", "")
	a.Process(probe(dark(10), 40001, 1000))
	a.Drain()
	b := federatedEngine(t, 2, "sensor-b", "")
	b.Process(probe(dark(11), 40002, 2000))
	b.Drain()
	exA, exB := exportOf(t, a), exportOf(t, b)
	a.Stop()
	b.Stop()
	if len(exA.Classifier) != 1 || len(exB.Classifier) != 1 {
		t.Fatalf("classifier evidence not exported: a=%d b=%d records", len(exA.Classifier), len(exB.Classifier))
	}

	merged, err := MergeEvidence(exA, exB)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEvidence(&buf, merged); err != nil {
		t.Fatal(err)
	}

	// A third sensor seeded with the merged evidence holds both dark
	// touches: its next distinct touch completes the verdict.
	c := federatedEngine(t, 2, "sensor-c", "")
	if err := c.ImportIncidents(&buf); err != nil {
		t.Fatal(err)
	}
	c.Process(probe(dark(12), 40003, 3000))
	c.Drain()
	if sel := c.Stats().Selected; sel != 1 {
		t.Errorf("seeded sensor selected = %d, want the union-completed scanner", sel)
	}
	c.Stop()
}
