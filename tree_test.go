package nids

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"semnids/internal/engine"
	"semnids/internal/fed/compress"
	"semnids/internal/fed/transport"
	"semnids/internal/fed/transport/faultnet"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// treeSensor builds a correlated engine pushing evidence at a mid-tier
// aggregator (compressed once the first ack advertises gzip), tuned for
// test cadence.
func treeSensor(t *testing.T, shards int, sensor, dir, url string, client *http.Client) *Engine {
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
		Push:              fastPush(client, url),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// midServer is one swappable mid-tier slot: sensors keep one URL while
// the aggregator behind it is crash-killed and restarted. While empty,
// pushes bounce off a retryable 503.
type midServer struct {
	cur atomic.Pointer[transport.Aggregator]
	srv *httptest.Server
}

func newMidServer(t *testing.T) *midServer {
	t.Helper()
	m := &midServer{}
	m.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if agg := m.cur.Load(); agg != nil {
			agg.ServeHTTP(w, r)
			return
		}
		http.Error(w, "mid tier down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(m.srv.Close)
	return m
}

// install brings up a mid-tier aggregator in this slot: its own sink
// directory is the upstream spool, folded segments relay (compressed
// once negotiated) to the upstreams in failover order through the
// (fault-injecting) client.
func (m *midServer) install(t *testing.T, dir, nodeID string, upstreams []string, client *http.Client, seed int64) *transport.Aggregator {
	t.Helper()
	up := fastPush(client, upstreams...)
	up.ProbeInterval, up.Seed = 25*time.Millisecond, seed
	agg, err := transport.NewAggregator(transport.AggregatorConfig{Dir: dir, NodeID: nodeID, Upstream: up})
	if err != nil {
		t.Fatal(err)
	}
	m.cur.Store(agg)
	return agg
}

// TestFederationTreeConvergesUnderFaults is the hierarchical-federation
// acceptance test: a worm trace split across four sensors pushing to
// two mid-tier aggregators that relay into one root must converge at
// the root to the byte-identical incident report of a solo all-seeing
// sensor — at shard counts 1, 2 and 4, with compressed segments on
// both tiers, under a seeded fault plan on every link (drops, mid-body
// truncations of compressed uploads, 5xx bursts, duplicates, latency),
// plus a crash-kill restart of one mid tier mid-stream, a partition
// window cutting the other mid tier off the root, and a dead primary
// upstream exercising mid-tier failover.
func TestFederationTreeConvergesUnderFaults(t *testing.T) {
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

		// Root tier: a plain aggregator, stable for the whole run.
		root, err := transport.NewAggregator(transport.AggregatorConfig{Dir: t.TempDir(), NodeID: "root"})
		if err != nil {
			t.Fatal(err)
		}
		rootSrv := httptest.NewServer(root)

		// A permanently dead primary upstream for mid-0: every push and
		// probe gets a 503, so mid-0 must fail over to the root and stay
		// there.
		dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "decommissioned", http.StatusServiceUnavailable)
		}))

		// Mid tier: both upstream links run the full fault plan; mid-1's
		// additionally takes a partition window (an outage swallowing a
		// span of its requests outright), so one whole subtree goes dark
		// mid-run and must spool-and-forward through it.
		midFT := [2]*faultnet.Transport{
			faultnet.New(nil, faultnet.Plan{
				Seed: 19, Drop: 0.15, Truncate: 0.1, Err: 0.1, Duplicate: 0.15, MaxLatency: 2 * time.Millisecond,
			}),
			faultnet.New(nil, faultnet.Plan{
				Seed: 23, Drop: 0.15, Truncate: 0.1, Err: 0.1, Duplicate: 0.15, MaxLatency: 2 * time.Millisecond,
				Outages: []faultnet.Outage{{After: 2, Requests: 8}},
			}),
		}
		midDirs := [2]string{t.TempDir(), t.TempDir()}
		midUpstreams := [2][]string{
			{dead.URL, rootSrv.URL}, // failover: dead primary, healthy root
			{rootSrv.URL},
		}
		mids := [2]*midServer{newMidServer(t), newMidServer(t)}
		midAggs := [2]*transport.Aggregator{}
		for i := range mids {
			midAggs[i] = mids[i].install(t, midDirs[i], []string{"mid-0", "mid-1"}[i],
				midUpstreams[i], &http.Client{Transport: midFT[i]}, int64(i+1))
		}

		// Sensor tier: four sensors, two per mid, each behind its own
		// seeded fault plan, all pushing compressed after their first ack.
		sensors := [4]*Engine{}
		for s := range sensors {
			ft := faultnet.New(nil, faultnet.Plan{
				Seed: int64(31 + s), Drop: 0.2, Truncate: 0.15, Err: 0.15, Duplicate: 0.15,
				MaxLatency: 2 * time.Millisecond,
			})
			sensors[s] = treeSensor(t, shards, []string{"sensor-a", "sensor-b", "sensor-c", "sensor-d"}[s],
				t.TempDir(), mids[s/2].srv.URL, &http.Client{Transport: ft})
		}
		route := func(ps []*netpkt.Packet) {
			for _, p := range ps {
				sensors[engine.FlowHash(netpkt.FlowKey{SrcIP: p.SrcIP}, 4)].Process(clonePacket(p))
			}
		}
		drainAll := func() {
			for _, e := range sensors {
				e.Drain()
			}
		}

		// First half, then crash-kill mid-0 while its subtree is mid-fold
		// — no farewell checkpoint, no final upstream sweep. Its sensors
		// bounce off 503s until the restart, then re-push everything
		// unacked; the restarted node re-relays from its recovered spool.
		route(pkts[:cut])
		drainAll()
		midAggs[0].Kill()
		mids[0].cur.Store(nil)
		midAggs[0] = mids[0].install(t, midDirs[0], "mid-0", midUpstreams[0], &http.Client{Transport: midFT[0]}, 1)

		route(pkts[cut:])
		drainAll()

		waitUntil(t, "root convergence on the solo report", func() bool {
			drainAll() // checkpoints are notification-driven
			st := root.Export()
			return st != nil && renderDerived(t, st) == want
		})

		// Every tier really exercised its faults inside gzip bodies.
		// Every push is gzip, and the root can converge through folds
		// whose acks the faults ate, so nudged checkpoints keep every
		// tier pushing until each has an ack.
		waitUntil(t, "a gzip ack on every pusher", func() bool {
			drainAll()
			for _, e := range sensors {
				if p := e.SinkStats().Push; p.Acked == 0 || p.WireBytes >= p.RawBytes {
					return false
				}
			}
			for _, agg := range midAggs {
				if pm, ok := agg.PushStats(); !ok || pm.Acked == 0 || pm.WireBytes >= pm.RawBytes {
					return false
				}
			}
			return true
		})
		for _, e := range sensors {
			e.Stop()
		}
		for i, agg := range midAggs {
			pm, _ := agg.PushStats()
			if i == 0 && (pm.Failovers == 0 || pm.ActiveUpstream != rootSrv.URL) {
				t.Errorf("shards=%d mid 0: failovers=%d active=%q, want failover off the dead primary onto %q",
					shards, pm.Failovers, pm.ActiveUpstream, rootSrv.URL)
			}
		}
		if c := midFT[1].Counts(); c.Outaged == 0 {
			t.Errorf("shards=%d: the partition window never fired: %+v", shards, c)
		}
		if m := root.Metrics(); m.Cycles != 0 || m.Merged == 0 {
			t.Errorf("shards=%d: root metrics %+v, want folds and no topology refusals", shards, m)
		}

		for _, agg := range midAggs {
			agg.Close()
		}
		root.Close()
		rootSrv.Close()
		dead.Close()
	}
}

// BenchmarkFederationCompressEvidence measures the gzip bytes-on-wire
// reduction on the worm-outbreak evidence workload — the segment body
// every tree tier pushes upstream when compression is negotiated. The
// published "ratio" metric (raw bytes / wire bytes) is the compressed
// federation's bandwidth claim; the acceptance floor is 3x.
func BenchmarkFederationCompressEvidence(b *testing.B) {
	pkts := traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 3, FanoutPerHost: 3})
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:    2,
		Correlate: true,
		SensorID:  "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	feed(e, pkts)
	e.Stop()
	var raw bytes.Buffer
	if err := e.ExportIncidents(&raw); err != nil {
		b.Fatal(err)
	}

	wire := 0
	b.SetBytes(int64(raw.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		w := compress.NewWriter(&out)
		if _, err := w.Write(raw.Bytes()); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		wire = out.Len()
	}
	b.StopTimer()
	if ratio := float64(raw.Len()) / float64(wire); ratio < 3 {
		b.Fatalf("compression ratio %.2fx on worm evidence, want >= 3x (raw=%d wire=%d)",
			ratio, raw.Len(), wire)
	} else {
		b.ReportMetric(ratio, "ratio")
	}
}
