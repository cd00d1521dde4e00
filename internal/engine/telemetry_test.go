package engine

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/telemetry"
)

// TestEngineTelemetryAllocFree is the instrumentation half of the
// ingest allocation pin: with a registry attached the hot path must
// still allocate (essentially) nothing per packet — the histograms
// are fixed atomic arrays and the wall-clock reads are amortized one
// per batch — and the series the instrumentation feeds must actually
// be populated by the traffic.
func TestEngineTelemetryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	pkts := ingestTrafficPackets(40)
	reg := telemetry.NewRegistry()
	e := New(Config{
		Classify:         classify.Config{Disabled: true},
		Shards:           1,
		VerdictCacheSize: -1,
		Telemetry:        reg,
	})
	defer e.Stop()

	run := func() {
		for _, p := range pkts {
			e.Process(p)
		}
		e.Drain()
	}
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	perPacket := allocs / float64(len(pkts))
	// Same budget as TestEngineIngestAllocs: telemetry must not move
	// the needle — a per-packet time.Now, label format or box on the
	// record path shows up as 1.0+/packet.
	if perPacket > 0.5 {
		t.Errorf("instrumented ingest allocates %.2f objects/packet (%.0f/run), budget 0.5",
			perPacket, allocs)
	}

	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, series := range []string{
		"semnids_engine_packets_total",
		"semnids_engine_unparsed_frames_total",
		"semnids_engine_shard_queue_depth{shard=\"0\"}",
		"semnids_engine_ingest_latency_ns_count",
		"semnids_analyzer_frame_ns_count",
		"semnids_analyzer_sweep_starts_total",
		"semnids_analyzer_sweep_starts_lifted_total",
	} {
		if !strings.Contains(expo, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	// The latency histograms must have observed real work, not just
	// registered empty.
	snap := e.Snapshot()
	if snap.Packets == 0 {
		t.Fatal("no packets processed")
	}
	if !strings.Contains(expo, "semnids_engine_packets_total "+strconv.FormatUint(snap.Packets, 10)) {
		t.Errorf("packets_total not reflecting engine counter %d:\n%s", snap.Packets, expo)
	}
	if !strings.Contains(expo, "semnids_analyzer_sweep_starts_total "+strconv.FormatUint(snap.SweepStarts, 10)) ||
		!strings.Contains(expo, "semnids_analyzer_sweep_starts_lifted_total "+strconv.FormatUint(snap.SweepStartsLifted, 10)) {
		t.Errorf("sweep-start counters not reflecting the analyzer's %d/%d:\n%s", snap.SweepStartsLifted, snap.SweepStarts, expo)
	}
}

// TestShardQueueGaugeExact pins the exact enqueue/dequeue accounting
// that replaced the old negative-clamp: the per-shard queue gauge is
// incremented for a whole batch before the channel send and
// decremented per packet as each completes, so a concurrent reader
// never observes a negative depth, and a drained engine always reads
// exactly zero.
func TestShardQueueGaugeExact(t *testing.T) {
	pkts := ingestTrafficPackets(60)
	e := New(Config{
		Classify:         classify.Config{Disabled: true},
		Shards:           2,
		VerdictCacheSize: -1,
	})
	defer e.Stop()

	var negative atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sh := range e.Snapshot().Shards {
				if sh.QueueLen < 0 {
					negative.Add(1)
				}
			}
		}
	}()

	for round := 0; round < 5; round++ {
		for _, p := range pkts {
			e.Process(p)
		}
		e.Drain()
		for i, sh := range e.Snapshot().Shards {
			if sh.QueueLen != 0 {
				t.Fatalf("round %d: shard %d queue gauge = %d after Drain, want 0", round, i, sh.QueueLen)
			}
		}
	}
	close(stop)
	wg.Wait()
	if n := negative.Load(); n != 0 {
		t.Errorf("observed %d negative queue-depth samples during ingest", n)
	}
}

// TestMetricsScrapeDuringIngest hammers the exposition endpoints from
// a scraper goroutine while the engine ingests — the -race
// configuration proves the atomic counters, GaugeFunc closures and
// histogram snapshots are safe against concurrent shard writes, and
// that a scrape never blocks or corrupts ingest.
func TestMetricsScrapeDuringIngest(t *testing.T) {
	pkts := ingestTrafficPackets(40)
	reg := telemetry.NewRegistry()
	e := New(Config{
		Classify:  classify.Config{Disabled: true},
		Shards:    2,
		Telemetry: reg,
	})
	defer e.Stop()

	srv := httptest.NewServer(telemetry.NewMux(reg, telemetry.NewHealth(), nil))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrapes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/statusz", "/healthz"} {
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				scrapes++
			}
		}
	}()

	for round := 0; round < 10; round++ {
		for _, p := range pkts {
			e.Process(p)
		}
		e.Drain()
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("scraper never completed a request")
	}
	if m := e.Snapshot(); m.Packets != uint64(10*len(pkts)) {
		t.Errorf("ingest lost packets under scrape load: %d of %d", m.Packets, 10*len(pkts))
	}
}
