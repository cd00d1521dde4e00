package nids

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"net/http/httptest"

	"semnids/internal/fed/transport"
	"semnids/internal/report"
	"semnids/internal/telemetry"
	"semnids/internal/traffic"
)

// scrapeBody fetches one observability endpoint and returns status
// plus body.
func scrapeBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestTelemetryEndToEndFederatedWorm is the observability acceptance
// test: a worm trace through a push-federated sensor must expose
// engine, correlator and transport series on the sensor's /metrics
// and fold/ack series on the aggregator's — scraped mid-run, while
// packets flow — and the merged report's incident timelines must
// close the loop with a finite first-packet → PROPAGATION → acked
// latency for every propagated incident.
func TestTelemetryEndToEndFederatedWorm(t *testing.T) {
	pkts := traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 2, FanoutPerHost: 2})
	cut := splitAtFlowBoundary(t, pkts, len(pkts)/2)

	agg, err := transport.NewAggregator(transport.AggregatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	// The aggregator serves the same telemetry mux fedagg mounts, with
	// /push layered on top — so this also covers the daemon's wiring.
	aggMux := telemetry.NewMux(agg.Telemetry(), nil, nil)
	aggMux.Handle("/push", agg)
	aggSrv := httptest.NewServer(aggMux)
	defer aggSrv.Close()

	sensor := pushEngine(t, 2, "sensor-a", t.TempDir(), aggSrv.URL+"/push", nil)
	defer sensor.Stop()
	sensorSrv := httptest.NewServer(sensor.TelemetryHandler())
	defer sensorSrv.Close()

	// First half of the outbreak, checkpointed and pushed: the scrape
	// below happens mid-run, with the engine live and more trace to come.
	feed(sensor, pkts[:cut])
	sensor.Drain()
	if err := sensor.CheckpointIncidents(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first acked push", func() bool { return sensor.SinkStats().Push.Acked > 0 })

	code, expo := scrapeBody(t, sensorSrv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("sensor /metrics status %d", code)
	}
	for _, series := range []string{
		"semnids_engine_packets_total",      // engine shards
		"semnids_engine_ingest_latency_ns",  // ingest→verdict histogram
		"semnids_analyzer_frame_ns",         // analyzer
		"semnids_incident_events_total",     // correlator
		"semnids_incident_stage_latency_us", // kill-chain stage transitions
		"semnids_sink_checkpoint_fsync_ns",  // durable sink
		"semnids_push_acked_total",          // push transport
		"semnids_push_rtt_ns",               // push RTT histogram
		"semnids_process_goroutines",        // process metrics
	} {
		if !strings.Contains(expo, series) {
			t.Errorf("sensor /metrics missing %s series", series)
		}
	}

	code, aggExpo := scrapeBody(t, aggSrv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("aggregator /metrics status %d", code)
	}
	for _, series := range []string{
		"semnids_agg_received_total",
		"semnids_agg_merged_total",
		"semnids_agg_push_fold_ns",
		"semnids_agg_fold_frames_total", // the live fold: folded / skipped frames,
		"semnids_agg_fold_records_reencoded_total",
		"semnids_agg_fold_memo_entries",
		"semnids_fed_frames_fallback_total",
		"semnids_sink_checkpoints_total", // the aggregator's own sink shares the registry
		"semnids_sink_groups_total",
	} {
		if !strings.Contains(aggExpo, series) {
			t.Errorf("aggregator /metrics missing %s series", series)
		}
	}

	// /statusz decodes to the shared snapshot document and carries the
	// sensor identity; /healthz is ready (spool recovered, engine live).
	code, statusz := scrapeBody(t, sensorSrv.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("sensor /statusz status %d", code)
	}
	var snap telemetry.StatusSnapshot
	if err := json.Unmarshal([]byte(statusz), &snap); err != nil {
		t.Fatalf("statusz not valid JSON: %v", err)
	}
	if snap.Info["sensor"] != "sensor-a" {
		t.Errorf("statusz sensor = %v, want sensor-a", snap.Info["sensor"])
	}
	if snap.Counters["semnids_engine_packets_total"] == 0 {
		t.Error("statusz shows zero packets mid-run")
	}
	if code, _ := scrapeBody(t, sensorSrv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("sensor /healthz = %d mid-run, want 200", code)
	}

	// The rest of the outbreak, synced to the aggregator.
	feed(sensor, pkts[cut:])
	sensor.Drain()
	if err := sensor.CheckpointIncidents(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "full spool sync", sensor.PushSynced)

	st := agg.Export()
	if st == nil {
		t.Fatal("aggregator holds no evidence")
	}
	incidents, err := DeriveIncidents(st)
	if err != nil {
		t.Fatal(err)
	}
	agg.AnnotateTimelines(incidents)

	propagated := 0
	for _, inc := range incidents {
		if inc.Stage != StagePropagation {
			continue
		}
		propagated++
		var firstUS, propUS uint64
		ackedWall := false
		var ackedAtUS uint64
		for _, ev := range inc.Timeline {
			switch ev.Kind {
			case "first-packet":
				firstUS = ev.AtUS
			case "propagation":
				propUS = ev.AtUS
			case "acked":
				ackedWall = ev.Wall
				ackedAtUS = ev.AtUS
			}
		}
		// Finite packet → PROPAGATION → acked chain: the stage
		// transition is trace time ordered after the first packet, and
		// the ack is a real wall-clock stamp from the aggregator.
		if firstUS == 0 || propUS < firstUS {
			t.Errorf("%s: timeline lacks ordered first-packet(%d) → propagation(%d)", inc.Src, firstUS, propUS)
		}
		if !ackedWall || ackedAtUS == 0 {
			t.Errorf("%s: timeline lacks a wall-clock acked event (wall=%v at=%d)", inc.Src, ackedWall, ackedAtUS)
		}
	}
	if propagated == 0 {
		t.Fatal("outbreak produced no PROPAGATION incident")
	}

	// The rendered merged report carries the annotated timelines.
	var buf bytes.Buffer
	if err := report.WriteIncidentsJSON(&buf, incidents); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"first-packet"`, `"kind":"propagation"`, `"kind":"acked"`, `"wall":true`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("merged JSONL report missing %s", want)
		}
	}
}
