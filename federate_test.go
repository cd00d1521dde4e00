package nids

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"semnids/internal/engine"
	"semnids/internal/fed"
	"semnids/internal/netpkt"
	"semnids/internal/report"
	"semnids/internal/traffic"
)

// federatedEngine builds a correlated engine with an optional sensor
// ID and durable export directory.
func federatedEngine(t *testing.T, shards int, sensor, exportDir string) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:            shards,
		Correlate:         true,
		SensorID:          sensor,
		IncidentExportDir: exportDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// exportOf round-trips an engine's evidence through the wire format,
// so every federation test also exercises the encoder and decoder.
func exportOf(t *testing.T, e *Engine) *EvidenceExport {
	t.Helper()
	var buf bytes.Buffer
	if err := e.ExportIncidents(&buf); err != nil {
		t.Fatal(err)
	}
	ex, err := ReadEvidence(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// renderDerived renders an export's derived incident list exactly
// the way renderIncidents renders a live engine's, for byte
// comparison.
func renderDerived(t *testing.T, ex *EvidenceExport) string {
	t.Helper()
	incs, err := DeriveIncidents(ex)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteIncidents(&buf, incs); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteIncidentsJSON(&buf, incs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// feed pushes cloned packets through the engine.
func feed(e *Engine, pkts []*netpkt.Packet) {
	for _, p := range pkts {
		e.Process(clonePacket(p))
	}
}

// TestFederationSplitsByteIdentical is the splits acceptance test:
// one worm-outbreak trace through a single sensor vs. partitioned by
// flow across two sensors whose evidence exports are then merged —
// the rendered incident reports must be byte-identical, at every
// shard count. It extends TestIncidentDeterminismAcrossShards from
// the shard layer to the federation layer: the same commutative-
// evidence property, one level up.
func TestFederationSplitsByteIdentical(t *testing.T) {
	pkts := traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 2, FanoutPerHost: 2})
	for _, shards := range []int{1, 2, 4} {
		solo := federatedEngine(t, shards, "solo", "")
		feed(solo, pkts)
		solo.Stop()
		want := renderIncidents(t, solo)
		if want == "no correlated incidents\n" {
			t.Fatal("baseline run produced no incidents")
		}

		// Partition by source — the egress-tap model: each sensor
		// watches a disjoint set of hosts, so every host's scans and
		// deliveries stay at one vantage (classification sees what a
		// single sensor would) while every propagation link straddles
		// the cut — the attacker's delivery is one sensor's evidence,
		// its victim's re-emission the other's, and only the merge can
		// close them.
		sensors := [2]*Engine{
			federatedEngine(t, shards, "sensor-a", ""),
			federatedEngine(t, shards, "sensor-b", ""),
		}
		for _, p := range pkts {
			sensors[engine.FlowHash(netpkt.FlowKey{SrcIP: p.SrcIP}, 2)].Process(clonePacket(p))
		}
		var exports [2]*EvidenceExport
		for i, e := range sensors {
			e.Stop()
			exports[i] = exportOf(t, e)
		}

		merged, err := MergeEvidence(exports[0], exports[1])
		if err != nil {
			t.Fatal(err)
		}
		got := renderDerived(t, merged)
		if got != want {
			t.Errorf("shards=%d: split-then-merged incidents diverged from the single sensor:\n got:\n%s\nwant:\n%s",
				shards, got, want)
		}

		// Merge symmetry on the real trace, compared on rendered bytes.
		flipped, err := MergeEvidence(exports[1], exports[0])
		if err != nil {
			t.Fatal(err)
		}
		if renderDerived(t, flipped) != got {
			t.Errorf("shards=%d: Merge(B,A) rendered differently from Merge(A,B)", shards)
		}
		if got, want := fmt.Sprint(merged.Sensors), "[sensor-a sensor-b]"; got != want {
			t.Errorf("merged sensors = %s, want %s", got, want)
		}
	}
}

// TestSensorIDUTF8: NewEngine refuses a SensorID that is not valid
// UTF-8 (it would reach the wire as U+FFFD), and a valid non-ASCII one
// round-trips through WriteEvidence and ReadEvidence, every frame read
// by the canonical decoder.
func TestSensorIDUTF8(t *testing.T) {
	_, err := NewEngine(EngineConfig{Correlate: true, SensorID: "sensor-\xff"})
	if err == nil || !strings.Contains(err.Error(), "SensorID") {
		t.Fatalf("SensorID sensor-\\xff: %v, want an error naming SensorID", err)
	}

	const id = "sensör-東京"
	e := federatedEngine(t, 1, id, "")
	feed(e, traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 1, FanoutPerHost: 2}))
	e.Stop()
	var wire bytes.Buffer
	if err := e.ExportIncidents(&wire); err != nil {
		t.Fatal(err)
	}
	ex, err := ReadEvidence(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ex.Sensors); got != "["+id+"]" || len(ex.Sources) == 0 {
		t.Fatalf("read back sensors %s over %d sources, want [%s] over some", got, len(ex.Sources), id)
	}
	var again bytes.Buffer
	if err := WriteEvidence(&again, ex); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), wire.Bytes()) {
		t.Error("the export read back re-encodes to other bytes")
	}
	st := fed.NewState()
	if _, err := st.Fold(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().FramesFallback; n != 0 {
		t.Errorf("%d frames fell back to encoding/json", n)
	}
}

// splitAtFlowBoundary finds the smallest index >= target at which no
// flow straddles the cut, so a restart at the boundary loses no
// reassembly state and the two halves carry a clean partition of the
// trace's flows.
func splitAtFlowBoundary(t *testing.T, pkts []*netpkt.Packet, target int) int {
	t.Helper()
	last := make(map[netpkt.FlowKey]int)
	for i, p := range pkts {
		last[p.Flow()] = i
		last[p.Flow().Reverse()] = i
	}
	cut := target
	for moved := true; moved; {
		moved = false
		for i := 0; i < cut; i++ {
			if l := last[pkts[i].Flow()]; l >= cut {
				cut = l + 1
				moved = true
			}
		}
	}
	if cut <= 0 || cut >= len(pkts) {
		t.Fatalf("no flow boundary at or after %d (got %d of %d)", target, cut, len(pkts))
	}
	return cut
}

// stageBySource maps each incident source to its final kill-chain
// stage.
func stageBySource(incs []Incident) map[string]string {
	out := make(map[string]string, len(incs))
	for _, inc := range incs {
		out[inc.Src.String()] = inc.Stage.String()
	}
	return out
}

// TestFederationRestartRecovery is the restart acceptance test: a
// sensor with a durable sink is stopped mid-trace and a new engine is
// started on the same export directory. Recovery must reload the
// newest complete segment so the restarted sensor re-derives the same
// final stage per source as an uninterrupted run — in fact the full
// rendered report must match, since export/import is lossless and the
// evidence folds are commutative.
func TestFederationRestartRecovery(t *testing.T) {
	pkts := traffic.WormOutbreak(traffic.WormSpec{Seed: 11, Generations: 2, FanoutPerHost: 2})
	cut := splitAtFlowBoundary(t, pkts, len(pkts)/2)
	dir := t.TempDir()

	baseline := federatedEngine(t, 2, "sensor-a", "")
	feed(baseline, pkts)
	baseline.Stop()
	want := renderIncidents(t, baseline)
	wantStages := stageBySource(baseline.Incidents())
	if len(wantStages) == 0 {
		t.Fatal("baseline run produced no incidents")
	}

	// First life: half the trace, then Stop — which checkpoints the
	// evidence through the sink.
	first := federatedEngine(t, 2, "sensor-a", dir)
	feed(first, pkts[:cut])
	first.Stop()
	if m := first.SinkStats(); m.Checkpoints == 0 || m.Errors != 0 {
		t.Fatalf("first life sink metrics = %+v, want checkpoints and no errors", m)
	}
	midStages := stageBySource(first.Incidents())

	// Second life: recovery happens inside NewEngine, then the rest of
	// the trace streams through.
	second := federatedEngine(t, 2, "sensor-a", dir)
	if got := stageBySource(second.Incidents()); fmt.Sprint(got) != fmt.Sprint(midStages) {
		t.Fatalf("recovered stages = %v, want the first life's %v", got, midStages)
	}
	feed(second, pkts[cut:])
	second.Stop()

	if got := renderIncidents(t, second); got != want {
		t.Errorf("restarted sensor's report diverged from the uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
	gotStages := stageBySource(second.Incidents())
	for src, stage := range wantStages {
		if gotStages[src] != stage {
			t.Errorf("source %s: restarted stage = %q, want %q", src, gotStages[src], stage)
		}
	}
}

// TestFederationImportSeedsLiveEngine exercises the
// -import-incidents path: a fresh engine seeded with another run's
// export, then fed the remainder of the trace, matches the
// uninterrupted baseline — stage for stage and byte for byte.
func TestFederationImportSeedsLiveEngine(t *testing.T) {
	pkts := traffic.WormOutbreak(traffic.WormSpec{Seed: 5, Generations: 2, FanoutPerHost: 2})
	cut := splitAtFlowBoundary(t, pkts, len(pkts)/2)

	baseline := federatedEngine(t, 2, "sensor-a", "")
	feed(baseline, pkts)
	baseline.Stop()
	want := renderIncidents(t, baseline)

	first := federatedEngine(t, 2, "sensor-a", "")
	feed(first, pkts[:cut])
	first.Stop()
	var buf bytes.Buffer
	if err := first.ExportIncidents(&buf); err != nil {
		t.Fatal(err)
	}

	second := federatedEngine(t, 2, "sensor-a", "")
	if err := second.ImportIncidents(&buf); err != nil {
		t.Fatal(err)
	}
	feed(second, pkts[cut:])
	second.Stop()
	if got := renderIncidents(t, second); got != want {
		t.Errorf("seeded engine's report diverged from the uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}
