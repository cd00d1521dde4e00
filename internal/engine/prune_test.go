package engine_test

import (
	"reflect"
	"slices"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/engine"
	"semnids/internal/incident"
	"semnids/internal/traffic"
)

// This file is an external test package: the correlator (incident)
// imports lineage, which imports engine.

// TestSweepPruneOnTraffic pins the sweep-start prune where it matters,
// on whole traces through reassembly and extraction. Benign
// HTTP/SMTP/FTP/POP3 payloads with the classifier off: at most 1 % of
// the sweep starts the analyzer considers are lifted (0.12 % measured)
// — protocol text decodes as xor/inc/jcc but not with a decryption
// loop's operand shapes. A polymorphic outbreak: pruning loses no
// delivery, alert for alert against the unpruned analyzer, and lifts
// at most half the starts. Every frame there carries a getpc call;
// once offset 0 has found the decoder, the remaining templates are
// not viable in either instruction order at the other offsets. An IoT
// botnet with datagram flows and correlation on: pruning (the byte
// witness and its cache bypass with it) changes no alert and no
// incident, and at least 90 % of the frames are witness-rejected — the
// benign CoAP readings whose marker and token bytes used to satisfy
// the witness.
func TestSweepPruneOnTraffic(t *testing.T) {
	e := engine.New(engine.Config{Classify: classify.Config{Disabled: true}, Shards: 2})
	for _, p := range traffic.Synthesize(traffic.TraceSpec{Seed: 14, BenignSessions: 2000}) {
		e.Process(p)
	}
	e.Stop()
	m := e.Snapshot()
	if m.SweepStarts < 1000 {
		t.Fatalf("%d sweep starts considered over 2000 benign sessions; the trace reaches the analyzer too rarely to pin a share", m.SweepStarts)
	}
	if m.SweepStartsLifted*100 > m.SweepStarts {
		t.Errorf("benign traffic: %d of %d sweep starts lifted, want at most 1 %%", m.SweepStartsLifted, m.SweepStarts)
	}

	outbreak := traffic.PolymorphOutbreak(traffic.PolymorphSpec{Seed: 14, Generations: 3, FanoutPerHost: 3})
	run := func(prune bool) ([]string, engine.Metrics) {
		e := engine.New(engine.Config{Classify: engine.TestClassify(), Shards: 1})
		engine.SetSweepPrune(e, prune) // before the first packet reaches a shard
		for _, p := range outbreak {
			e.Process(p)
		}
		e.Stop()
		return engine.AlertSet(e.Alerts()), e.Snapshot()
	}
	want, _ := run(false)
	got, pm := run(true)
	if len(want) == 0 {
		t.Fatal("unpruned analyzer raised no alert on the outbreak; trace spec is wrong")
	}
	if !slices.Equal(got, want) {
		t.Errorf("outbreak: pruned alerts diverged\n got: %v\nwant: %v", got, want)
	}
	if pm.SweepStartsLifted == 0 || pm.SweepStartsLifted*2 > pm.SweepStarts {
		t.Errorf("outbreak: %d of %d sweep starts lifted, want at most half", pm.SweepStartsLifted, pm.SweepStarts)
	}
	t.Logf("outbreak: %d of %d sweep starts lifted", pm.SweepStartsLifted, pm.SweepStarts)

	botnet := traffic.IoTBotnet(traffic.IoTSpec{Seed: 14, Generations: 2, FanoutPerHost: 3, BenignSessions: 40})
	runIoT := func(prune bool) ([]string, []incident.Incident, engine.Metrics) {
		corr := incident.New(incident.Config{})
		defer corr.Stop()
		e := engine.New(engine.Config{Classify: classify.Config{Disabled: true}, Shards: 1, DatagramFlows: true, OnEvent: corr.Publish})
		engine.SetSweepPrune(e, prune)
		for _, p := range botnet {
			e.Process(p)
		}
		engine.StopAndCheck(t, e)
		corr.Flush()
		return engine.AlertSet(e.Alerts()), corr.Incidents(), e.Snapshot()
	}
	wantAlerts, wantIncs, um := runIoT(false)
	gotAlerts, gotIncs, im := runIoT(true)
	if len(wantAlerts) == 0 || len(wantIncs) == 0 {
		t.Fatalf("botnet: %d alerts, %d incidents unpruned; trace spec is wrong", len(wantAlerts), len(wantIncs))
	}
	if !slices.Equal(gotAlerts, wantAlerts) {
		t.Errorf("botnet: pruned alerts diverged\n got: %v\nwant: %v", gotAlerts, wantAlerts)
	}
	if !reflect.DeepEqual(gotIncs, wantIncs) {
		t.Errorf("botnet: pruned incidents diverged\n got: %+v\nwant: %+v", gotIncs, wantIncs)
	}
	if um.WitnessRejected != 0 {
		t.Errorf("botnet: %d frames witness-rejected with the prune off", um.WitnessRejected)
	}
	if im.WitnessRejected*10 < im.Frames*9 {
		t.Errorf("botnet: %d of %d frames witness-rejected, want at least 90 %%", im.WitnessRejected, im.Frames)
	}
	t.Logf("botnet: %d of %d frames witness-rejected, %d cache misses (%d unpruned)", im.WitnessRejected, im.Frames, im.CacheMisses, um.CacheMisses)
}
