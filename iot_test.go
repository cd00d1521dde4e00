package nids

import (
	"bytes"
	"sort"
	"testing"

	"semnids/internal/netpkt"
	"semnids/internal/report"
	"semnids/internal/traffic"
)

// iotEngine builds a correlated engine over the standard test network,
// with datagram flows toggled.
func iotEngine(t *testing.T, shards int, dgramFlows bool) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:        shards,
		Correlate:     true,
		DatagramFlows: dgramFlows,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIoTBotnetRequiresDatagramFlows is the datagram acceptance case:
// an IoT botnet delivers its xor-encoded exploit as 16-byte CoAP
// Block1 datagrams. Per-packet analysis provably misses — no datagram
// holds the complete decoder loop — while the datagram-flow engine
// reassembles the transfer, matches the decryption-loop template, and
// correlates the outbreak into a full kill chain ending in
// PROPAGATION when victims re-spray the same bytes.
func TestIoTBotnetRequiresDatagramFlows(t *testing.T) {
	pkts := traffic.IoTBotnet(traffic.IoTSpec{Seed: 7})

	hasDecodeLoop := func(alerts []Alert) bool {
		for _, a := range alerts {
			if a.Detection.Template == "xor-decrypt-loop" {
				return true
			}
		}
		return false
	}

	// Per-packet baseline: the deliveries are invisible, so no source
	// can climb past RECON (the dark-space probes still register).
	off := iotEngine(t, 4, false)
	for _, p := range pkts {
		off.Process(clonePacket(p))
	}
	off.Stop()
	if hasDecodeLoop(off.Alerts()) {
		t.Fatal("per-packet analysis matched the block-split decoder; the payload no longer proves the need for datagram flows")
	}
	for _, inc := range off.Incidents() {
		if inc.Stage == StageExploit || inc.Stage == StagePropagation {
			t.Fatalf("per-packet incident reached %v without any detectable delivery", inc.Stage)
		}
	}

	// Datagram flows on: reassembled transfers expose the decoder.
	on := iotEngine(t, 4, true)
	for _, p := range pkts {
		on.Process(clonePacket(p))
	}
	on.Stop()
	if !hasDecodeLoop(on.Alerts()) {
		t.Fatal("datagram-flow engine did not match the decryption loop on the reassembled transfer")
	}
	var propagated []Incident
	for _, inc := range on.Incidents() {
		if inc.Stage == StagePropagation {
			propagated = append(propagated, inc)
		}
	}
	if len(propagated) == 0 {
		t.Fatalf("no IoT incident reached PROPAGATION: %v", on.Incidents())
	}
	for _, inc := range propagated {
		stages := map[IncidentStage]bool{}
		for _, tr := range inc.Transitions {
			stages[tr.Stage] = true
		}
		if !stages[StageRecon] || !stages[StageExploit] {
			t.Errorf("propagating IoT incident missing kill-chain stages: %v", inc.Transitions)
		}
	}
}

// TestIoTIncidentDeterminismAcrossShards extends the correlator's
// byte-determinism invariant to datagram flows: the rendered incident
// output over the IoT outbreak is byte-identical at every shard count
// (conversation-canonical dispatch keeps each exchange on one shard).
func TestIoTIncidentDeterminismAcrossShards(t *testing.T) {
	pkts := traffic.IoTBotnet(traffic.IoTSpec{Seed: 11, Generations: 2})
	var want string
	for _, shards := range []int{1, 2, 4} {
		e := iotEngine(t, shards, true)
		for _, p := range pkts {
			e.Process(clonePacket(p))
		}
		e.Stop()
		got := renderIncidents(t, e)
		if shards == 1 {
			want = got
			if got == "no correlated incidents\n" {
				t.Fatal("baseline IoT run produced no incidents")
			}
			continue
		}
		if got != want {
			t.Errorf("IoT incident set diverged at shards=%d\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestDatagramFlowsOffSuiteByteIdentical pins the feature flag's blast
// radius: over the existing suite traces (TCP exploits, single-datagram
// UDP), every rendered report — alerts and incidents — is
// byte-identical with datagram flows on and off. Only multi-datagram
// UDP payload conversations may ever read differently.
func TestDatagramFlowsOffSuiteByteIdentical(t *testing.T) {
	traces := map[string][]*netpkt.Packet{
		"paper-table3": traffic.Synthesize(traffic.TraceSpec{
			Seed: 11, BenignSessions: 60, CodeRedInstances: 3,
		}),
		"worm-outbreak": traffic.WormOutbreak(traffic.WormSpec{
			Seed: 7, Generations: 2, FanoutPerHost: 2,
		}),
	}
	render := func(pkts []*netpkt.Packet, dgramFlows bool) string {
		e := iotEngine(t, 2, dgramFlows)
		for _, p := range pkts {
			e.Process(clonePacket(p))
		}
		e.Stop()
		// Alerts() is in shard-scheduling order at two shards; the
		// set is what must not change, so render it in canonical
		// order (timestamp, 5-tuple, template).
		alerts := e.Alerts()
		sort.Slice(alerts, func(i, j int) bool {
			a, b := &alerts[i], &alerts[j]
			if a.TimestampUS != b.TimestampUS {
				return a.TimestampUS < b.TimestampUS
			}
			if c := a.Src.Compare(b.Src); c != 0 {
				return c < 0
			}
			if c := a.Dst.Compare(b.Dst); c != 0 {
				return c < 0
			}
			if a.SrcPort != b.SrcPort {
				return a.SrcPort < b.SrcPort
			}
			if a.DstPort != b.DstPort {
				return a.DstPort < b.DstPort
			}
			return a.Detection.Template < b.Detection.Template
		})
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, alerts); err != nil {
			t.Fatal(err)
		}
		buf.WriteString(renderIncidents(t, e))
		return buf.String()
	}
	for name, pkts := range traces {
		off := render(pkts, false)
		on := render(pkts, true)
		if off != on {
			t.Errorf("%s: datagram flows changed the report without any multi-datagram UDP conversation\noff:\n%s\non:\n%s",
				name, off, on)
		}
		if off == "" {
			t.Errorf("%s: empty report", name)
		}
	}
}
