package nids

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"semnids/internal/netpkt"
	"semnids/internal/report"
	"semnids/internal/traffic"
)

// correlatedEngine builds an engine with the incident correlator
// attached, using the standard test network layout.
func correlatedEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:    shards,
		Correlate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// renderIncidents renders the full correlator output — table and
// JSONL, including stage transitions — for byte comparison.
func renderIncidents(t *testing.T, e *Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteIncidents(&buf, e.Incidents()); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteIncidentsJSON(&buf, e.Incidents()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestIncidentDeterminismAcrossShards is the correlator's version of
// the engine's alert-determinism invariant: the rendered incident set
// (stage transitions included) and the evidence export are
// byte-identical across shard counts and across repeated runs, even
// though shard events interleave differently on every run. The IoT
// botnet runs with datagram flows and a short idle window, so flows
// are evicted mid-trace at times that vary with the shard count.
func TestIncidentDeterminismAcrossShards(t *testing.T) {
	traces := []struct {
		name  string
		pkts  []*netpkt.Packet
		dgram bool
	}{
		{"paper-table3", traffic.Synthesize(traffic.TraceSpec{
			Seed: 11, BenignSessions: 60, CodeRedInstances: 3,
		}), false},
		{"worm-outbreak", traffic.WormOutbreak(traffic.WormSpec{
			Seed: 7, Generations: 2, FanoutPerHost: 2,
		}), false},
		{"iot-botnet", traffic.IoTBotnet(traffic.IoTSpec{
			Seed: 11, Generations: 3, FanoutPerHost: 3,
		}), true},
	}
	for _, tr := range traces {
		var want, wantExport string
		// Shards 2 twice: one shard count, two interleavings.
		for i, shards := range []int{1, 2, 4, 2} {
			cfg := EngineConfig{
				Config: Config{
					Honeypots: []string{traffic.HoneypotAddr.String()},
					DarkSpace: []string{traffic.DarkNet.String()},
				},
				Shards:    shards,
				Correlate: true,
			}
			if tr.dgram {
				cfg.DatagramFlows, cfg.DatagramIdle = true, 2*time.Second
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tr.pkts {
				e.Process(clonePacket(p))
			}
			e.Stop()
			got := renderIncidents(t, e)
			var export bytes.Buffer
			if err := e.ExportIncidents(&export); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want, wantExport = got, export.String()
				if got == "no correlated incidents\n" {
					t.Fatalf("%s: baseline run produced no incidents", tr.name)
				}
				continue
			}
			if got != want {
				t.Errorf("%s: incident set diverged at shards=%d (run %d)\n got:\n%s\nwant:\n%s",
					tr.name, shards, i+1, got, want)
			}
			if export.String() != wantExport {
				t.Errorf("%s: evidence export diverged at shards=%d (run %d): %d bytes, shards=1 wrote %d",
					tr.name, shards, i+1, export.Len(), len(wantExport))
			}
		}
	}
}

// clonePacket deep-copies the mutable payload so repeated engine runs
// over one synthesized trace cannot alias each other's buffers.
func clonePacket(p *netpkt.Packet) *netpkt.Packet {
	q := *p
	if len(p.Payload) > 0 {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// Process feeds one pre-parsed packet (test hook; the public surface
// takes raw frames).
func (e *Engine) Process(p *netpkt.Packet) { e.inner.Process(p) }

// TestWormOutbreakReachesPropagation checks the full kill chain on a
// propagating outbreak: patient zero scans (RECON), exploits
// (EXPLOIT), and is escalated to PROPAGATION when its victims re-emit
// the same payload fingerprint — while the last generation of
// attackers, whose victims never re-emit, stays below PROPAGATION.
func TestWormOutbreakReachesPropagation(t *testing.T) {
	e := correlatedEngine(t, 4)
	for _, p := range traffic.WormOutbreak(traffic.WormSpec{Seed: 3, Generations: 2, FanoutPerHost: 2}) {
		e.Process(p)
	}
	e.Stop()

	incs := e.Incidents()
	var propagated []Incident
	for _, inc := range incs {
		if inc.Stage == StagePropagation {
			propagated = append(propagated, inc)
		}
	}
	if len(propagated) == 0 {
		t.Fatalf("no incident reached PROPAGATION: %v", incs)
	}
	for _, inc := range propagated {
		if len(inc.Victims) == 0 {
			t.Errorf("PROPAGATION incident without victims: %v", inc)
		}
		if inc.Severity != "critical" {
			t.Errorf("PROPAGATION incident severity = %q, want critical", inc.Severity)
		}
		// The full kill chain: the propagating host scanned before it
		// exploited.
		stages := map[IncidentStage]bool{}
		for _, tr := range inc.Transitions {
			stages[tr.Stage] = true
		}
		if !stages[StageRecon] || !stages[StageExploit] {
			t.Errorf("propagating incident missing kill-chain stages: %v", inc.Transitions)
		}
	}
	// Victims of the final generation never re-emit: at least one
	// EXPLOIT-stage incident (the last attackers) must remain below
	// PROPAGATION.
	if len(propagated) == len(incs) {
		t.Errorf("every incident propagated; expected the last generation to stop at EXPLOIT")
	}
}

// TestCorrelatorScanSoak pushes a million scan packets from far more
// sources than the correlator's LRU budget and checks per-source
// state stays strictly bounded — no monotonic growth — while the
// engine keeps up.
func TestCorrelatorScanSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		totalPackets = 1_000_000
		probesPerSrc = 5
		maxSources   = 65536 // the correlator's tracked-source cap
	)
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:    4,
		Correlate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	dark := traffic.DarkNet.Addr().As4()
	peak := 0
	for n := 0; n < totalPackets; n++ {
		srcID := n / probesPerSrc
		src := netip.AddrFrom4([4]byte{10, byte(srcID >> 16), byte(srcID >> 8), byte(srcID)})
		dst := netip.AddrFrom4([4]byte{dark[0], dark[1], dark[2], byte(10 + n%probesPerSrc)})
		e.Process(&netpkt.Packet{
			SrcIP: src, DstIP: dst,
			SrcPort: uint16(40000 + n%probesPerSrc), DstPort: 80,
			Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagSYN,
			Seq: uint32(n), TimestampUS: uint64(n) * 50,
		})
		if n%100_000 == 0 {
			if tracked := e.IncidentStats().SourcesTracked; tracked > peak {
				peak = tracked
			}
		}
	}
	e.Drain()
	m := e.IncidentStats()
	if m.SourcesTracked > peak {
		peak = m.SourcesTracked
	}
	if peak > maxSources {
		t.Fatalf("correlator tracked %d sources, budget %d", peak, maxSources)
	}
	if m.SourcesEvictedLRU == 0 && m.SourcesEvictedIdle == 0 {
		t.Fatalf("no source evictions over %d distinct sources: %+v", totalPackets/probesPerSrc, m)
	}
	if m.Events == 0 || m.FlowOpens == 0 {
		t.Fatalf("correlator saw no events: %+v", m)
	}
	t.Logf("scan soak: %d pkts, %d sources, peak tracked=%d (budget %d), evicted lru=%d idle=%d, incidents=%d",
		totalPackets, totalPackets/probesPerSrc, peak, maxSources,
		m.SourcesEvictedLRU, m.SourcesEvictedIdle, m.Incidents)
}
