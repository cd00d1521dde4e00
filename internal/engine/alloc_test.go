package engine

import (
	"net/netip"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/extract"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// ingestTrafficPackets builds a benign mixed workload: nFlows TCP
// sessions (several text segments, then FIN) plus a UDP datagram per
// flow — the shapes the ingest path sees constantly and must handle
// without per-packet allocation.
func ingestTrafficPackets(nFlows int) []*netpkt.Packet {
	payload := []byte("GET /index.html HTTP/1.1\r\nHost: bench.example.com\r\nAccept: */*\r\n\r\n")
	var pkts []*netpkt.Packet
	ts := uint64(1000)
	for f := 0; f < nFlows; f++ {
		src := netip.AddrFrom4([4]byte{10, 9, byte(f >> 8), byte(f)})
		seq := uint32(100)
		for s := 0; s < 3; s++ {
			pkts = append(pkts, &netpkt.Packet{
				SrcIP: src, DstIP: netip.AddrFrom4([4]byte{10, 9, 255, 1}),
				SrcPort: uint16(2000 + f), DstPort: 80,
				Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagACK,
				Seq: seq, Payload: payload, TimestampUS: ts,
			})
			seq += uint32(len(payload))
			ts += 50
		}
		pkts = append(pkts, &netpkt.Packet{
			SrcIP: src, DstIP: netip.AddrFrom4([4]byte{10, 9, 255, 1}),
			SrcPort: uint16(2000 + f), DstPort: 80,
			Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagFIN | netpkt.FlagACK,
			Seq: seq, TimestampUS: ts,
		})
		pkts = append(pkts, &netpkt.Packet{
			SrcIP: src, DstIP: netip.AddrFrom4([4]byte{10, 9, 255, 2}),
			SrcPort: uint16(3000 + f), DstPort: 53,
			Proto: netpkt.ProtoUDP, HasUDP: true,
			Payload: []byte("benign datagram content............."), TimestampUS: ts,
		})
		ts += 50
	}
	return pkts
}

// TestEngineIngestAllocs is the ingest-path allocation-regression
// guard, mirroring sem's analyzer pin: a warm engine fed a benign
// mixed trace (batch dispatch, reassembly, extraction, analysis,
// drain) must stay far below one allocation per packet. A regression
// to per-packet channel messages, per-packet Stream views or
// per-frame decode caches trips this immediately.
func TestEngineIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	pkts := ingestTrafficPackets(40)
	e := New(Config{
		Classify:         classify.Config{Disabled: true},
		Shards:           1,
		VerdictCacheSize: -1,
	})
	defer e.Stop()

	run := func() {
		for _, p := range pkts {
			e.Process(p)
		}
		e.Drain()
	}
	// Warm: grows shard maps, reassembly pools, analyzer scratch.
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	perPacket := allocs / float64(len(pkts))
	// Steady state measures ~0.1 allocs/packet (drain barriers, map
	// growth churn, pool refills after GC). The budget is 0.5: loose
	// enough for runtime noise, tight enough that any per-packet
	// allocation on the ingest path (1.0+/packet) fails.
	if perPacket > 0.5 {
		t.Errorf("ingest path allocates %.2f objects/packet over %d packets (%.0f/run), budget 0.5",
			perPacket, len(pkts), allocs)
	}
}

// TestEngineDatagramAllocs is the same guard for the datagram path: an
// IoT botnet capture (CoAP block transfers, thousands of short
// conversations) with datagram flows on and a 1 s idle window, so that
// lifecycle ticks evict flows in bursts while the traffic behind them
// opens as many again. Every pass replays the capture later in trace
// time than the one before, or no tick would fire after the first. A
// regression to one eviction view per evicted flow, or to free lists
// that one tick overflows (so that each new flow allocates its record
// and buffer), trips this.
func TestEngineDatagramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	pkts := traffic.IoTBotnet(traffic.IoTSpec{Seed: 7, Generations: 4, FanoutPerHost: 4})
	span := pkts[len(pkts)-1].TimestampUS + 10e6
	e := New(Config{
		Classify:       classify.Config{Disabled: true},
		Shards:         1,
		DatagramFlows:  true,
		DatagramIdleUS: 1e6,
	})
	defer e.Stop()

	run := func() {
		for _, p := range pkts {
			p.TimestampUS += span
			e.Process(p)
		}
		e.Drain()
	}
	for i := 0; i < 3; i++ {
		run()
	}
	const passes = 10 // AllocsPerRun makes one more, unmeasured
	before := e.Snapshot()
	allocs := testing.AllocsPerRun(passes, run)
	after := e.Snapshot()
	if after.FlowsEvictedUDPIdle == before.FlowsEvictedUDPIdle {
		t.Fatal("no datagram flow was evicted by a tick: the pin does not cover eviction")
	}
	perPacket := allocs / float64(len(pkts))
	t.Logf("%.3f allocs/packet over %d packets, %d tick evictions a pass", perPacket, len(pkts),
		(after.FlowsEvictedUDPIdle-before.FlowsEvictedUDPIdle)/(passes+1))
	// Steady state measures 1.23 allocs/packet (2.91 before the free
	// lists held a tick's worth): 1.05 of it is extract's CoAP block
	// reassembly, which builds a map, an index and a body per analyzed
	// flow view, 0.1 is Drain's view per flow. One more object per
	// evicted flow is +0.24 here, so the budget sits just under that.
	if perPacket > 1.4 {
		t.Errorf("datagram path allocates %.2f objects/packet over %d packets (%.0f/run), budget 1.4",
			perPacket, len(pkts), allocs)
	}
}

// TestWitnessRejectedFrameAllocs pins the witness bypass: a benign
// CoAP reading's frame, whose marker and token bytes hold no template's
// byte witness, resolves with no cache lookup and no decode and
// allocates nothing, its fingerprint event included.
func TestWitnessRejectedFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	dev := netip.AddrFrom4([4]byte{172, 17, 0, 9})
	p := traffic.NewGen(1).CoAPSensorReading(dev)[0]
	frames := extract.ExtractDatagrams(p.Payload, nil)
	if len(frames) != 1 {
		t.Fatalf("the reading % x yields %d frames, want 1", p.Payload, len(frames))
	}
	events := 0
	e := New(Config{
		Classify: classify.Config{Disabled: true},
		Shards:   1,
		OnEvent:  func(core.Event) { events++ },
	})
	defer e.Stop()
	s, flow := e.shards[0], p.Flow()
	const runs = 100 // AllocsPerRun makes one more, unmeasured
	if allocs := testing.AllocsPerRun(runs, func() { s.analyzeFrame(frames[0], flow, "", p.TimestampUS) }); allocs != 0 {
		t.Errorf("a witness-rejected frame allocates %.1f objects, want 0", allocs)
	}
	if m := e.Snapshot(); m.WitnessRejected != runs+1 || m.CacheHits+m.CacheMisses != 0 || events != runs+1 {
		t.Errorf("witness-rejected %d, cache lookups %d, fingerprint events %d; want %d, 0, %d",
			m.WitnessRejected, m.CacheHits+m.CacheMisses, events, runs+1, runs+1)
	}
}
