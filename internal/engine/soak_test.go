package engine

import (
	"net/netip"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// TestSoakBoundedMemory runs the engine over a million packets of
// long-lived flows that never finish — the workload that grows an
// unmanaged flow table without bound. The engine must
// complete with buffered bytes held near the configured budget and
// flow-table memory bounded, with evictions visible in the metrics.
func TestSoakBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		totalPackets = 1_000_000
		flowCount    = 4096
		payloadLen   = 120
		shards       = 4
		budget       = 2 << 20 // per shard
	)
	e := New(Config{
		Classify:          classify.Config{Disabled: true},
		Shards:            shards,
		QueueDepth:        4096,
		FlowIdleTimeoutUS: 2e6,
		TickIntervalUS:    1e5,
		ShardByteBudget:   budget,
	})
	defer e.Stop()

	// Deterministic letter soup: incompressible enough to not trigger
	// the repetition extractor, plain text so extraction stays cheap.
	text := make([]byte, payloadLen)
	rng := uint32(0x2545f491)
	for i := range text {
		rng = rng*1664525 + 1013904223
		text[i] = byte('a' + (rng>>24)%26)
	}

	srcs := make([]netip.Addr, flowCount)
	for i := range srcs {
		srcs[i] = netip.AddrFrom4([4]byte{10, 3, byte(i >> 8), byte(i)})
	}
	seqs := make([]uint32, flowCount)

	maxBuffered, maxFlows := 0, 0
	for n := 0; n < totalPackets; n++ {
		i := n % flowCount
		e.Process(&netpkt.Packet{
			SrcIP: srcs[i], DstIP: traffic.WebServer,
			SrcPort: uint16(10000 + i%50000), DstPort: 80,
			Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagACK,
			Seq: seqs[i], Payload: text, TimestampUS: uint64(n) * 20,
		})
		seqs[i] += payloadLen
		if n%50_000 == 0 {
			m := e.Snapshot()
			if m.BufferedBytes > maxBuffered {
				maxBuffered = m.BufferedBytes
			}
			if m.FlowsActive > maxFlows {
				maxFlows = m.FlowsActive
			}
		}
	}
	e.Drain()
	m := e.Snapshot()

	if m.Packets != totalPackets {
		t.Fatalf("processed %d packets, want %d", m.Packets, totalPackets)
	}
	if m.FlowsEvictedLRU == 0 && m.FlowsEvictedIdle == 0 {
		t.Fatalf("no evictions over %d MB of stream data: %+v",
			totalPackets*payloadLen>>20, m)
	}
	// The budget is enforced at tick granularity, so allow transient
	// overshoot of one tick's ingest; 2x total budget is generous.
	if limit := 2 * shards * budget; maxBuffered > limit {
		t.Errorf("buffered bytes peaked at %d, budget limit %d", maxBuffered, limit)
	}
	if maxFlows > flowCount {
		t.Errorf("flow gauge peaked at %d with only %d distinct flows", maxFlows, flowCount)
	}
	if m.FlowsActive != 0 || m.BufferedBytes != 0 {
		t.Errorf("state after drain: flows=%d bytes=%d, want 0/0", m.FlowsActive, m.BufferedBytes)
	}
	if m.Alerts != 0 {
		t.Errorf("benign soak raised %d alerts", m.Alerts)
	}
	t.Logf("soak: %d pkts, peak buffered=%dB (budget %dB/shard x %d), peak flows=%d, evicted idle=%d lru=%d, streams analyzed=%d",
		totalPackets, maxBuffered, budget, shards, maxFlows,
		m.FlowsEvictedIdle, m.FlowsEvictedLRU, m.StreamsAnalyzed)
}
