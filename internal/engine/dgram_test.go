package engine

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// flowOpenTap counts EventFlowOpen per flow, safely across shard
// goroutines.
type flowOpenTap struct {
	mu     sync.Mutex
	counts map[netpkt.FlowKey]int
}

func newFlowOpenTap() *flowOpenTap {
	return &flowOpenTap{counts: make(map[netpkt.FlowKey]int)}
}

func (ft *flowOpenTap) tap(ev core.Event) {
	if ev.Kind != core.EventFlowOpen {
		return
	}
	ft.mu.Lock()
	ft.counts[netpkt.FlowKey{
		SrcIP: ev.Src, DstIP: ev.Dst,
		SrcPort: ev.SrcPort, DstPort: ev.DstPort,
	}]++
	ft.mu.Unlock()
}

func (ft *flowOpenTap) count(k netpkt.FlowKey) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	k.Proto = 0
	return ft.counts[k]
}

// TestDatagramFlowOpenOncePerFlow pins the flow-open event count: a
// burst of datagrams on one 5-tuple publishes exactly one flow-open —
// not one per datagram, which used to flood the correlator's bounded
// event channel — and the idle window re-arms the event. Holds with
// datagram flows off (the dedup map) and on (the tracked flow).
func TestDatagramFlowOpenOncePerFlow(t *testing.T) {
	for _, dgramFlows := range []bool{false, true} {
		tap := newFlowOpenTap()
		e := New(Config{
			Classify:          classify.Config{Disabled: true},
			Shards:            1,
			DatagramFlows:     dgramFlows,
			FlowIdleTimeoutUS: 1e6,
			TickIntervalUS:    1e5,
			OnEvent:           tap.tap,
		})

		src := netip.MustParseAddr("10.5.0.1")
		flow := netpkt.FlowKey{
			SrcIP: src, DstIP: traffic.HoneypotAddr,
			SrcPort: 7777, DstPort: 4444,
		}
		const burst = 200
		for i := 0; i < burst; i++ {
			e.Process(udpTo(src, 7777, []byte("probe datagram"), uint64(1000+i*100)))
		}
		e.Drain()
		if got := tap.count(flow); got != 1 {
			t.Fatalf("dgramFlows=%v: %d datagrams produced %d flow-open events, want 1",
				dgramFlows, burst, got)
		}

		// Push trace time far past the idle window on another flow, then
		// revisit: the idle sweep must have re-armed the event.
		other := netip.MustParseAddr("10.5.0.2")
		e.Process(udpTo(other, 8888, []byte("clock mover"), 60e6))
		e.Process(udpTo(other, 8888, []byte("clock mover"), 61e6))
		e.Drain()
		e.Process(udpTo(src, 7777, []byte("back again"), 62e6))
		stopAndCheck(t, e)
		if got := tap.count(flow); got != 2 {
			t.Fatalf("dgramFlows=%v: flow-open not re-emitted after idle window: %d events, want 2",
				dgramFlows, got)
		}
	}
}

// iotTrace renders the standard IoT botnet outbreak.
func iotTrace(t *testing.T) []*netpkt.Packet {
	t.Helper()
	pkts := traffic.IoTBotnet(traffic.IoTSpec{Seed: 5})
	if len(pkts) == 0 {
		t.Fatal("empty IoT trace")
	}
	return pkts
}

// TestDatagramFlowDeterminism checks the datagram tentpole invariant:
// with datagram flows on, the IoT outbreak produces the same alert set
// at every shard count — canonical 5-tuple dispatch keeps both
// directions of each conversation on one shard, so shard count can
// never change what reassembles.
func TestDatagramFlowDeterminism(t *testing.T) {
	pkts := iotTrace(t)
	var want []string
	for _, shards := range []int{1, 2, 4} {
		e := New(Config{
			Classify:      testClassify(),
			Shards:        shards,
			DatagramFlows: true,
		})
		for _, p := range pkts {
			e.Process(p)
		}
		stopAndCheck(t, e)
		got := alertSet(e.Alerts())
		if shards == 1 {
			want = got
			if len(want) == 0 {
				t.Fatal("IoT trace produced no alerts with datagram flows on")
			}
			continue
		}
		if !equalSets(got, want) {
			t.Errorf("shards=%d: alert set diverged\n got: %v\nwant: %v", shards, got, want)
		}
	}
}

// TestDatagramIdleEvictionAnalyzesTail starves a block transfer of any
// later traffic on its flow: the datagram idle window must evict the
// conversation and analyze its buffered tail, raising the alert.
func TestDatagramIdleEvictionAnalyzesTail(t *testing.T) {
	g := traffic.NewGen(13)
	attacker := netip.MustParseAddr("10.2.0.9")
	victim := netip.MustParseAddr("172.17.0.1")

	e := New(Config{
		Classify:          testClassify(),
		Shards:            1,
		DatagramFlows:     true,
		MinAnalyzeBytes:   1 << 30, // only eviction may trigger analysis
		FlowIdleTimeoutUS: 60e6,
		DatagramIdleUS:    1e6,
		TickIntervalUS:    1e5,
	})

	// Dark-space probes make the attacker suspicious, then the split
	// exploit delivery rides the suspicion.
	for _, p := range g.CoAPScan(attacker, 4) {
		e.Process(p)
	}
	for _, p := range g.CoAPBlockPut(attacker, victim, "firmware", exploits.CoAPFirmware()) {
		e.Process(p)
	}

	// Unrelated selected traffic far past the datagram idle window
	// advances the shard clock; the flow-wide timeout is still far off.
	other := netip.MustParseAddr("10.2.0.2")
	e.Process(udpTo(other, 9999, []byte("ping"), 30e6))
	e.Drain()

	m := e.Snapshot()
	if m.FlowsEvictedUDPIdle == 0 {
		t.Fatalf("no datagram idle evictions: %+v", m)
	}
	found := false
	for _, a := range e.Alerts() {
		if a.Src == attacker && a.Detection.Template == "xor-decrypt-loop" {
			found = true
		}
	}
	stopAndCheck(t, e)
	if !found {
		t.Fatalf("evicted datagram flow's tail was not analyzed: alerts=%v", e.Alerts())
	}
}

// TestDatagramSoakBoundedMemory sweeps 200k short UDP conversations
// through the engine with datagram flows on: the idle window must keep
// flow-table occupancy and buffered bytes bounded far below the
// conversation count, and the gauges must return to zero at Stop.
func TestDatagramSoakBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const conversations = 200_000
	e := New(Config{
		Classify:          classify.Config{Disabled: true},
		Shards:            4,
		QueueDepth:        4096,
		DatagramFlows:     true,
		FlowIdleTimeoutUS: 60e6,
		DatagramIdleUS:    1e6,
		TickIntervalUS:    1e5,
	})

	payload := []byte("t=21.4;h=55 short sensor reading")
	maxFlows, maxBytes := 0, 0
	for n := 0; n < conversations; n++ {
		src := netip.AddrFrom4([4]byte{10, 4, byte(n >> 8), byte(n)})
		ts := uint64(n) * 200
		e.Process(udpTo(src, uint16(1025+n%50000), payload, ts))
		e.Process(udpTo(src, uint16(1025+n%50000), payload, ts+50))
		if n%4096 == 0 {
			m := e.Snapshot()
			if m.UDPFlowsActive > maxFlows {
				maxFlows = m.UDPFlowsActive
			}
			if m.UDPBufferedBytes > maxBytes {
				maxBytes = m.UDPBufferedBytes
			}
		}
	}
	e.Drain()
	m := e.Snapshot()
	if m.FlowsEvictedUDPIdle == 0 {
		t.Fatal("no datagram idle evictions over 200k conversations")
	}
	// The idle window spans 1e6us / 200us-per-conversation = 5000
	// conversations; occupancy must stay in that order, never the
	// full 200k.
	const occupancyCap = 20_000
	if maxFlows == 0 || maxFlows > occupancyCap {
		t.Errorf("peak UDP flow occupancy %d, want (0, %d]", maxFlows, occupancyCap)
	}
	if maxBytes > occupancyCap*2*len(payload) {
		t.Errorf("peak UDP buffered bytes %d", maxBytes)
	}
	stopAndCheck(t, e)
	m = e.Snapshot()
	if m.UDPFlowsActive != 0 || m.UDPBufferedBytes != 0 {
		t.Errorf("gauges after Stop: flows=%d bytes=%d, want 0/0", m.UDPFlowsActive, m.UDPBufferedBytes)
	}
}

// TestDatagramFlowsOffByteIdentical pins the feature flag's off state:
// with DatagramFlows false the engine's alert sets over the IoT traces
// are the ones the batch pipeline's per-packet treatment produced —
// buffering is strictly opt-in.
func TestDatagramFlowsOffByteIdentical(t *testing.T) {
	checkGolden(t, loadGolden(t), goldenIoTTraces())
}

// withWitnessedDatagrams returns pkts with n one-datagram flows spread
// over the trace. Each payload is distinct binary that holds every byte
// witness (a jmp back to itself, call eax, int 0x80) behind a sled, so its frame goes
// through the verdict cache, as the trace's benign CoAP readings no
// longer do, and is analyzed when its flow leaves the table.
func withWitnessedDatagrams(pkts []*netpkt.Packet, n int) []*netpkt.Packet {
	out := make([]*netpkt.Packet, 0, len(pkts)+n)
	step := len(pkts) / n
	for i, p := range pkts {
		out = append(out, p)
		if k := i / step; i%step == 0 && k < n {
			payload := append(bytes.Repeat([]byte{0x90}, 16), 0xeb, 0xfe, 0xff, 0xd0, 0xcd, 0x80, 0x0e, 0x5a, byte(k>>8), byte(k), 0x5b, 0xc3)
			out = append(out, &netpkt.Packet{
				SrcIP:   netip.AddrFrom4([4]byte{10, 250, byte(k >> 8), byte(k)}),
				DstIP:   netip.AddrFrom4([4]byte{172, 17, 9, 9}),
				SrcPort: 40000, DstPort: 5683,
				Proto: netpkt.ProtoUDP, HasUDP: true,
				Payload: payload, TimestampUS: p.TimestampUS,
			})
		}
	}
	return out
}

// TestDatagramEvictionDeterministic runs one datagram-flow trace
// several times: idle datagram flows and the final drain must leave the
// flow table in the same order every run, or the verdict cache admits
// a different set of frames and the alerts arrive in a different order.
// The IoT trace's frames that reach the cache are too few to fill it,
// so distinct witnessed datagrams ride along and overflow it.
func TestDatagramEvictionDeterministic(t *testing.T) {
	pkts := withWitnessedDatagrams(traffic.IoTBotnet(traffic.IoTSpec{Seed: 1, Generations: 2, FanoutPerHost: 3, BenignSessions: 20}), 200)
	type result struct {
		hits, misses, rejected uint64
		alerts                 []string
	}
	run := func() result {
		e := New(Config{
			Classify:          classify.Config{Disabled: true},
			Shards:            1,
			DatagramFlows:     true,
			FlowIdleTimeoutUS: 60e6,
			DatagramIdleUS:    5e4,
			TickIntervalUS:    1e4,
			VerdictCacheSize:  64,
		})
		for _, p := range pkts {
			e.Process(p)
		}
		stopAndCheck(t, e)
		m := e.Snapshot()
		if m.FlowsEvictedUDPIdle == 0 {
			t.Fatal("no datagram idle evictions")
		}
		r := result{hits: m.CacheHits, misses: m.CacheMisses, rejected: m.CacheRejected}
		for _, a := range e.Alerts() {
			r.alerts = append(r.alerts, fmt.Sprintf("%s:%d->%s:%d %s", a.Src, a.SrcPort, a.Dst, a.DstPort, a.Detection.Template))
		}
		return r
	}
	want := run()
	if want.rejected == 0 || len(want.alerts) == 0 {
		t.Fatalf("trace exercises nothing: %d cache rejections, %d alerts", want.rejected, len(want.alerts))
	}
	// Map order repeats by chance now and then; several runs make a
	// random hand-over order show.
	for i := 1; i < 8; i++ {
		got := run()
		if got.hits != want.hits || got.misses != want.misses || got.rejected != want.rejected {
			t.Fatalf("run %d: cache hits/misses/rejected = %d/%d/%d, first run %d/%d/%d",
				i, got.hits, got.misses, got.rejected, want.hits, want.misses, want.rejected)
		}
		if !slices.Equal(got.alerts, want.alerts) {
			t.Fatalf("run %d: alert arrival order differs from the first run\n got: %v\nwant: %v", i, got.alerts, want.alerts)
		}
	}
}
