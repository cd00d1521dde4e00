package engine

import (
	"bytes"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/telemetry"
	"semnids/internal/traffic"
)

func testClassify() classify.Config {
	return classify.Config{
		Honeypots:     []netip.Addr{traffic.HoneypotAddr},
		DarkSpace:     []netip.Prefix{traffic.DarkNet},
		ScanThreshold: 3,
	}
}

// alertSet normalizes alerts to a sorted set of flow+template keys so
// runs with different shard counts (hence different arrival orders)
// can be compared.
func alertSet(alerts []core.Alert) []string {
	keys := make([]string, 0, len(alerts))
	for _, a := range alerts {
		keys = append(keys, fmt.Sprintf("%s:%d->%s:%d %s", a.Src, a.SrcPort, a.Dst, a.DstPort, a.Detection.Template))
	}
	sort.Strings(keys)
	return keys
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// udpTo builds a UDP packet carrying payload to the honeypot.
func udpTo(src netip.Addr, sport uint16, payload []byte, tsUS uint64) *netpkt.Packet {
	return &netpkt.Packet{
		SrcIP: src, DstIP: traffic.HoneypotAddr,
		SrcPort: sport, DstPort: 4444,
		Proto: netpkt.ProtoUDP, HasUDP: true,
		Payload: payload, TimestampUS: tsUS,
	}
}

// TestVerdictCacheAccounting feeds the same exploit payload from many
// sources: the first delivery misses the cache, every identical
// delivery after it hits, and per-flow alerting is unaffected.
func TestVerdictCacheAccounting(t *testing.T) {
	payload := exploits.Table1Exploits()[0].Payload
	const deliveries = 25

	e := New(Config{Classify: testClassify(), Shards: 1})
	for i := 0; i < deliveries; i++ {
		src := netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
		e.Process(udpTo(src, uint16(2000+i), payload, uint64(i)*1000))
	}
	e.Stop()

	m := e.Snapshot()
	if m.Frames == 0 || m.Frames%deliveries != 0 {
		t.Fatalf("frames=%d, want a nonzero multiple of %d", m.Frames, deliveries)
	}
	perPayload := m.Frames / deliveries
	if m.CacheMisses != perPayload {
		t.Errorf("cache misses = %d, want %d (one per distinct frame)", m.CacheMisses, perPayload)
	}
	if m.CacheHits != m.Frames-perPayload {
		t.Errorf("cache hits = %d, want %d", m.CacheHits, m.Frames-perPayload)
	}
	if m.CacheEntries == 0 {
		t.Error("cache is empty after deliveries")
	}

	// Every source must still alert: caching verdicts must not
	// collapse per-flow attribution.
	srcs := map[netip.Addr]bool{}
	for _, a := range e.Alerts() {
		srcs[a.Src] = true
	}
	if len(srcs) != deliveries {
		t.Errorf("alerting sources = %d, want %d", len(srcs), deliveries)
	}
}

// TestVerdictCacheDisabled checks the cache can be turned off.
func TestVerdictCacheDisabled(t *testing.T) {
	payload := exploits.Table1Exploits()[0].Payload
	e := New(Config{Classify: testClassify(), Shards: 1, VerdictCacheSize: -1})
	for i := 0; i < 3; i++ {
		src := netip.AddrFrom4([4]byte{10, 8, 0, byte(i)})
		e.Process(udpTo(src, uint16(3000+i), payload, uint64(i)*1000))
	}
	e.Stop()
	m := e.Snapshot()
	if m.CacheHits != 0 || m.CacheMisses != 0 || m.CacheEntries != 0 {
		t.Errorf("disabled cache recorded activity: %+v", m)
	}
	if m.Alerts == 0 {
		t.Error("no alerts with cache disabled")
	}
}

// TestReturnAddrFrameCached delivers a frame that holds a
// return-address region and no template's byte witness from two
// sources: the data-level detector keeps it off the witness bypass, so
// both sources alert and the second delivery hits the verdict cache,
// sketch included. The same bytes with the region's top bytes cleared
// are witness-rejected.
func TestReturnAddrFrameCached(t *testing.T) {
	region := func(top byte) []byte {
		p := bytes.Repeat([]byte("A"), 32)
		for i := 0; i < 8; i++ {
			p = append(p, byte(0x10+i), 0xf1, 0xff, top)
		}
		return p
	}
	e := New(Config{Classify: testClassify(), Shards: 1, Lineage: true})
	for i := 0; i < 2; i++ {
		e.Process(udpTo(netip.AddrFrom4([4]byte{10, 7, 7, byte(i)}), 2000, region(0xbf), uint64(i)*1000))
	}
	e.Process(udpTo(netip.AddrFrom4([4]byte{10, 7, 7, 9}), 2000, region(0x3f), 3000))
	stopAndCheck(t, e)

	m := e.Snapshot()
	if m.Frames != 3 || m.CacheMisses != 1 || m.CacheHits != 1 || m.WitnessRejected != 1 {
		t.Errorf("frames/misses/hits/witness-rejected = %d/%d/%d/%d, want 3/1/1/1", m.Frames, m.CacheMisses, m.CacheHits, m.WitnessRejected)
	}
	if m.Sketches != 1 {
		t.Errorf("sketches = %d, want 1 (the miss; the hit reuses it)", m.Sketches)
	}
	srcs := map[netip.Addr]bool{}
	for _, a := range e.Alerts() {
		if a.Detection.Template != "return-address-region" {
			t.Errorf("unexpected alert %s", a.Detection.Template)
		}
		srcs[a.Src] = true
	}
	if len(srcs) != 2 {
		t.Errorf("alerting sources = %d, want 2", len(srcs))
	}
}

// TestIdleEvictionAnalyzesTail starves a never-finished exploit flow
// of its FIN: the idle-eviction tick must analyze the tail and still
// raise the alert, well before any Drain or Stop.
func TestIdleEvictionAnalyzesTail(t *testing.T) {
	exp := exploits.Table1Exploits()[0]
	attacker := netip.MustParseAddr("10.7.0.1")

	e := New(Config{
		Classify:          testClassify(),
		Shards:            1,
		MinAnalyzeBytes:   1 << 30, // never analyze on size thresholds
		FlowIdleTimeoutUS: 1e6,
		TickIntervalUS:    1e5,
	})
	defer e.Stop()

	// Exploit bytes to the honeypot over TCP, no FIN ever.
	e.Process(&netpkt.Packet{
		SrcIP: attacker, DstIP: traffic.HoneypotAddr,
		SrcPort: 4321, DstPort: exp.DstPort,
		Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagACK,
		Seq: 1000, Payload: exp.Payload, TimestampUS: 1000,
	})

	// Unrelated selected traffic far past the idle timeout advances
	// the shard's trace clock, triggering the eviction tick.
	other := netip.MustParseAddr("10.7.0.2")
	e.Process(udpTo(other, 9999, []byte("ping"), 5e6))
	e.Drain() // barrier only: the flow must already be gone by now

	m := e.Snapshot()
	if m.FlowsEvictedIdle != 1 {
		t.Fatalf("idle evictions = %d, want 1", m.FlowsEvictedIdle)
	}
	found := false
	for _, a := range e.Alerts() {
		if a.Src == attacker {
			found = true
		}
	}
	if !found {
		t.Fatalf("evicted flow's tail was not analyzed: alerts=%v", e.Alerts())
	}
}

// TestLRUByteBudgetEviction feeds more stream data than the shard
// byte budget allows and checks the budget is enforced by eviction.
func TestLRUByteBudgetEviction(t *testing.T) {
	const budget = 64 << 10
	e := New(Config{
		Classify:        classify.Config{Disabled: true},
		Shards:          1,
		ShardByteBudget: budget,
		TickIntervalUS:  1e4,
	})
	defer e.Stop()

	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte('a' + i%23)
	}
	seqs := map[int]uint32{}
	for n := 0; n < 2000; n++ {
		flow := n % 50 // 50 long-lived flows, never finished
		e.Process(&netpkt.Packet{
			SrcIP:   netip.AddrFrom4([4]byte{10, 6, 0, byte(flow)}),
			DstIP:   traffic.WebServer,
			SrcPort: uint16(5000 + flow), DstPort: 80,
			Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagACK,
			Seq: seqs[flow], Payload: payload, TimestampUS: uint64(n) * 1000,
		})
		seqs[flow] += uint32(len(payload))
	}
	e.Drain()
	m := e.Snapshot()
	if m.FlowsEvictedLRU == 0 {
		t.Fatalf("no LRU evictions despite %d bytes over a %d budget: %+v",
			2000*len(payload), budget, m)
	}
	if m.BufferedBytes != 0 {
		t.Errorf("buffered bytes after drain = %d, want 0", m.BufferedBytes)
	}
}

// TestOverloadShed blocks the single shard inside an OnAlert callback
// and checks the shed policy drops exactly the overflow, counted in
// Dropped, without ever blocking the ingest goroutine.
func TestOverloadShed(t *testing.T) {
	payload := exploits.Table1Exploits()[0].Payload
	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	e := New(Config{
		Classify:   classify.Config{Disabled: true},
		Shards:     1,
		QueueDepth: 1,
		Overload:   PolicyShed,
		OnAlert: func(core.Alert) {
			enterOnce.Do(func() { close(entered) })
			<-release
		},
	})

	// The first exploit packet reaches the shard and blocks it in
	// OnAlert; the queue is empty at that point.
	e.Process(udpTo(netip.MustParseAddr("10.5.0.1"), 1111, payload, 1000))
	<-entered

	// One more packet fits the depth-1 queue; the rest must be shed.
	const extra = 10
	for i := 0; i < extra; i++ {
		e.Process(udpTo(netip.AddrFrom4([4]byte{10, 5, 1, byte(i)}), uint16(2222+i), []byte("benign"), uint64(2000+i)))
	}
	if got := e.Snapshot().Dropped; got != extra-1 {
		t.Errorf("dropped = %d, want %d", got, extra-1)
	}
	close(release)
	e.Stop()
	if got := e.Snapshot().Dropped; got != extra-1 {
		t.Errorf("dropped after stop = %d, want %d", got, extra-1)
	}
}

// TestDrainSurvivesAcrossTraces checks the live-lifecycle semantics:
// Drain completes a trace's analysis but the engine keeps accepting
// traffic. Stop is idempotent and alerts stay readable after it.
func TestDrainSurvivesAcrossTraces(t *testing.T) {
	exp := exploits.Table1Exploits()[0]
	e := New(Config{Classify: testClassify(), Shards: 2})

	feed := func(src netip.Addr) {
		// Exploit over TCP without FIN: only Drain (tail analysis)
		// or a size threshold can catch it.
		e.Process(&netpkt.Packet{
			SrcIP: src, DstIP: traffic.HoneypotAddr,
			SrcPort: 7777, DstPort: exp.DstPort,
			Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagACK,
			Seq: 1, Payload: exp.Payload, TimestampUS: 1000,
		})
	}

	feed(netip.MustParseAddr("10.4.0.1"))
	e.Drain()
	first := len(e.Alerts())
	if first == 0 {
		t.Fatal("no alerts after first trace + drain")
	}

	feed(netip.MustParseAddr("10.4.0.2"))
	e.Drain()
	second := len(e.Alerts())
	if second <= first {
		t.Fatalf("engine did not survive drain: %d alerts, then %d", first, second)
	}

	e.Stop()
	e.Stop() // idempotent
	e.Drain()
	if got := len(e.Alerts()); got != second {
		t.Errorf("alerts after stop = %d, want %d", got, second)
	}
	// Feeding after stop is ignored, not a crash.
	feed(netip.MustParseAddr("10.4.0.3"))
	if got := len(e.Alerts()); got != second {
		t.Errorf("packet accepted after stop: %d alerts", got)
	}
}

// TestFeederFlushAfterStop pins the straggler contract: a parallel
// feeder holding a partial batch may Flush after Stop — the batch is
// released, not sent to the closed shard queues.
func TestFeederFlushAfterStop(t *testing.T) {
	e := New(Config{Classify: classify.Config{Disabled: true}, Shards: 2})
	f := e.NewFeeder()
	f.Process(udpTo(netip.MustParseAddr("10.6.0.1"), 4444, []byte("partial batch content"), 100))
	e.Stop()
	f.Flush() // must not panic
	f.Process(udpTo(netip.MustParseAddr("10.6.0.2"), 4445, []byte("late"), 200))
}

// TestShedRingExhaustionAllocates pins the shed-policy fix: an empty
// batch ring with queue room is not overload — packets must still get
// through (feeders merely pinning partial batches is not saturation).
func TestShedRingExhaustionAllocates(t *testing.T) {
	e := New(Config{
		Classify:   classify.Config{Disabled: true},
		Shards:     1,
		QueueDepth: 64,
		BatchSize:  8,
		Overload:   PolicyShed,
	})
	defer e.Stop()
	s := e.shards[0]
	// Pin every ring buffer, simulating feeders holding partials.
	var pinned []*pktBatch
	for {
		b := func() *pktBatch {
			select {
			case b := <-s.free:
				return b
			default:
				return nil
			}
		}()
		if b == nil {
			break
		}
		pinned = append(pinned, b)
	}
	for i := 0; i < 10; i++ {
		e.Process(udpTo(netip.AddrFrom4([4]byte{10, 7, 0, byte(i)}), uint16(5000+i), []byte("must not be shed"), uint64(1000+i)))
	}
	e.Drain()
	m := e.Snapshot()
	if m.Dropped != 0 {
		t.Errorf("dropped %d packets with an empty ring but queue room", m.Dropped)
	}
	if m.Selected != 10 {
		t.Errorf("selected = %d, want 10", m.Selected)
	}
	for _, b := range pinned {
		s.putBatch(b)
	}
}

// TestSketchAttemptAccounting states the sketch's conservation law at
// Stop on a polymorphic outbreak with lineage on: every emulation
// attempt ends run, merged into an earlier attempt over the same
// frame, or step-limited, and the counters sum. The outbreak's
// decoders converge from every sweep offset, so merges must occur.
// The telemetry series must read the same counters.
func TestSketchAttemptAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Classify: testClassify(), Shards: 2, Lineage: true, Telemetry: reg})
	for _, p := range traffic.PolymorphOutbreak(traffic.PolymorphSpec{Seed: 14, Generations: 3, FanoutPerHost: 3}) {
		e.Process(p)
	}
	e.Stop()
	m := e.Snapshot()
	if m.Sketches == 0 || m.SketchAttempts == 0 {
		t.Fatalf("%d sketches, %d attempts; the outbreak reached no sketch", m.Sketches, m.SketchAttempts)
	}
	if sum := m.SketchAttemptsRun + m.SketchAttemptsMerged + m.SketchAttemptsStepLimit; sum != m.SketchAttempts {
		t.Errorf("sketch attempts %d, run %d + merged %d + step-limited %d = %d",
			m.SketchAttempts, m.SketchAttemptsRun, m.SketchAttemptsMerged, m.SketchAttemptsStepLimit, sum)
	}
	if m.SketchAttemptsMerged == 0 {
		t.Errorf("no attempt merged over %d attempts", m.SketchAttempts)
	}
	t.Logf("%d sketches: %d attempts, %d run, %d merged, %d step-limited",
		m.Sketches, m.SketchAttempts, m.SketchAttemptsRun, m.SketchAttemptsMerged, m.SketchAttemptsStepLimit)
	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for outcome, n := range map[string]uint64{"run": m.SketchAttemptsRun, "merged": m.SketchAttemptsMerged, "step_limit": m.SketchAttemptsStepLimit} {
		if series := `semnids_sketch_attempts_total{outcome="` + outcome + `"} ` + strconv.FormatUint(n, 10); !strings.Contains(sb.String(), series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	if series := "semnids_analyzer_search_exhausted_total " + strconv.FormatUint(m.SearchesExhausted, 10); !strings.Contains(sb.String(), series) {
		t.Errorf("exposition missing %s", series)
	}
}
