package engine

import (
	"bytes"
	"io"
	"net/netip"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// The scenarios below are the detection pipeline's end-to-end cases:
// one trace in, Stop, then assertions on the alerts and counters.

func pipelineConfig() Config {
	return Config{Classify: testClassify(), Shards: 2}
}

func feedOnly(e *Engine, pkts []*netpkt.Packet) {
	for _, p := range pkts {
		e.Process(p)
	}
}

func feedAll(t *testing.T, e *Engine, pkts []*netpkt.Packet) {
	t.Helper()
	feedOnly(e, pkts)
	stopAndCheck(t, e)
}

// stopAndCheck stops the engine and asserts the resolution law:
// every frame extraction forwarded was resolved exactly once, by a
// cache hit, a cache miss, or the byte witness with no lookup.
func stopAndCheck(t *testing.T, e *Engine) {
	t.Helper()
	e.Stop()
	if m := e.Snapshot(); m.Frames != m.CacheHits+m.CacheMisses+m.WitnessRejected {
		t.Errorf("frames resolved %d != cache hits %d + cache misses %d + witness-rejected %d", m.Frames, m.CacheHits, m.CacheMisses, m.WitnessRejected)
	}
}

func alertTemplates(alerts []core.Alert) map[string]int {
	out := make(map[string]int)
	for _, a := range alerts {
		out[a.Detection.Template]++
	}
	return out
}

func TestExploitAtHoneypotDetected(t *testing.T) {
	g := traffic.NewGen(1)
	e := New(pipelineConfig())
	attacker := netip.MustParseAddr("10.66.66.66")
	exp := exploits.Table1Exploits()[0]
	feedAll(t, e, g.ExploitAtHoneypot(attacker, exp.DstPort, exp.Payload))
	got := alertTemplates(e.Alerts())
	if got["linux-shell-spawn"] == 0 {
		t.Fatalf("shell spawn not detected: %v", got)
	}
	for _, a := range e.Alerts() {
		if a.Src != attacker {
			t.Errorf("alert attributed to %v, want %v", a.Src, attacker)
		}
		if a.Reason == classify.ReasonNone {
			t.Error("alert without classification reason")
		}
	}
}

func TestCleanTrafficNotAnalyzed(t *testing.T) {
	g := traffic.NewGen(2)
	e := New(pipelineConfig())
	var pkts []*netpkt.Packet
	for i := 0; i < 50; i++ {
		pkts = append(pkts, g.BenignSession()...)
	}
	feedAll(t, e, pkts)
	m := e.Snapshot()
	if m.Selected != 0 {
		t.Errorf("classifier selected %d benign packets", m.Selected)
	}
	if len(e.Alerts()) != 0 {
		t.Errorf("alerts on benign traffic: %v", e.Alerts())
	}
}

func TestScannerTripsDarkSpace(t *testing.T) {
	g := traffic.NewGen(3)
	e := New(pipelineConfig())
	attacker := netip.MustParseAddr("10.7.7.7")
	exp := exploits.IISASPOverflow()
	feedAll(t, e, g.ScanThenExploit(attacker, traffic.WebServer, 80, exp.Payload, 4))
	got := alertTemplates(e.Alerts())
	if got["xor-decrypt-loop"] == 0 {
		t.Fatalf("decryption loop not detected after scan: %v", got)
	}
}

func TestExploitFromUnclassifiedSourceIgnored(t *testing.T) {
	// The same exploit sent directly at the web server from a source
	// that never scanned or touched the honeypot passes through
	// unanalyzed — that is the classifier trade-off the paper makes.
	g := traffic.NewGen(4)
	e := New(pipelineConfig())
	exp := exploits.IISASPOverflow()
	feedAll(t, e, g.TCPSession(netip.MustParseAddr("10.8.8.8"), traffic.WebServer, 80, exp.Payload, nil))
	if len(e.Alerts()) != 0 {
		t.Errorf("unclassified exploit alerted: %v", e.Alerts())
	}
}

func TestFullScanModeCatchesUnclassified(t *testing.T) {
	cfg := pipelineConfig()
	cfg.FullScan = true
	g := traffic.NewGen(5)
	e := New(cfg)
	exp := exploits.IISASPOverflow()
	feedAll(t, e, g.TCPSession(netip.MustParseAddr("10.8.8.8"), traffic.WebServer, 80, exp.Payload, nil))
	got := alertTemplates(e.Alerts())
	if got["xor-decrypt-loop"] == 0 {
		t.Fatalf("fullscan missed the exploit: %v", got)
	}
}

func TestSegmentedExploitReassembled(t *testing.T) {
	// The exploit arrives split across many small TCP segments; the
	// reassembler must stitch it before extraction.
	g := traffic.NewGen(6)
	e := New(pipelineConfig())
	attacker := netip.MustParseAddr("10.5.5.5")
	exp := exploits.Table1Exploits()[2]
	pkts := g.ExploitAtHoneypot(attacker, exp.DstPort, exp.Payload)
	// Re-split payload packets into 64-byte segments.
	var split []*netpkt.Packet
	for _, p := range pkts {
		if len(p.Payload) <= 64 {
			split = append(split, p)
			continue
		}
		for off := 0; off < len(p.Payload); off += 64 {
			end := off + 64
			if end > len(p.Payload) {
				end = len(p.Payload)
			}
			q := *p
			q.Seq = p.Seq + uint32(off)
			q.Payload = p.Payload[off:end]
			split = append(split, &q)
		}
	}
	feedAll(t, e, split)
	got := alertTemplates(e.Alerts())
	if got["linux-shell-spawn"] == 0 {
		t.Fatalf("segmented exploit not detected: %v", got)
	}
}

func TestAlertDeduplication(t *testing.T) {
	// The same exploit retransmitted within one flow alerts once per
	// template.
	g := traffic.NewGen(7)
	e := New(pipelineConfig())
	attacker := netip.MustParseAddr("10.4.4.4")
	exp := exploits.Table1Exploits()[0]
	pkts := g.ExploitAtHoneypot(attacker, exp.DstPort, exp.Payload)
	// Feed data packets twice (retransmission).
	var doubled []*netpkt.Packet
	for _, p := range pkts {
		doubled = append(doubled, p)
		if len(p.Payload) > 0 {
			q := *p
			doubled = append(doubled, &q)
		}
	}
	feedAll(t, e, doubled)
	got := alertTemplates(e.Alerts())
	for tpl, count := range got {
		if count > 1 {
			t.Errorf("template %s alerted %d times for one flow", tpl, count)
		}
	}
}

func TestTraceWithGroundTruth(t *testing.T) {
	spec := traffic.TraceSpec{
		Seed:             11,
		BenignSessions:   200,
		CodeRedInstances: 5,
	}
	pkts := traffic.Synthesize(spec)
	for _, shards := range []int{1, 2, 4} {
		cfg := pipelineConfig()
		cfg.Shards = shards
		e := New(cfg)
		feedAll(t, e, pkts)
		crii := 0
		srcs := make(map[netip.Addr]bool)
		for _, a := range e.Alerts() {
			if a.Detection.Template == "code-red-ii" {
				crii++
				srcs[a.Src] = true
			}
		}
		if crii != 5 || len(srcs) != 5 {
			t.Errorf("shards=%d: detected %d Code Red II instances from %d sources, want 5/5", shards, crii, len(srcs))
		}
	}
}

func TestPcapRoundTripThroughEngine(t *testing.T) {
	var buf bytes.Buffer
	spec := traffic.TraceSpec{Seed: 12, BenignSessions: 40, CodeRedInstances: 2}
	count, err := traffic.WritePcap(&buf, spec)
	if err != nil || count == 0 {
		t.Fatalf("write pcap: %d, %v", count, err)
	}
	e := New(pipelineConfig())
	pr, err := netpkt.NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		p, err := pr.NextPacket(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Process(p)
	}
	stopAndCheck(t, e)
	if got := alertTemplates(e.Alerts())["code-red-ii"]; got != 2 {
		t.Errorf("pcap run detected %d Code Red II, want 2", got)
	}
	if e.Snapshot().Packets != uint64(count) {
		t.Errorf("processed %d packets, wrote %d", e.Snapshot().Packets, count)
	}
}

func TestMetricsAccounting(t *testing.T) {
	g := traffic.NewGen(13)
	e := New(pipelineConfig())
	attacker := netip.MustParseAddr("10.3.3.3")
	exp := exploits.Table1Exploits()[1]
	feedAll(t, e, g.ExploitAtHoneypot(attacker, exp.DstPort, exp.Payload))
	m := e.Snapshot()
	if m.Packets == 0 || m.Selected == 0 || m.Frames == 0 || m.Alerts == 0 {
		t.Errorf("metrics not accounted: %+v", m)
	}
	if m.Selected > m.Packets {
		t.Errorf("selected %d > packets %d", m.Selected, m.Packets)
	}
}

func TestOnAlertCallback(t *testing.T) {
	cfg := pipelineConfig()
	var calls int
	cfg.OnAlert = func(core.Alert) { calls++ } // one flow, so one shard goroutine
	g := traffic.NewGen(14)
	e := New(cfg)
	exp := exploits.Table1Exploits()[0]
	feedAll(t, e, g.ExploitAtHoneypot(netip.MustParseAddr("10.2.2.2"), exp.DstPort, exp.Payload))
	if len(e.Alerts()) == 0 {
		t.Fatal("no alerts")
	}
	if calls != len(e.Alerts()) {
		t.Errorf("callback fired %d times for %d alerts", calls, len(e.Alerts()))
	}
}

func TestDoubleStopSafe(t *testing.T) {
	e := New(pipelineConfig())
	e.Stop()
	e.Stop() // must not panic or deadlock
}

// TestEmailWormDetected covers the paper's Section 6 future-work
// extension end to end: a mass-mailer delivers a packed (decryptor-
// carrying) executable as a base64 attachment over SMTP; the engine
// decodes the attachment and the decryption-loop template fires.
func TestEmailWormDetected(t *testing.T) {
	g := traffic.NewGen(31)
	cfg := pipelineConfig()
	// Mass mailers do not scan dark space; the mail server operator
	// analyzes all mail submissions.
	cfg.Classify.Disabled = true
	e := New(cfg)

	// Background mail first: must stay silent.
	for i := 0; i < 10; i++ {
		feedOnly(e, g.SMTPSession(g.RandClient()))
	}
	// The infected message: a Netsky-like packed binary attachment.
	worm := exploits.NetskyBinary(3, 8*1024)
	infected := netip.MustParseAddr("10.99.99.99")
	feedAll(t, e, g.InfectedMailSession(infected, worm))

	var hit bool
	for _, a := range e.Alerts() {
		if a.Detection.Template == "xor-decrypt-loop" && a.FrameSource == "smtp-attachment" {
			hit = true
			if a.Src != infected {
				t.Errorf("alert attributed to %v, want %v", a.Src, infected)
			}
		}
	}
	if !hit {
		t.Fatalf("email worm not detected: %v", e.Alerts())
	}
}

// TestBenignAttachmentNotFlagged: a clean binary attachment (functions
// but no decryptor) passes through without alerts.
func TestBenignAttachmentNotFlagged(t *testing.T) {
	g := traffic.NewGen(32)
	cfg := pipelineConfig()
	cfg.Classify.Disabled = true
	e := New(cfg)
	clean := exploits.BenignBinary(5, 8*1024)
	feedAll(t, e, g.InfectedMailSession(netip.MustParseAddr("10.1.1.2"), clean))
	if len(e.Alerts()) != 0 {
		t.Errorf("clean attachment alerted: %v", e.Alerts())
	}
}
