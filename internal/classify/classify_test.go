package classify

import (
	"net/netip"
	"testing"

	"semnids/internal/netpkt"
)

func pkt(src, dst string, ts uint64) *netpkt.Packet {
	return &netpkt.Packet{
		SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
		Proto: netpkt.ProtoTCP, HasTCP: true, TimestampUS: ts,
	}
}

func newTestClassifier(disabled bool) *Classifier {
	return New(Config{
		Honeypots:     []netip.Addr{netip.MustParseAddr("192.168.1.250")},
		DarkSpace:     []netip.Prefix{netip.MustParsePrefix("192.168.2.0/24")},
		ScanThreshold: 3,
		Disabled:      disabled,
	})
}

func TestHoneypotScheme(t *testing.T) {
	c := newTestClassifier(false)
	// Normal traffic from a clean host: not selected.
	if ok, _ := c.Classify(pkt("10.0.0.5", "192.168.1.10", 0)); ok {
		t.Error("clean traffic selected")
	}
	// Touching the decoy flags the source.
	ok, reason := c.Classify(pkt("10.0.0.5", "192.168.1.250", 1))
	if !ok || reason != ReasonHoneypot {
		t.Fatalf("honeypot hit: ok=%v reason=%q", ok, reason)
	}
	// All subsequent traffic from that source is analyzed.
	ok, reason = c.Classify(pkt("10.0.0.5", "192.168.1.10", 2))
	if !ok || reason != ReasonSuspicious {
		t.Errorf("follow-on traffic: ok=%v reason=%q", ok, reason)
	}
	// Other sources remain unaffected.
	if ok, _ := c.Classify(pkt("10.0.0.6", "192.168.1.10", 3)); ok {
		t.Error("unrelated source selected")
	}
}

func TestDarkSpaceScheme(t *testing.T) {
	c := newTestClassifier(false)
	// First two distinct dark addresses: below threshold t=3.
	if ok, _ := c.Classify(pkt("10.9.9.9", "192.168.2.1", 0)); ok {
		t.Error("first dark touch selected")
	}
	if ok, _ := c.Classify(pkt("10.9.9.9", "192.168.2.2", 1)); ok {
		t.Error("second dark touch selected")
	}
	// Re-touching the same address does not advance the count.
	if ok, _ := c.Classify(pkt("10.9.9.9", "192.168.2.2", 2)); ok {
		t.Error("duplicate dark address advanced the counter")
	}
	// Third distinct address crosses t.
	ok, reason := c.Classify(pkt("10.9.9.9", "192.168.2.3", 3))
	if !ok || reason != ReasonScanner {
		t.Fatalf("threshold crossing: ok=%v reason=%q", ok, reason)
	}
	// Now its traffic to real hosts is analyzed.
	ok, reason = c.Classify(pkt("10.9.9.9", "192.168.1.20", 4))
	if !ok || reason != ReasonSuspicious {
		t.Errorf("scanner follow-on: ok=%v reason=%q", ok, reason)
	}
}

func TestSuspiciousExpiry(t *testing.T) {
	c := New(Config{Honeypots: []netip.Addr{netip.MustParseAddr("192.168.1.250")}})
	c.Classify(pkt("10.0.0.5", "192.168.1.250", 0))
	if c.SuspiciousCount() != 1 {
		t.Fatal("source not registered")
	}
	// Within the 10-minute TTL: still suspicious.
	const half = suspiciousTTLUS / 2
	if ok, _ := c.Classify(pkt("10.0.0.5", "192.168.1.10", half)); !ok {
		t.Error("expired too early")
	}
	// The hit refreshed the TTL; jump just past it.
	if ok, _ := c.Classify(pkt("10.0.0.5", "192.168.1.10", half+suspiciousTTLUS+1)); ok {
		t.Error("expired entry still selected")
	}
	if c.SuspiciousCount() != 0 {
		t.Error("expired entry not removed")
	}
}

func TestDisabledSelectsEverything(t *testing.T) {
	c := newTestClassifier(true)
	ok, reason := c.Classify(pkt("10.0.0.5", "192.168.1.10", 0))
	if !ok || reason != ReasonAll {
		t.Errorf("disabled classifier: ok=%v reason=%q", ok, reason)
	}
	total, selected := c.Stats()
	if total != 1 || selected != 1 {
		t.Errorf("stats: %d/%d", selected, total)
	}
}

func TestMarkSuspicious(t *testing.T) {
	c := newTestClassifier(false)
	c.MarkSuspicious(netip.MustParseAddr("10.1.1.1"), 0)
	if ok, _ := c.Classify(pkt("10.1.1.1", "192.168.1.10", 5)); !ok {
		t.Error("manually marked source not selected")
	}
}

func TestStats(t *testing.T) {
	c := newTestClassifier(false)
	for i := 0; i < 10; i++ {
		c.Classify(pkt("10.0.0.5", "192.168.1.10", uint64(i)))
	}
	c.Classify(pkt("10.0.0.5", "192.168.1.250", 11))
	total, selected := c.Stats()
	if total != 11 || selected != 1 {
		t.Errorf("stats: %d/%d", selected, total)
	}
}
