package traffic

import (
	"net/netip"

	"semnids/internal/exploits"
	"semnids/internal/netpkt"
)

// WormSpec describes a propagating outbreak with known ground truth:
// patient zero scans dark space and exploits its victims; each
// infected victim then scans and re-delivers the *same* payload to
// fresh victims — the scan → exploit → propagation kill chain the
// incident correlator exists to surface. Ground truth: every host in
// a generation before the last reaches PROPAGATION (its victims
// re-emit the payload), the last generation of attackers stops at
// EXPLOIT, and benign background sessions correlate to nothing.
type WormSpec struct {
	Seed int64

	// Payload is the exploit request every infection delivers
	// (default: the Code Red II exploitation vector).
	Payload []byte

	// Generations is the propagation depth: 1 = patient zero only
	// (no host re-emits), 2 = patient zero's victims attack in turn
	// (default 2).
	Generations int

	// FanoutPerHost is how many victims each infected host attacks
	// (default 2).
	FanoutPerHost int

	// ScansPerHost is the dark-space probe count preceding each
	// host's first delivery (default 4; the classifier's default
	// threshold is 3).
	ScansPerHost int

	// BenignSessions interleaves background sessions before each
	// infection (default 2).
	BenignSessions int
}

// WormOutbreak renders the outbreak as an ordered packet slice.
func WormOutbreak(spec WormSpec) []*netpkt.Packet {
	if spec.Payload == nil {
		spec.Payload = exploits.CodeRedIIRequest()
	}
	t := newTree(spec.Generations, spec.FanoutPerHost, spec.ScansPerHost, spec.BenignSessions)
	g := NewGen(spec.Seed)
	return t.walk(g, 16, g.BenignSession, func(host, target netip.Addr) []*netpkt.Packet {
		return g.ScanThenExploit(host, target, 80, spec.Payload, t.scans)
	})
}
