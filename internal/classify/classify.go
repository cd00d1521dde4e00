// Package classify implements the paper's traffic classification stage
// (Section 4.1): deciding which packets are "interesting" enough to be
// passed to the CPU-intensive binary extraction and semantic analysis
// stages. Two schemes are implemented, exactly as in the prototype:
//
//  1. Honeypot: a configured list of decoy addresses that exist only to
//     attract unsolicited traffic. Any host that sends anything to a
//     decoy is suspicious from then on.
//  2. Dark address space: the network's unused address ranges are
//     registered; a source that touches t distinct unused addresses is
//     considered a scanner and all its subsequent traffic is analyzed.
package classify

import (
	"net/netip"
	"sort"
	"sync"

	"semnids/internal/netpkt"
)

// Reason explains why a packet was selected for analysis.
type Reason string

const (
	ReasonNone       Reason = ""
	ReasonHoneypot   Reason = "destination is a honeypot decoy"
	ReasonScanner    Reason = "source exceeded dark-space scan threshold"
	ReasonSuspicious Reason = "source previously marked suspicious"
	ReasonAll        Reason = "classification disabled"
)

// Config parameterizes the classifier.
type Config struct {
	// Honeypots are decoy addresses registered with the NIDS.
	Honeypots []netip.Addr

	// DarkSpace lists the un-used address prefixes of the protected
	// network.
	DarkSpace []netip.Prefix

	// ScanThreshold is t: the number of distinct dark addresses a
	// source must touch to be declared a scanner. Default 3.
	ScanThreshold int

	// Disabled forwards every packet to analysis (the Section 5.4
	// false-positive experiment).
	Disabled bool
}

// Classifier tracks per-source state and renders verdicts. It is safe
// for concurrent use.
type Classifier struct {
	cfg Config

	mu         sync.Mutex
	honeypots  map[netip.Addr]bool
	suspicious map[netip.Addr]uint64 // source -> expiry timestamp
	darkSeen   map[netip.Addr]map[netip.Addr]bool

	// Counters for metrics.
	total, selected uint64
}

// DefaultScanThreshold is Config.ScanThreshold's default.
const DefaultScanThreshold = 3

// suspiciousTTLUS is how long (in trace microseconds) a source stays
// suspicious after its last triggering event: 10 minutes.
const suspiciousTTLUS = 10 * 60 * 1e6

// New builds a classifier from cfg.
func New(cfg Config) *Classifier {
	if cfg.ScanThreshold <= 0 {
		cfg.ScanThreshold = DefaultScanThreshold
	}
	c := &Classifier{
		cfg:        cfg,
		honeypots:  make(map[netip.Addr]bool, len(cfg.Honeypots)),
		suspicious: make(map[netip.Addr]uint64),
		darkSeen:   make(map[netip.Addr]map[netip.Addr]bool),
	}
	for _, h := range cfg.Honeypots {
		c.honeypots[h] = true
	}
	return c
}

func (c *Classifier) inDarkSpace(a netip.Addr) bool {
	for _, p := range c.cfg.DarkSpace {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// Classify examines one packet and reports whether it should be
// analyzed, with the triggering reason.
func (c *Classifier) Classify(p *netpkt.Packet) (bool, Reason) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if c.cfg.Disabled {
		c.selected++
		return true, ReasonAll
	}

	now := p.TimestampUS
	src := p.SrcIP

	// Scheme 1: honeypot decoys.
	if c.honeypots[p.DstIP] {
		c.suspicious[src] = now + suspiciousTTLUS
		c.selected++
		return true, ReasonHoneypot
	}

	// Scheme 2: dark address space scanning.
	if c.inDarkSpace(p.DstIP) {
		seen := c.darkSeen[src]
		if seen == nil {
			seen = make(map[netip.Addr]bool)
			c.darkSeen[src] = seen
		}
		seen[p.DstIP] = true
		if len(seen) >= c.cfg.ScanThreshold {
			c.suspicious[src] = now + suspiciousTTLUS
			c.selected++
			return true, ReasonScanner
		}
	}

	// Previously marked sources stay interesting until expiry.
	if expiry, ok := c.suspicious[src]; ok {
		if now <= expiry {
			// Refresh: an active attacker stays on the list.
			c.suspicious[src] = now + suspiciousTTLUS
			c.selected++
			return true, ReasonSuspicious
		}
		delete(c.suspicious, src)
		delete(c.darkSeen, src)
	}
	return false, ReasonNone
}

// MarkSuspicious force-registers a source (used when an alert fires,
// so follow-on traffic from the attacker is captured).
func (c *Classifier) MarkSuspicious(src netip.Addr, nowUS uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.suspicious[src] = nowUS + suspiciousTTLUS
}

// SourceState is one source's exportable classification state: its
// suspicious-list expiry and the distinct dark-space addresses it has
// touched. The dark set is the sub-threshold scan evidence — a
// restarted sensor that re-imports it does not grant a slow scanner a
// fresh start at zero. It travels in evidence exports as is (the json
// tags are its wire form).
type SourceState struct {
	Src netip.Addr `json:"src"`

	// SuspiciousUntilUS is the trace-time expiry of the source's
	// suspicious mark (honeypot contact, completed scan, or alert);
	// zero when the source is only part-way to a verdict.
	SuspiciousUntilUS uint64 `json:"suspicious_until_us,omitempty"`

	// Dark is the sorted set of distinct dark-space addresses the
	// source has touched. Membership is the evidence; the scan count
	// is its length.
	Dark []netip.Addr `json:"dark,omitempty"`
}

// ExportState snapshots every source with classification state, in a
// canonical order (sources by address, dark sets sorted) so the same
// state always renders the same value.
func (c *Classifier) ExportState() []SourceState {
	c.mu.Lock()
	defer c.mu.Unlock()
	bySrc := make(map[netip.Addr]*SourceState, len(c.suspicious)+len(c.darkSeen))
	get := func(src netip.Addr) *SourceState {
		s := bySrc[src]
		if s == nil {
			s = &SourceState{Src: src}
			bySrc[src] = s
		}
		return s
	}
	for src, expiry := range c.suspicious {
		get(src).SuspiciousUntilUS = expiry
	}
	for src, seen := range c.darkSeen {
		s := get(src)
		for d := range seen {
			s.Dark = append(s.Dark, d)
		}
		sort.Slice(s.Dark, func(i, j int) bool { return s.Dark[i].Less(s.Dark[j]) })
	}
	out := make([]SourceState, 0, len(bySrc))
	for _, s := range bySrc {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src.Less(out[j].Src) })
	return out
}

// ImportState folds exported classification state back in: dark sets
// union, suspicious expiries fold to the maximum — commutative and
// idempotent, like the evidence folds this state travels with. A
// union that crosses the scan threshold does not mark the source
// suspicious retroactively (there is no "now" to anchor the TTL);
// the source's next dark-space touch completes the verdict, exactly
// as one more live touch would have.
func (c *Classifier) ImportState(states []SourceState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range states {
		st := &states[i]
		if st.SuspiciousUntilUS > c.suspicious[st.Src] {
			c.suspicious[st.Src] = st.SuspiciousUntilUS
		}
		if len(st.Dark) > 0 {
			seen := c.darkSeen[st.Src]
			if seen == nil {
				seen = make(map[netip.Addr]bool, len(st.Dark))
				c.darkSeen[st.Src] = seen
			}
			for _, d := range st.Dark {
				seen[d] = true
			}
		}
	}
}

// SuspiciousCount reports the current registry size.
func (c *Classifier) SuspiciousCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.suspicious)
}

// Stats returns (total packets seen, packets selected for analysis).
func (c *Classifier) Stats() (total, selected uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total, c.selected
}
