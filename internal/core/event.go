package core

import (
	"net/netip"

	"semnids/internal/sem"
)

// Fingerprint is a 128-bit payload identity: two independent FNV-1a
// style hashes plus the length folded in. It is shared by the engine's
// verdict cache (memoizing semantic analysis per distinct payload) and
// the incident correlator (recognizing a victim re-emitting the exact
// payload it was attacked with). 128 bits makes an accidental
// collision — a wrong cached verdict, or a false propagation link —
// vanishingly unlikely without storing the payload itself.
type Fingerprint struct {
	A, B uint64
	N    int
}

// IsZero reports whether the fingerprint is unset (no payload was
// fingerprinted — e.g. an event produced on a path with no frame).
func (f Fingerprint) IsZero() bool { return f.A == 0 && f.B == 0 && f.N == 0 }

// Less is the total order on fingerprints — by A, then B, then N —
// that the correlator's evidence caps and the lineage layer break ties
// under.
func (f Fingerprint) Less(g Fingerprint) bool {
	if f.A != g.A {
		return f.A < g.A
	}
	if f.B != g.B {
		return f.B < g.B
	}
	return f.N < g.N
}

// FingerprintOf hashes a payload.
func FingerprintOf(data []byte) Fingerprint {
	const prime = 1099511628211
	h1 := uint64(14695981039346656037) // FNV-1a offset basis
	h2 := uint64(14695981039346656037 ^ 0x9e3779b97f4a7c15)
	for _, c := range data {
		h1 = (h1 ^ uint64(c)) * prime
		h2 = (h2 ^ uint64(c)) * (prime + 2)
	}
	return Fingerprint{A: h1, B: h2, N: len(data)}
}

// SeverityRank orders detection severities for escalation and
// sorting, shared by the batch report and the incident correlator so
// the two can never rank a severity differently.
var SeverityRank = map[string]int{"": 0, "low": 1, "medium": 2, "high": 3, "critical": 4}

// EventKind discriminates pipeline events published to an attached
// correlator.
type EventKind uint8

const (
	// EventFlowOpen: a selected flow was first observed (TCP: first
	// packet of a tracked stream; UDP: the first payload-bearing
	// datagram of a conversation direction, re-emitted after the idle
	// window expires the flow — never once per datagram).
	EventFlowOpen EventKind = iota
	// EventAlert: a detection was emitted. Fingerprint identifies the
	// frame that matched, linking the alert to later re-emissions of
	// the same payload by the victim.
	EventAlert
	// EventFingerprint: an extracted frame was resolved through the
	// verdict path (cache hit or miss alike, so the event stream does
	// not depend on cache state). Fingerprint identifies the frame.
	EventFingerprint
	// EventFlowEvict: a flow was given up (idle or LRU eviction)
	// after its unfinished tail was analyzed. The engine does not
	// publish it; a publisher that mirrors the engine's flow lifecycle
	// may (bench/'s staged pass does). Bookkeeping only: eviction
	// timing varies with shard count and budget, so the correlator
	// counts it and derives nothing from it, not even a source's
	// clock or recency.
	EventFlowEvict
)

// String names the kind for logs and serialized incidents.
func (k EventKind) String() string {
	switch k {
	case EventFlowOpen:
		return "flow-open"
	case EventAlert:
		return "alert"
	case EventFingerprint:
		return "fingerprint"
	case EventFlowEvict:
		return "flow-evict"
	}
	return "unknown"
}

// Event is one typed observation published by the engine's shard hot
// path to the incident correlator. It is a plain value — publishing
// one allocates nothing — and carries trace time, so correlation
// windows behave identically in replay and live capture.
type Event struct {
	Kind        EventKind
	TimestampUS uint64

	// Flow attribution.
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16

	// Fingerprint of the frame behind EventAlert/EventFingerprint.
	Fingerprint Fingerprint

	// Sketch is the frame's structural fingerprint (zero unless the
	// engine runs with lineage enabled and the frame produced
	// detections). Where Fingerprint identifies exact bytes, the
	// sketch identifies what survives polymorphic re-encoding — the
	// lineage plane's symbol.
	Sketch sem.Sketch

	// Template and Severity describe an EventAlert's detection.
	Template string
	Severity string
}
