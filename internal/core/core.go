// Package core holds the types every layer of the detector shares —
// Alert, Event, Fingerprint — plus the stream re-analysis gate. The
// packet pipeline itself (the paper's Figure 3) is internal/engine.
package core

import (
	"fmt"
	"net/netip"

	"semnids/internal/classify"
	"semnids/internal/sem"
)

// Alert is one detection event attributed to a flow.
type Alert struct {
	TimestampUS uint64
	Src, Dst    netip.Addr
	SrcPort     uint16
	DstPort     uint16
	Reason      classify.Reason
	FrameSource string
	Detection   sem.Detection
}

func (a Alert) String() string {
	return fmt.Sprintf("[%d.%06d] %s:%d -> %s:%d %s (%s, via %s)",
		a.TimestampUS/1e6, a.TimestampUS%1e6,
		a.Src, a.SrcPort, a.Dst, a.DstPort,
		a.Detection.Template, a.Detection.Severity, a.FrameSource)
}

// ShouldAnalyze is the stream (re)analysis gate: analyze when a
// finished stream holds unanalyzed data, when an unanalyzed stream
// first reaches minBytes, or when the stream has doubled since its last
// analysis — so exploit content split across many segments is still
// caught before close.
func ShouldAnalyze(finished bool, size, lastAnalyzed, minBytes int) bool {
	switch {
	case finished && size > lastAnalyzed:
		return true
	case lastAnalyzed == 0 && size >= minBytes:
		return true
	case lastAnalyzed > 0 && size >= 2*lastAnalyzed:
		return true
	}
	return false
}
