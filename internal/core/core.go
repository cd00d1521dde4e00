// Package core holds the types every layer of the detector shares —
// Alert, Event, Fingerprint — plus the stream re-analysis gate and the
// host-scan entry points that run the semantic stages outside any
// packet pipeline. The packet pipeline itself (the paper's Figure 3) is
// internal/engine.
package core

import (
	"fmt"
	"net/netip"
	"sync"

	"semnids/internal/classify"
	"semnids/internal/extract"
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

// defaultAnalyzer is the analyzer over the compiled builtin template
// set, built once and shared by the host-scan entry points; it and its
// templates are immutable after compilation, so concurrent use is
// safe.
var defaultAnalyzer = sync.OnceValue(func() *sem.Analyzer {
	return sem.NewAnalyzer(sem.BuiltinTemplates())
})

// AnalyzePayload runs extraction and the semantic stages over one
// application payload, outside any pipeline instance, with the shared
// compiled builtin analyzer.
func AnalyzePayload(payload []byte) []sem.Detection {
	a := defaultAnalyzer()
	var out []sem.Detection
	seen := make(map[string]bool)
	for _, f := range extract.Extract(payload) {
		for _, d := range a.AnalyzeFrameCached(f.Data, f.Code) {
			if !seen[d.Template] {
				seen[d.Template] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// AnalyzeBytes is the host-scan entry point: it runs the builtin
// templates directly over a binary (no network stages), as done for
// the Netsky efficiency comparison. offsets replaces the analyzer's
// sweep offsets; nil keeps them.
func AnalyzeBytes(data []byte, offsets []int) []sem.Detection {
	if offsets == nil {
		return defaultAnalyzer().AnalyzeFrame(data)
	}
	a := sem.NewAnalyzer(defaultAnalyzer().Templates)
	a.SweepOffsets = offsets
	return a.AnalyzeFrame(data)
}
