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

// The compiled builtin template set and the analyzer over it are built
// once and shared by the host-scan entry points; both are immutable
// after compilation, so concurrent use is safe.
var (
	builtinOnce     sync.Once
	builtinSet      []*sem.Template
	builtinAnalyzer *sem.Analyzer
)

func builtinTemplates() []*sem.Template {
	builtinOnce.Do(func() {
		builtinSet = sem.BuiltinTemplates()
		for _, t := range builtinSet {
			t.Compile()
		}
		builtinAnalyzer = sem.NewAnalyzer(builtinSet)
	})
	return builtinSet
}

// defaultAnalyzer returns the shared analyzer over the compiled
// builtin set.
func defaultAnalyzer() *sem.Analyzer {
	builtinTemplates()
	return builtinAnalyzer
}

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

// AnalyzeBytes is the host-scan entry point: it runs the semantic
// stages directly over a binary (no network stages), as done for the
// Netsky efficiency comparison.
func AnalyzeBytes(data []byte, tpls []*sem.Template, offsets []int) []sem.Detection {
	if tpls == nil && offsets == nil {
		return defaultAnalyzer().AnalyzeFrame(data)
	}
	if tpls == nil {
		tpls = builtinTemplates()
	}
	a := sem.NewAnalyzer(tpls)
	if offsets != nil {
		a.SweepOffsets = offsets
	}
	return a.AnalyzeFrame(data)
}
