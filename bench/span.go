package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the call (spans inside the program are a later
// change). Root = the staged pass, children = stages, grandchildren =
// chunk calls; harness work that must not be charged to a layer (for
// example copying a stream view so the next stage can consume it) is
// recorded as a child named bench.*, so it drops out of the layer's
// self time.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	In       int64  `json:"in"`
	Out      int64  `json:"out"`
	Bytes    int64  `json:"bytes"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: the same staged pass runs with it to give
// trace.overhead_pct. It is used from one goroutine.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
	stack    []int // indices into spans of the open spans
}

func newRecorder(workload string) *recorder {
	// Room for a large pass up front: growing the slice mid-pass would
	// be charged to whichever span was open.
	return &recorder{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// begin opens a span under the innermost open span and returns its
// handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload,
		StartNS: time.Since(r.epoch).Nanoseconds(),
	})
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the innermost open span, which must be h, with its input
// count, output count and bytes handled.
func (r *recorder) end(h int, in, out, bytes int64) {
	if r == nil {
		return
	}
	if n := len(r.stack); n == 0 || r.stack[n-1] != h {
		panic("bench: span closed out of order")
	}
	r.stack = r.stack[:len(r.stack)-1]
	s := &r.spans[h]
	s.EndNS = time.Since(r.epoch).Nanoseconds()
	s.In, s.Out, s.Bytes = in, out, bytes
}

// layerTotals is the per-name aggregate the per-layer metrics are
// computed from.
type layerTotals struct {
	SelfNS         int64
	In, Out, Bytes int64
	Spans          int
}

// aggregate sums self time (duration minus the part its children
// cover) and the counts per span name.
func aggregate(spans []span) map[string]*layerTotals {
	childNS := make(map[int]int64, len(spans))
	for i := range spans {
		childNS[spans[i].Parent] += spans[i].EndNS - spans[i].StartNS
	}
	out := make(map[string]*layerTotals)
	for i := range spans {
		s := &spans[i]
		t := out[s.Name]
		if t == nil {
			t = &layerTotals{}
			out[s.Name] = t
		}
		t.SelfNS += (s.EndNS - s.StartNS) - childNS[s.ID]
		t.In += s.In
		t.Out += s.Out
		t.Bytes += s.Bytes
		t.Spans++
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
