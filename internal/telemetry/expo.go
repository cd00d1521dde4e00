package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), hand-rolled so the sensor
// carries no client-library dependency. Families are emitted in
// sorted order with one # HELP / # TYPE header each; labeled series
// of the same family group under that single header. Histograms
// expand to cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count`, with only populated buckets (plus +Inf) emitted to keep
// scrape payloads proportional to observed spread, not to the fixed
// 488-slot backing array.
func WritePrometheus(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	lastFam := ""
	for _, e := range r.sorted() {
		fam, labels := family(e.name)
		if fam != lastFam {
			if e.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", fam, e.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typeString(e.kind))
			lastFam = fam
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", e.name, e.counterValue())
		case kindGauge:
			fmt.Fprintf(bw, "%s %d\n", e.name, e.gaugeValue())
		case kindHistogram:
			writePromHistogram(bw, fam, labels, e.hist.Snapshot())
		}
	}
	return bw.Flush()
}

func typeString(k kind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// writePromHistogram emits the cumulative bucket expansion of one
// histogram series, splicing `le` into any existing label set.
func writePromHistogram(w io.Writer, fam, labels string, s HistSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", fam, labels, sep, b.Upper, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", fam, labels, sep, cum)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", fam, labels, s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, s.Count)
}

// HistStats is the digest form of a histogram in a status snapshot:
// quantiles precomputed so consumers (humans, JSON-lines scrapers)
// need no bucket math.
type HistStats struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

// StatusSnapshot is the JSON shape served at /statusz and emitted by
// `semnids -stats-interval`: every registered series at one point in
// time, plus caller-supplied identity fields.
type StatusSnapshot struct {
	TakenUnixUS int64                `json:"taken_unix_us"`
	Info        map[string]any       `json:"info,omitempty"`
	Counters    map[string]uint64    `json:"counters,omitempty"`
	Gauges      map[string]int64     `json:"gauges,omitempty"`
	Histograms  map[string]HistStats `json:"histograms,omitempty"`
}

// Snapshot collects every registered series. info is merged verbatim
// into the snapshot's identity block (sensor id, uptime, ...).
func (r *Registry) StatusSnapshot(info map[string]any) StatusSnapshot {
	s := StatusSnapshot{
		TakenUnixUS: time.Now().UnixMicro(),
		Info:        info,
		Counters:    map[string]uint64{},
		Gauges:      map[string]int64{},
		Histograms:  map[string]HistStats{},
	}
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			s.Counters[e.name] = e.counterValue()
		case kindGauge:
			s.Gauges[e.name] = e.gaugeValue()
		case kindHistogram:
			hs := e.hist.Snapshot()
			s.Histograms[e.name] = HistStats{
				Count: hs.Count, Sum: hs.Sum, Max: hs.Max,
				P50: hs.Quantile(0.50), P90: hs.Quantile(0.90), P99: hs.Quantile(0.99),
			}
		}
	}
	return s
}

// WriteStatusJSON renders one status snapshot as a single JSON
// document (no trailing newline beyond the encoder's): the shared
// encoder behind /statusz and the -stats-interval JSON-lines emitter.
func WriteStatusJSON(w io.Writer, r *Registry, info map[string]any) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.StatusSnapshot(info))
}
