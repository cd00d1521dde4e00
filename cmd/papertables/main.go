// Command papertables regenerates every table of the paper's
// evaluation (Section 5) against the reproduction:
//
//	Table 1  — Linux shell-spawning buffer overflow exploits
//	Table 2  — Polymorphic shellcode detection (iis-asp-overflow,
//	           ADMmutate ×100, Clet ×100, with and without the
//	           alternate-decoder template)
//	Table 3  — Code Red II worm detection in 12 traces
//	§5.1     — Efficiency comparison against the whole-input baseline
//	§5.4     — False-positive evaluation with classification disabled
//
// Absolute times differ from the paper's 2.8 GHz Pentium 4; the shapes
// (who is detected, who wins, by what factor) are the reproduction
// target. Use -scale to shrink the Table 3 / §5.4 workloads for quick
// runs (e.g. -scale 0.05). A per-payload time is the median of
// warmRuns runs after an untimed one; a Table 3 trace and the §5.4
// corpus are timed once.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"
	"strings"
	"time"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/polymorph"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
	"semnids/internal/traffic"
)

var (
	scale = flag.Float64("scale", 1.0, "workload scale for Table 3 and the false-positive run")
	only  = flag.String("only", "", "run only one section: table1|table2|table3|efficiency|fp")
)

// sections are the tables in the order they print. Each writes its
// table to w and returns its detection columns, one line per row; the
// times are left out, and testdata/detections.golden holds the rest.
var sections = []struct {
	name string
	run  func(w io.Writer, scale float64) []string
}{
	{"table1", table1},
	{"table2", table2},
	{"table3", table3},
	{"efficiency", efficiency},
	{"fp", falsePositives},
}

func main() {
	flag.Parse()
	for _, s := range sections {
		if *only == "" || *only == s.name {
			s.run(os.Stdout, *scale)
		}
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// warmRuns is the number of timed runs a per-payload time is the
// median of.
const warmRuns = 9

// warmMedian runs f once untimed, so that template compilation and
// pool warm-up fall outside the timing, then warmRuns times, and
// returns the median of those.
func warmMedian(f func()) time.Duration {
	f()
	d := make([]time.Duration, warmRuns)
	for i := range d {
		start := time.Now()
		f()
		d[i] = time.Since(start)
	}
	slices.Sort(d)
	return d[len(d)/2]
}

func defaultCfg() engine.Config {
	return engine.Config{
		Classify: classify.Config{
			Honeypots:     []netip.Addr{traffic.HoneypotAddr},
			DarkSpace:     []netip.Prefix{traffic.DarkNet},
			ScanThreshold: 3,
		},
	}
}

// analyzePayloadTimed runs extraction + semantic analysis over one
// application payload and returns the templates it detected with the
// warm median time of the analysis.
func analyzePayloadTimed(payload []byte) (map[string]bool, time.Duration) {
	out := make(map[string]bool)
	dur := warmMedian(func() {
		clear(out)
		for _, d := range core.AnalyzePayload(payload) {
			out[d.Template] = true
		}
	})
	return out, dur
}

// table1 reproduces "Table 1. Linux shell spawning buffer overflow
// exploits": eight exploits delivered at a honeypot, per-exploit
// detection and analysis time, plus the Netsky-sized binaries.
func table1(w io.Writer, _ float64) []string {
	header(w, "Table 1 — Linux shell-spawning buffer overflow exploits")
	fmt.Fprintf(w, "%-18s %-6s %-9s %-10s %-12s %s\n",
		"exploit", "proto", "detected", "binds-port", "analysis", "paper-time")
	paperTimes := []string{"2.36s", "2.49s", "2.61s", "2.74s", "2.88s", "3.01s", "3.14s", "3.27s"}
	var rows []string
	for i, e := range exploits.Table1Exploits() {
		ds, dur := analyzePayloadTimed(e.Payload)
		detected := ds["linux-shell-spawn"]
		bind := ds["port-bind-shell"]
		fmt.Fprintf(w, "%-18s %-6s %-9v %-10v %-12s %s\n",
			e.Name, e.Kind, detected, bind, dur.Round(time.Microsecond), paperTimes[i])
		rows = append(rows, fmt.Sprintf("table1 %s detected=%v binds-port=%v", e.Name, detected, bind))
	}
	for _, seed := range []int64{1, 2} {
		bin := exploits.NetskyBinary(seed, 22*1024)
		found := false
		dur := warmMedian(func() {
			found = false
			for _, d := range core.AnalyzeBytes(bin, nil) {
				found = found || d.Template == "xor-decrypt-loop"
			}
		})
		name := fmt.Sprintf("netsky-variant-%d", seed)
		fmt.Fprintf(w, "%-18s %-6s %-9v %-10s %-12s %s\n",
			name, "host", found, "-", dur.Round(time.Microsecond), "~6.5s (vs ~40s in [5])")
		rows = append(rows, fmt.Sprintf("table1 %s detected=%v", name, found))
	}
	return rows
}

// table2 reproduces "Table 2. Polymorphic shellcode detection".
func table2(w io.Writer, _ float64) []string {
	header(w, "Table 2 — Polymorphic shellcode detection")
	payload := shellcode.ClassicPush().Bytes
	xorOnly := sem.NewAnalyzer(sem.XorOnlyTemplates())
	full := sem.NewAnalyzer(sem.BuiltinTemplates())

	detected := func(a *sem.Analyzer, frame []byte) bool {
		for _, d := range a.AnalyzeFrame(frame) {
			if d.Template == "xor-decrypt-loop" || d.Template == "admmutate-alt-decode-loop" {
				return true
			}
		}
		return false
	}

	// iis-asp-overflow: one instance through the full network path.
	e := exploits.IISASPOverflow()
	ds, dur := analyzePayloadTimed(e.Payload)
	iis := b2i(ds["xor-decrypt-loop"])
	fmt.Fprintf(w, "%-22s %3d/%3d with xor template          (paper: 1/1, 2.14s; ours: %s)\n",
		"iis-asp-overflow", iis, 1, dur.Round(time.Microsecond))

	// ADMmutate ×100: first with the xor template only, then with the
	// alternate-decoder template added (the paper's 68% -> 100% step).
	eng := polymorph.NewADMmutate(20060612)
	samples := make([][]byte, 100)
	for i := range samples {
		s, _, err := eng.Encode(payload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		samples[i] = s
	}
	xorHits, fullHits := 0, 0
	for _, s := range samples {
		if detected(xorOnly, s) {
			xorHits++
		}
		if detected(full, s) {
			fullHits++
		}
	}
	fmt.Fprintf(w, "%-22s %3d/100 with xor template          (paper:  68/100)\n", "ADMmutate", xorHits)
	fmt.Fprintf(w, "%-22s %3d/100 with both decoder templates (paper: 100/100)\n", "ADMmutate", fullHits)

	// Clet ×100 with the xor template alone.
	clet := polymorph.NewClet(1999)
	cletHits := 0
	for i := 0; i < 100; i++ {
		s, _, err := clet.Encode(payload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if detected(xorOnly, s) {
			cletHits++
		}
	}
	fmt.Fprintf(w, "%-22s %3d/100 with xor template          (paper: 100/100)\n", "Clet", cletHits)
	return []string{
		fmt.Sprintf("table2 iis-asp-overflow xor=%d/1", iis),
		fmt.Sprintf("table2 ADMmutate xor=%d/100", xorHits),
		fmt.Sprintf("table2 ADMmutate both=%d/100", fullHits),
		fmt.Sprintf("table2 Clet xor=%d/100", cletHits),
	}
}

// table3 reproduces "Table 3. Detection of the Code Red II Worm":
// twelve 5-minute traces of >200k packets with known instance counts.
func table3(w io.Writer, scale float64) []string {
	header(w, "Table 3 — Detection of the Code Red II worm (12 traces)")
	// Paper instance counts per trace.
	instances := []int{3, 1, 4, 2, 5, 2, 1, 3, 6, 2, 4, 3}
	// >200k packets per trace at scale 1.0. One benign session
	// averages ~5.6 packets (DNS exchanges pull the mean down), so
	// 37000 sessions ≈ 207k packets.
	sessions := int(37000 * scale)
	if sessions < 200 {
		sessions = 200
	}
	fmt.Fprintf(w, "%-7s %-10s %-9s %-9s %-8s %s\n",
		"trace", "packets", "actual", "detected", "correct", "time")
	okAll := true
	var rows []string
	for i, actual := range instances {
		spec := traffic.TraceSpec{
			Seed:             int64(100 + i),
			BenignSessions:   sessions,
			CodeRedInstances: actual,
		}
		n := engine.New(defaultCfg())
		start := time.Now()
		err := traffic.Stream(spec, func(p *netpkt.Packet) error {
			n.Process(p)
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n.Stop()
		dur := time.Since(start)
		srcs := make(map[netip.Addr]bool)
		for _, a := range n.Alerts() {
			if a.Detection.Template == "code-red-ii" {
				srcs[a.Src] = true
			}
		}
		got := len(srcs)
		ok := got == actual
		okAll = okAll && ok
		m := n.Snapshot()
		fmt.Fprintf(w, "%-7d %-10d %-9d %-9d %-8v %s\n",
			i+1, m.Packets, actual, got, ok, dur.Round(time.Millisecond))
		rows = append(rows, fmt.Sprintf("table3 trace=%d actual=%d detected=%d correct=%v", i+1, actual, got, ok))
	}
	fmt.Fprintf(w, "all traces correct: %v (paper: every instance classified and matched correctly)\n", okAll)
	return append(rows, fmt.Sprintf("table3 all-correct=%v", okAll))
}

// efficiency reproduces the Section 5.1 comparison: the pruned
// pipeline versus the exhaustive whole-input baseline of [5] on the
// same 22 KB virus-sized binary. It has no detection column.
func efficiency(w io.Writer, _ float64) []string {
	header(w, "§5.1 — Efficiency: extraction-pruned pipeline vs whole-input baseline")
	bin := exploits.NetskyBinary(1, 22*1024)

	ours := warmMedian(func() { core.AnalyzeBytes(bin, []int{0, 1, 2, 3}) })
	baseline := warmMedian(func() {
		core.AnalyzeBytes(bin, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	})

	fmt.Fprintf(w, "semantic scan, pruned offsets:      %12s   (paper: ~6.5s on a P4 2.8GHz)\n", ours.Round(time.Microsecond))
	fmt.Fprintf(w, "exhaustive offsets ([5]-style):     %12s   (paper: ~40s reported in [5])\n", baseline.Round(time.Microsecond))
	fmt.Fprintf(w, "speedup: %.1fx (paper: ~6.2x)\n", float64(baseline)/float64(ours))
	return nil
}

// falsePositives reproduces Section 5.4: classification disabled,
// every payload analyzed over a large benign corpus; expect zero
// alerts.
func falsePositives(w io.Writer, scale float64) []string {
	header(w, "§5.4 — False-positive evaluation (classification disabled)")
	target := int(566 * 1024 * 1024 * scale) // paper: 566MB of traffic
	cfg := defaultCfg()
	cfg.Classify.Disabled = true
	n := engine.New(cfg)
	g := traffic.NewGen(424242)
	bytesFed := 0
	sessions := 0
	start := time.Now()
	for bytesFed < target {
		for _, p := range g.BenignSession() {
			bytesFed += len(p.Payload)
			n.Process(p)
		}
		sessions++
	}
	n.Stop()
	dur := time.Since(start)
	m := n.Snapshot()
	fmt.Fprintf(w, "benign traffic analyzed: %.1f MB in %d sessions (%d packets) in %s\n",
		float64(bytesFed)/(1<<20), sessions, m.Packets, dur.Round(time.Millisecond))
	fmt.Fprintf(w, "frames disassembled: %d (%.2f MB)\n", m.Frames, float64(m.FrameBytes)/(1<<20))
	fmt.Fprintf(w, "false positives: %d (paper: 0 over 566MB)\n", m.Alerts)
	if m.Alerts > 0 {
		for _, a := range n.Alerts() {
			fmt.Fprintln(w, "  FP:", a)
		}
	}
	return []string{fmt.Sprintf("fp false-positives=%d", m.Alerts)}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
