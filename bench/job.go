package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	nids "semnids"
	"semnids/internal/report"
)

// jobResult is one capture analysed: NewEngine → Run(pcap file) → Stop
// → render alerts, incidents and ancestry.
type jobResult struct {
	wall, cpu time.Duration
	render    time.Duration
	alerts    []nids.Alert
	incidents []nids.Incident
	stats     nids.EngineMetrics
	digest    string
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in 10⁶ bytes (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// runJob analyses the capture in dir with a fresh engine, so the
// verdict cache, classifier suspicion and correlator state of one pass
// never leak into the next. The engine reads the file through a
// buffered reader: Run's own reads are two per packet.
func runJob(w *workload, dir string, nshards int) (*jobResult, error) {
	t0, c0 := time.Now(), cpuTime()
	cfg := w.engine
	cfg.Shards = nshards
	e, err := nids.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, traceFile))
	if err != nil {
		e.Stop()
		return nil, err
	}
	err = e.Run(bufio.NewReaderSize(f, 1<<18))
	f.Close()
	e.Stop()
	if err != nil {
		return nil, err
	}
	res := &jobResult{alerts: e.Alerts(), incidents: e.Incidents(), stats: e.Stats()}
	r0 := time.Now()
	res.digest, err = reportDigest(res.alerts, res.incidents, e.Ancestry())
	if err != nil {
		return nil, err
	}
	res.render = time.Since(r0)
	res.wall, res.cpu = time.Since(t0), cpuTime()-c0
	return res, nil
}

// reportDigest renders the job's report and hashes it. Alerts are
// sorted first: the order of Alerts() depends on how the shards were
// scheduled, the set does not.
func reportDigest(alerts []nids.Alert, incidents []nids.Incident, trees []nids.AncestryTree) (string, error) {
	sorted := slices.Clone(alerts)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := &sorted[i], &sorted[j]
		if a.TimestampUS != b.TimestampUS {
			return a.TimestampUS < b.TimestampUS
		}
		if c := a.Src.Compare(b.Src); c != 0 {
			return c < 0
		}
		if c := a.Dst.Compare(b.Dst); c != 0 {
			return c < 0
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		if a.DstPort != b.DstPort {
			return a.DstPort < b.DstPort
		}
		return a.Detection.Template < b.Detection.Template
	})
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, sorted); err != nil {
		return "", err
	}
	if err := report.WriteIncidents(&buf, incidents); err != nil {
		return "", err
	}
	if err := report.WriteAncestry(&buf, trees); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// tally counts ground-truth checks: one operation each.
type tally struct {
	attempted, failed int
	problems          []string // first few failures, for the operator
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
	if len(t.problems) > 8 {
		t.problems = t.problems[:8]
	}
}

// checkJob holds one job's report against the generator's ground
// truth and the reference digest: every malicious delivery alerted
// with an expected template, no benign session alerted, every attacker
// at its expected kill-chain stage, no offered packet shed, and the
// canonical report byte-identical to the shards-1 reference.
func checkJob(w *workload, tr *truth, res *jobResult, refDigest string) tally {
	var t tally
	alerted := make(map[delivery]bool)
	benignAlerts := 0
	for i := range res.alerts {
		a := &res.alerts[i]
		if _, attacker := tr.Stages[a.Src]; !attacker {
			benignAlerts++
			if benignAlerts <= 3 {
				t.problems = append(t.problems, fmt.Sprintf("benign flow alerted: %v", *a))
			}
			continue
		}
		if slices.Contains(w.templates, a.Detection.Template) {
			alerted[delivery{a.Src, a.Dst}] = true
		}
	}
	for _, d := range tr.Deliveries {
		t.check(alerted[d], "delivery %v -> %v not alerted with any of %v", d.Src, d.Dst, w.templates)
	}
	t.attempted += tr.BenignSessions
	t.failed += min(benignAlerts, tr.BenignSessions)

	if w.engine.Correlate {
		stage := make(map[netip.Addr]string, len(res.incidents))
		for i := range res.incidents {
			stage[res.incidents[i].Src] = res.incidents[i].Stage.String()
		}
		for src, want := range tr.Stages {
			t.check(stage[src] == want, "attacker %v at stage %q, want %s", src, stage[src], want)
		}
	}
	t.attempted += tr.Packets
	t.failed += int(res.stats.Dropped)
	t.check(int(res.stats.Packets) == tr.Packets, "engine saw %d packets, trace has %d", res.stats.Packets, tr.Packets)
	t.check(res.digest == refDigest, "report digest %s differs from the shards-1 reference %s", res.digest, refDigest)
	return t
}
