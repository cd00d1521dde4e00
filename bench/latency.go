package main

import (
	"bufio"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	nids "semnids"
	"semnids/internal/netpkt"
)

// maxGenLagMS is how late the open-loop generator may run (p95) before
// the latency phase measures the generator instead of the engine and
// is marked invalid.
const maxGenLagMS = 2.0

// pacer releases frames on a schedule derived from their capture
// timestamps: a frame stamped ts is due at start + (ts-first)/speed.
type pacer struct {
	start   time.Time
	firstUS uint64
	speed   float64
}

// due is when the frame stamped tsUS is to be released.
func (p *pacer) due(tsUS uint64) time.Time {
	return p.start.Add(time.Duration(float64(tsUS-p.firstUS) / p.speed * float64(time.Microsecond)))
}

// waitUntil blocks until t and never returns early. It sleeps only
// through the part of a wait that is safely longer than the timer
// granularity (a sleep overshoots by about a millisecond here) and
// yields through the rest.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 4*time.Millisecond {
			time.Sleep(d - 3*time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

type fiveTuple struct {
	src, dst     netip.Addr
	sport, dport uint16
}

// latencyResult is one open-loop pass.
type latencyResult struct {
	alertMS  []float64 // per alert: due time of the flow's last fed frame → OnAlert
	lagMS    []float64 // per frame: due → actually released
	offered  int
	shed     uint64
	duration time.Duration
}

// runLatencyPhase feeds the capture once through a fresh long-lived
// engine (shed on overload, so a slow engine cannot slow the
// generator), one frame at a time at its due time, from this
// goroutine. Each alert is timed from the due time of the last frame
// fed on its 5-tuple — due, not sent, so a stalled generator's delay
// counts against the result instead of hiding in it.
func runLatencyPhase(w *workload, dir string) (*latencyResult, error) {
	var (
		mu      sync.Mutex
		lastDue = make(map[fiveTuple]time.Time)
		res     = &latencyResult{}
	)
	cfg := w.engine
	cfg.Shards = shards
	cfg.ShedOnOverload = true
	cfg.OnAlert = func(a nids.Alert) {
		now := time.Now()
		mu.Lock()
		if due, ok := lastDue[fiveTuple{a.Src, a.Dst, a.SrcPort, a.DstPort}]; ok {
			res.alertMS = append(res.alertMS, float64(now.Sub(due).Nanoseconds())/1e6)
		}
		mu.Unlock()
	}
	e, err := nids.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer e.Stop()
	f, err := os.Open(filepath.Join(dir, traceFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pr, err := netpkt.NewPcapReader(bufio.NewReaderSize(f, 1<<18))
	if err != nil {
		return nil, err
	}

	var pc *pacer
	for {
		frame, ts, err := pr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if pc == nil {
			pc = &pacer{start: time.Now(), firstUS: ts, speed: w.latencySpeed}
		}
		due := pc.due(ts)
		waitUntil(due)
		if p, err := netpkt.Parse(frame); err == nil {
			mu.Lock()
			lastDue[fiveTuple{p.SrcIP, p.DstIP, p.SrcPort, p.DstPort}] = due
			mu.Unlock()
		}
		res.lagMS = append(res.lagMS, float64(time.Since(due).Nanoseconds())/1e6)
		// A frame the parser refuses is not offered; the traces hold none.
		if e.ProcessFrame(frame, ts) == nil {
			res.offered++
		}
	}
	e.Drain()
	if pc != nil {
		res.duration = time.Since(pc.start)
	}
	res.shed = e.Stats().Dropped
	return res, nil
}
