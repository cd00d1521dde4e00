// Command semnids runs the semantics-aware NIDS over a pcap trace and
// prints alerts and pipeline statistics.
//
// Usage:
//
//	semnids -pcap trace.pcap [-honeypot 192.168.1.250] [-dark 192.168.2.0/24]
//	        [-all] [-fullscan] [-shards N] [-shed] [-replay] [-speed X]
//	        [-udp-flows] [-udp-idle 10s]
//	        [-correlate] [-incident-window 30s] [-stats]
//	        [-sensor ID] [-export FILE] [-import-incidents FILE] [-export-dir DIR]
//	        [-export-keep N] [-push URL] [-push-wait 5s]
//	        [-listen :9443] [-stats-interval 10s]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The trace is fed through the flow-sharded engine (-shards sets the
// parallelism, default one shard per CPU). With -all the classifier is
// disabled and every payload is analyzed (the paper's Section 5.4
// configuration). -replay paces packets by their capture timestamps
// (-speed scales the pace, 1 = real time), exercising flow eviction and
// the verdict cache as live traffic would. -correlate attaches the
// incident correlator: per-source kill-chain tracking
// (RECON → EXPLOIT → PROPAGATION) with the fan-out window set by
// -incident-window; incidents print as a table, or as JSONL after the
// alerts with -json. -stats prints per-shard load gauges (EWMA
// packets/sec, queue depth) and correlator counters.
//
// -lineage (implies -correlate) computes structural fingerprints —
// the semantic sketch of what a polymorphic engine cannot cheaply
// randomize — for every hostile payload and traces payload ancestry:
// reconstructed infection trees print after the incident table (or as
// JSONL trees with -json). Lineage observations ride evidence exports,
// so federated sensors reconstruct the same forest an all-seeing solo
// sensor would.
//
// Federation (each of these implies -correlate): -export writes the
// correlator's evidence state — per-source min-K timestamp sets,
// fingerprints, derived stage, stamped with -sensor for provenance —
// at exit; -import-incidents seeds the correlator from such an export
// before the run; -export-dir attaches the durable sink (size/age-
// rotated evidence segments, crash recovery on restart). Fold several
// sensors' exports into one report with cmd/fedmerge.
//
// -push streams committed evidence segments to federation
// aggregators (cmd/fedagg) with retry/backoff; the sink directory
// (-export-dir, required) is the spool, so an unreachable aggregator
// costs lag, never ingest. Several comma-separated URLs form a
// failover list: pushes go to the first, demote to the next on
// sustained failure, and promote back when a probe finds an earlier
// one healthy. Every push body is gzip. -export-keep bounds the
// spool (segments pruned past it before ack are counted as dropped —
// lag, not loss, since checkpoints are full snapshots). -push-wait
// bounds a best-effort wait at exit for the aggregator to ack the
// spool; -stats adds the push transport's health line
// (pushed/acked/retried/spooled, backoff).
//
// -listen serves the live telemetry surface while the run lasts:
// /metrics (Prometheus text exposition), /statusz (JSON snapshot of
// every registered series), /healthz (readiness: spool recovered,
// engine running) and /debug/pprof. -stats-interval emits the /statusz
// document to stderr as one JSON line per interval — the same encoder,
// usable with or without -listen, so headless runs still leave a
// machine-readable telemetry trail.
//
// -cpuprofile and -memprofile write pprof profiles of the run (CPU
// for its duration, heap at exit), so operators can profile a live
// sensor configuration with `go tool pprof` without rebuilding.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	nids "semnids"
	"semnids/internal/classify"
	"semnids/internal/engine"
	"semnids/internal/fed"
	"semnids/internal/fed/transport"
	"semnids/internal/incident"
	"semnids/internal/report"
)

func main() {
	os.Exit(run())
}

// options is the command line: the engine configuration, which flags
// set in place, and the flags that steer the command itself.
type options struct {
	cfg nids.EngineConfig

	pcap, scan, templates, honeypots, dark, push       string
	export, importPath, listen, cpuProfile, memProfile string
	quiet, json, summary, replay, stats                bool
	speed                                              float64
	pushWait, statsEvery                               time.Duration
}

// bindFlags registers the command's flags on fs. Defaults the packages
// own come from their constants.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	c := &o.cfg
	fs.StringVar(&o.pcap, "pcap", "", "pcap trace to analyze")
	fs.StringVar(&o.scan, "scan", "", "binary file to host-scan instead of a trace")
	fs.StringVar(&o.honeypots, "honeypot", "192.168.1.250", "comma-separated decoy addresses")
	fs.StringVar(&o.dark, "dark", "192.168.2.0/24", "comma-separated un-used CIDR prefixes")
	fs.IntVar(&c.ScanThreshold, "t", classify.DefaultScanThreshold, "dark-space scan threshold")
	fs.BoolVar(&c.DisableClassification, "all", false, "disable classification: analyze every payload")
	fs.BoolVar(&c.FullScan, "fullscan", false, "disable extraction pruning too (exhaustive baseline)")
	fs.BoolVar(&o.quiet, "q", false, "suppress per-alert output")
	fs.BoolVar(&o.json, "json", false, "emit alerts as JSONL instead of text")
	fs.BoolVar(&o.summary, "summary", false, "print a per-source incident summary at exit")
	fs.StringVar(&o.templates, "templates", "", "replace built-in templates with a template file (DSL)")
	fs.IntVar(&c.Shards, "shards", 0, "ingest shards (0 = NumCPU)")
	fs.BoolVar(&c.DatagramFlows, "udp-flows", false, "buffer UDP conversations per 5-tuple and analyze them as flows, reassembling CoAP block transfers")
	fs.DurationVar(&c.DatagramIdle, "udp-idle", 0, "idle window closing a UDP conversation (0 = flow idle timeout; with -udp-flows)")
	fs.BoolVar(&c.ShedOnOverload, "shed", false, "shed packets under overload instead of blocking")
	fs.BoolVar(&o.replay, "replay", false, "pace packets by capture timestamp")
	fs.Float64Var(&o.speed, "speed", 1, "replay speed multiplier: 1 = real time (with -replay)")
	fs.BoolVar(&c.Correlate, "correlate", false, "attach the incident correlator")
	fs.BoolVar(&c.Lineage, "lineage", false, "compute structural fingerprints and trace payload ancestry (implies -correlate)")
	fs.DurationVar(&c.IncidentWindow, "incident-window", incident.DefaultWindowUS*time.Microsecond, "fan-out sliding window in trace time (with -correlate)")
	fs.StringVar(&c.SensorID, "sensor", "", fmt.Sprintf("sensor ID stamped on exported incident evidence (default %q)", engine.DefaultSensorID))
	fs.StringVar(&o.export, "export", "", "write the correlator's evidence export here at exit (implies -correlate)")
	fs.StringVar(&o.importPath, "import-incidents", "", "seed the correlator from an evidence export before the run (implies -correlate)")
	fs.StringVar(&c.IncidentExportDir, "export-dir", "", "durable incident sink: rotated evidence segments + crash recovery (implies -correlate)")
	fs.IntVar(&c.Export.KeepSegments, "export-keep", 0, fmt.Sprintf("retained evidence segments in -export-dir — the push spool bound (0 = default %d, floor %d)", fed.DefaultKeepSegments, fed.MinKeepSegments))
	fs.StringVar(&o.push, "push", "", "stream evidence segments to federation aggregators at these comma-separated URLs in failover order, e.g. http://agg:9444/push,http://agg2:9444/push (requires -export-dir)")
	fs.DurationVar(&o.pushWait, "push-wait", 0, "after the trace, wait up to this long for the aggregator to ack the spool (with -push)")
	fs.BoolVar(&o.stats, "stats", false, "print per-shard load gauges and correlator counters")
	fs.StringVar(&o.listen, "listen", "", "serve /metrics, /statusz, /healthz and /debug/pprof on this address while the run lasts")
	fs.DurationVar(&o.statsEvery, "stats-interval", 0, "emit a JSON-lines /statusz snapshot to stderr at this interval")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	return o
}

// run is main behind an exit code, so deferred profile writers fire
// before the process exits whatever path the run takes.
func run() int {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		path := o.memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "semnids:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "semnids:", err)
			}
		}()
	}
	if o.scan != "" {
		return hostScan(o.scan)
	}
	if o.pcap == "" {
		flag.Usage()
		return 2
	}

	cfg := &o.cfg
	cfg.Push.URLs = transport.SplitList(o.push)
	// Every federation and lineage switch needs the correlator.
	cfg.Correlate = cfg.Correlate || cfg.Lineage || o.export != "" || o.importPath != "" ||
		cfg.IncidentExportDir != "" || len(cfg.Push.URLs) > 0
	if o.honeypots != "" {
		cfg.Honeypots = strings.Split(o.honeypots, ",")
	}
	if o.dark != "" {
		cfg.DarkSpace = strings.Split(o.dark, ",")
	}
	if !o.quiet && !o.json {
		cfg.OnAlert = func(a nids.Alert) { fmt.Println(a) }
	}
	if o.templates != "" {
		text, err := os.ReadFile(o.templates)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
		cfg.TemplatesDSL = string(text)
	}

	e, err := nids.NewEngine(*cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semnids:", err)
		return 1
	}
	defer e.Stop()
	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
		srv := &http.Server{Handler: e.TelemetryHandler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "semnids: telemetry on http://%s/\n", ln.Addr())
	}
	if o.statsEvery > 0 {
		// Reuses the /statusz encoder: each tick is one JSON object on
		// one stderr line, so `semnids ... 2>stats.jsonl` captures a
		// machine-readable telemetry trail even without -listen.
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(o.statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := e.WriteStatus(os.Stderr); err != nil {
						return
					}
				case <-stop:
					return
				}
			}
		}()
		defer func() { close(stop); <-done }()
	}
	if o.importPath != "" {
		in, err := os.Open(o.importPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
		err = e.ImportIncidents(in)
		in.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
	}
	f, err := os.Open(o.pcap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semnids:", err)
		return 1
	}
	defer f.Close()
	if o.replay {
		err = e.Replay(f, o.speed)
	} else {
		err = e.Run(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "semnids:", err)
		return 1
	}
	if o.json {
		if err := report.WriteJSON(os.Stdout, e.Alerts()); err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
		if cfg.Correlate {
			if err := report.WriteIncidentsJSON(os.Stdout, e.Incidents()); err != nil {
				fmt.Fprintln(os.Stderr, "semnids:", err)
				return 1
			}
		}
		if cfg.Lineage {
			if err := report.WriteAncestryJSON(os.Stdout, e.Ancestry()); err != nil {
				fmt.Fprintln(os.Stderr, "semnids:", err)
				return 1
			}
		}
	}
	if o.summary {
		fmt.Println()
		if err := report.WriteSummary(os.Stdout, e.Alerts()); err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
	}
	if cfg.Correlate && !o.json {
		fmt.Println()
		if err := report.WriteIncidents(os.Stdout, e.Incidents()); err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
	}
	if cfg.Lineage && !o.json {
		fmt.Println()
		if err := report.WriteAncestry(os.Stdout, e.Ancestry()); err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
	}
	if o.export != "" {
		out, err := os.Create(o.export)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
		err = e.ExportIncidents(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
			return 1
		}
	}
	if len(cfg.Push.URLs) > 0 && o.pushWait > 0 {
		// Commit the trace's full evidence durably first — Drain only
		// *requests* a checkpoint, so without this the wait could see an
		// empty spool and return before there is anything to push. Then
		// best effort: an unreachable aggregator only costs this wait —
		// the spool survives on disk for the next run to push.
		if err := e.CheckpointIncidents(); err != nil {
			fmt.Fprintln(os.Stderr, "semnids:", err)
		}
		deadline := time.Now().Add(o.pushWait)
		for !e.PushSynced() && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
	}
	m := e.Stats()
	fmt.Printf("\npackets=%d selected=%d dropped=%d unparsed=%d streams=%d frames=%d frame-bytes=%d alerts=%d\n",
		m.Packets, m.Selected, m.Dropped, m.Unparsed, m.StreamsAnalyzed, m.Frames, m.FrameBytes, m.Alerts)
	fmt.Printf("cache-hits=%d cache-misses=%d witness-rejected=%d cache-rejected=%d evicted-idle=%d evicted-lru=%d sweep-starts=%d sweep-starts-lifted=%d search-exhausted=%d\n",
		m.CacheHits, m.CacheMisses, m.WitnessRejected, m.CacheRejected, m.FlowsEvictedIdle, m.FlowsEvictedLRU, m.SweepStarts, m.SweepStartsLifted, m.SearchesExhausted)
	if m.SketchAttempts != 0 {
		fmt.Printf("sketch-attempts=%d sketch-run=%d sketch-merged=%d sketch-step-limit=%d\n",
			m.SketchAttempts, m.SketchAttemptsRun, m.SketchAttemptsMerged, m.SketchAttemptsStepLimit)
	}
	if o.stats {
		for i, sh := range m.Shards {
			fmt.Printf("shard[%d]: queue=%d/%d ewma-pps=%.1f\n", i, sh.QueueLen, sh.QueueCap, sh.PacketsPerSec)
		}
		if cfg.Correlate {
			im := e.IncidentStats()
			fmt.Printf("correlator: events=%d flow-opens=%d alerts=%d fingerprints=%d sources=%d incidents=%d evicted-lru=%d evicted-idle=%d\n",
				im.Events, im.FlowOpens, im.Alerts, im.Fingerprints,
				im.SourcesTracked, im.Incidents, im.SourcesEvictedLRU, im.SourcesEvictedIdle)
		}
		if cfg.IncidentExportDir != "" {
			sm := e.SinkStats()
			fmt.Printf("sink: checkpoints=%d rotations=%d dropped=%d errors=%d\n",
				sm.Checkpoints, sm.Rotations, sm.Dropped, sm.Errors)
			if len(cfg.Push.URLs) > 0 {
				p := sm.Push
				fmt.Printf("push: pushed=%d acked=%d retried=%d rejected=%d dropped=%d spooled=%d backoff=%s\n",
					p.Pushed, p.Acked, p.Retried, p.Rejected, p.Dropped, p.Spooled, p.Backoff)
				if len(cfg.Push.URLs) > 1 || p.Acked > 0 {
					fmt.Printf("push: upstream=%s failovers=%d raw-bytes=%d wire-bytes=%d\n",
						p.ActiveUpstream, p.Failovers, p.RawBytes, p.WireBytes)
				}
				if p.LastError != "" {
					fmt.Printf("push: last-error: %s\n", p.LastError)
				}
			}
		}
	}
	return 0
}

// hostScan analyzes an on-disk binary with the semantic stages only —
// the configuration used for the paper's Netsky comparison.
func hostScan(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semnids:", err)
		return 1
	}
	ds := nids.AnalyzeBytes(data)
	fmt.Printf("%s: %d bytes, %d detections\n", path, len(data), len(ds))
	for _, d := range ds {
		fmt.Printf("  %-28s %-8s at %v  %v\n", d.Template, d.Severity, d.Addrs, d.Bindings)
	}
	if len(ds) > 0 {
		return 3
	}
	return 0
}
