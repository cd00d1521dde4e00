// Command fedagg is the federation aggregation daemon: it accepts
// evidence segments pushed by sensors (semnids -push, or any
// transport.Pusher), folds them into one deterministic federated
// state — the join fed.Merge computes, kept live so a push costs what
// it changes, and the same whatever order the pushes arrive in — and
// checkpoints that state to its own crash-recoverable sink
// directory. Acks are durable: a sensor sees
// 2xx only after the fold is committed, so an aggregator crash never
// loses acknowledged evidence — on restart the newest committed
// checkpoint is recovered and resumed sensors simply re-push anything
// unacked (the idempotent merge makes the overlap harmless).
//
// With -upstream, the daemon is a mid-tier node in a fan-in tree: its
// own sink directory doubles as the push spool and folded segments are
// streamed to the listed upstream aggregators in failover order (the
// fold is a join, so any tree shape converges to the same root state,
// byte for byte). -node names this aggregator for the X-Fed-Via loop guard;
// -max-hops bounds tree depth. Pushes announcing a cycle or an
// over-budget hop count are refused with 409.
//
// Usage:
//
//	fedagg -listen :9444 -dir /var/lib/fedagg
//	fedagg -listen :9445 -dir /var/lib/mid1 -node mid1 \
//	       -upstream http://root:9444/push,http://root-b:9444/push
//
// Endpoints:
//
//	POST /push         one evidence segment in the versioned wire format
//	GET  /report       current federated incident report (text; ?json=1 for
//	                   JSONL with per-incident timelines, ack times annotated)
//	GET  /export       current merged evidence export (wire format)
//	GET  /metrics      Prometheus text exposition (aggregator + sink series)
//	GET  /statusz      JSON snapshot of every registered series
//	GET  /healthz      200 ready / 503 while recovering or draining
//	GET  /debug/pprof  runtime profiles
//
// On SIGINT/SIGTERM the daemon flips /healthz to draining (503) so
// load balancers stop routing to it, waits out -drain-grace for
// in-flight pushes, then closes the listener and checkpoints.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"semnids/internal/fed"
	"semnids/internal/fed/transport"
	"semnids/internal/incident"
	"semnids/internal/lineage"
	"semnids/internal/report"
	"semnids/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// options is the command line: the aggregator configuration, which
// flags set in place, and the flags that steer the daemon itself.
type options struct {
	cfg              transport.AggregatorConfig
	listen, upstream string
	drainGrace       time.Duration
}

// bindFlags registers the daemon's flags on fs. Defaults the packages
// own come from their constants.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	c := &o.cfg
	fs.StringVar(&o.listen, "listen", ":9444", "HTTP listen address")
	fs.StringVar(&c.Dir, "dir", "", "durable state directory (required)")
	fs.Int64Var(&c.MaxBodyBytes, "max-body", transport.DefaultMaxBodyBytes, "maximum pushed segment size in bytes")
	fs.Int64Var(&c.Retention.RotateBytes, "rotate-bytes", 0, "sink segment rotation size (0 = default)")
	fs.DurationVar(&c.Retention.RotateEvery, "rotate-every", 0, "sink segment rotation age (0 = default)")
	fs.IntVar(&c.Retention.KeepSegments, "keep-segments", 0, "sink segments to retain (0 = default)")
	fs.BoolVar(&c.AsyncAck, "async-ack", false, "acknowledge pushes before the fold is durably committed (lower latency, crash may lose acked evidence)")
	fs.DurationVar(&o.drainGrace, "drain-grace", 2*time.Second, "on shutdown signal, serve 503 on /healthz this long before closing the listener")
	fs.StringVar(&c.NodeID, "node", "", fmt.Sprintf("aggregator node ID stamped on responses and push Via headers (default %q; must be unique per tree node)", transport.DefaultNodeID))
	fs.IntVar(&c.MaxHops, "max-hops", 0, fmt.Sprintf("reject pushes whose hop count exceeds this tree-depth budget (0 = default %d)", transport.DefaultMaxHops))
	fs.StringVar(&o.upstream, "upstream", "", "push folded segments up the tree to these comma-separated aggregator URLs in failover order (makes this node a mid-tier fan-in)")
	return o
}

func run() int {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	dir := o.cfg.Dir
	if dir == "" {
		fmt.Fprintln(os.Stderr, "fedagg: -dir is required")
		flag.Usage()
		return 2
	}
	o.cfg.Upstream.URLs = transport.SplitList(o.upstream)
	agg, err := transport.NewAggregator(o.cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedagg:", err)
		return 1
	}
	if st := agg.Export(); st != nil {
		fmt.Fprintf(os.Stderr, "fedagg: recovered state from %s: sensors=%s sources=%d\n",
			dir, strings.Join(st.Sensors, ","), len(st.Sources))
	}

	// The observability surface is the shared telemetry mux (the same
	// one `semnids -listen` serves), with the aggregator's own routes
	// layered on top. NewAggregator returns only after recovery, so the
	// "state" check is set once, here.
	health := telemetry.NewHealth()
	health.Set("state", true, "recovered")
	telemetry.RegisterProcessMetrics(agg.Telemetry())
	statusInfo := func() map[string]any {
		info := map[string]any{"dir": dir}
		if st := agg.Export(); st != nil {
			info["sensors"] = st.Sensors
			info["sources"] = len(st.Sources)
		}
		// How much of the push traffic the live fold had already seen,
		// and what the rest cost (the semnids_agg_fold_* series).
		m := agg.Metrics()
		info["fold"] = map[string]any{
			"frames_folded":     m.FramesFolded,
			"frames_skipped":    m.FramesSkipped,
			"records_reencoded": m.RecordsReencoded,
			"memo_entries":      m.MemoEntries,
			"frames_fallback":   m.FramesFallback,
		}
		// Tree nodes expose their upstream health: which URL the pusher
		// is on, how deep the unacked spool is, and whether everything
		// durable has been acked up the tree.
		if pm, ok := agg.PushStats(); ok {
			info["upstream"] = pm.ActiveUpstream
			info["upstream_failovers"] = pm.Failovers
			info["spool_segments"] = pm.Spooled
		}
		return info
	}
	mux := telemetry.NewMux(agg.Telemetry(), health, statusInfo)
	mux.Handle("/push", agg)
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		st := agg.Export()
		if st == nil {
			fmt.Fprintln(w, "no evidence yet")
			return
		}
		incidents, err := incident.DeriveIncidents(st)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if r.URL.Query().Get("json") != "" {
			// The JSONL view carries per-incident timelines; annotate
			// them with this aggregator's wall-clock ack times so the
			// report shows packet → stage → acked end to end.
			agg.AnnotateTimelines(incidents)
			report.WriteIncidentsJSON(w, incidents)
			if len(st.Lineage) > 0 {
				report.WriteAncestryJSON(w, lineage.Trace(st.Lineage))
			}
			return
		}
		fmt.Fprintf(w, "sensors: %s  sources: %d\n\n", strings.Join(st.Sensors, ","), len(st.Sources))
		report.WriteIncidents(w, incidents)
		// Sensors pushing with -lineage federate their observations here;
		// the ancestry forest below the incident table is byte-identical
		// to what a solo all-seeing sensor would reconstruct.
		if len(st.Lineage) > 0 {
			fmt.Fprintln(w)
			report.WriteAncestry(w, lineage.Trace(st.Lineage))
		}
	})
	mux.HandleFunc("/export", func(w http.ResponseWriter, r *http.Request) {
		st := agg.Export()
		if st == nil {
			http.Error(w, "fedagg: no evidence yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		fed.WriteExport(w, st)
	})

	srv := &http.Server{
		Addr:              o.listen,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fedagg: listening on %s, state in %s\n", o.listen, dir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "fedagg:", err)
		agg.Close()
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "fedagg: %v, draining then shutting down\n", sig)
	}
	// Graceful drain: advertise not-ready first so health-checking load
	// balancers stop routing here, give in-flight (and just-routed)
	// pushes the grace period to land, then close the listener and
	// checkpoint. Sensors retry anything unacked, so cutting the grace
	// short costs re-pushes, never evidence.
	health.SetDraining(true)
	time.Sleep(o.drainGrace)
	srv.Close()
	agg.Close()
	return 0
}
