package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	nids "semnids"
	"semnids/internal/engine"
	"semnids/internal/fed"
	"semnids/internal/fed/compress"
	"semnids/internal/fed/transport"
	"semnids/internal/incident"
	"semnids/internal/lineage"
	"semnids/internal/netpkt"
	"semnids/internal/report"
)

const (
	fedSensors     = 8
	fedCheckpoints = 8
	fedClients     = 2 // = nproc: one connection each
	expectedFile   = "expected.fed"
)

func checkpointFile(sensor, k int) string {
	return fmt.Sprintf("sensor-%d-ckpt-%d.fed", sensor, k)
}

// generateCheckpoints is the federation workload's set-up: the trace
// is partitioned by source address across eight sensor engines (the
// egress-tap model: every host's scans and deliveries stay at one
// vantage, every propagation link straddles the cut), each sensor
// analyses its share in eight slices and exports its growing evidence
// after each. The offline fed.Merge of the eight final exports is
// written beside them as the expected aggregator state.
func generateCheckpoints(w *workload, pkts []*netpkt.Packet, dir string) error {
	var expected *incident.EvidenceExport
	for s := 0; s < fedSensors; s++ {
		cfg := w.engine
		cfg.Shards = 1
		cfg.SensorID = fmt.Sprintf("sensor-%d", s)
		e, err := nids.NewEngine(cfg)
		if err != nil {
			return err
		}
		var last []byte
		for k := 0; k < fedCheckpoints; k++ {
			lo, hi := len(pkts)*k/fedCheckpoints, len(pkts)*(k+1)/fedCheckpoints
			var slice bytes.Buffer
			pw, err := netpkt.NewPcapWriter(&slice)
			if err != nil {
				e.Stop()
				return err
			}
			for _, p := range pkts[lo:hi] {
				if engine.FlowHash(netpkt.FlowKey{SrcIP: p.SrcIP}, fedSensors) != s {
					continue
				}
				if err := pw.WritePacket(p); err != nil {
					e.Stop()
					return err
				}
			}
			if err := e.Run(&slice); err != nil {
				e.Stop()
				return err
			}
			var body bytes.Buffer
			if err := e.ExportIncidents(&body); err != nil {
				e.Stop()
				return err
			}
			last = body.Bytes()
			if err := os.WriteFile(filepath.Join(dir, checkpointFile(s, k)), last, 0o644); err != nil {
				e.Stop()
				return err
			}
		}
		e.Stop()
		final, err := fed.ReadExport(bytes.NewReader(last))
		if err != nil {
			return fmt.Errorf("sensor %d final export: %w", s, err)
		}
		if expected == nil {
			expected = final
		} else if expected, err = fed.Merge(expected, final); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := fed.WriteExport(&buf, expected); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, expectedFile), buf.Bytes(), 0o644)
}

// fedInputs are the federation job's inputs, loaded once per run.
type fedInputs struct {
	bodies   [fedSensors][fedCheckpoints][]byte
	rawBytes int64

	// expected is the rendered report of the offline merge. Reports
	// are compared, not wire bytes: the aggregator folds 64 growing
	// checkpoints in arrival order, and the per-record sensor
	// provenance sets of the result depend on that order (README,
	// "Observations"), while the derived incidents and ancestry do not.
	expected string
}

func loadFedInputs(dir string) (*fedInputs, error) {
	in := &fedInputs{}
	var err error
	for s := range in.bodies {
		for k := range in.bodies[s] {
			if in.bodies[s][k], err = os.ReadFile(filepath.Join(dir, checkpointFile(s, k))); err != nil {
				return nil, err
			}
			in.rawBytes += int64(len(in.bodies[s][k]))
		}
	}
	expected, err := os.ReadFile(filepath.Join(dir, expectedFile))
	if err != nil {
		return nil, err
	}
	in.expected, _, err = evidenceReport(expected)
	return in, err
}

// evidenceReport renders an evidence export the way the aggregator's
// /report does and returns the report's digest and incidents.
func evidenceReport(wire []byte) (string, []incident.Incident, error) {
	ex, err := fed.ReadExport(bytes.NewReader(wire))
	if err != nil {
		return "", nil, err
	}
	incs, err := incident.DeriveIncidents(ex)
	if err != nil {
		return "", nil, err
	}
	digest, err := reportDigest(nil, incs, lineage.Trace(ex.Lineage))
	return digest, incs, err
}

// lzss compresses one push body the way transport.Pusher does.
func lzss(body []byte) ([]byte, error) {
	var out bytes.Buffer
	zw := compress.NewWriter(&out)
	if _, err := zw.Write(body); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// aggregatorMux serves what cmd/fedagg serves: /push folds, /report
// renders the merged incidents and ancestry, /export returns the
// merged evidence.
func aggregatorMux(agg *transport.Aggregator) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/push", agg)
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		st := agg.Export()
		if st == nil {
			http.Error(w, "no evidence yet", http.StatusNotFound)
			return
		}
		incs, err := incident.DeriveIncidents(st)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		report.WriteIncidents(w, incs)
		report.WriteAncestry(w, lineage.Trace(st.Lineage))
	})
	mux.HandleFunc("/export", func(w http.ResponseWriter, _ *http.Request) {
		st := agg.Export()
		if st == nil {
			http.Error(w, "no evidence yet", http.StatusNotFound)
			return
		}
		fed.WriteExport(w, st)
	})
	return mux
}

// fedJobResult is one fan-in: a fresh aggregator receives all 64
// checkpoints, then serves its report and export.
type fedJobResult struct {
	wall, cpu time.Duration
	ackMS     []float64 // POST start → durable 2xx, per push
	wireBytes int64
	export    []byte
}

// runFedJob starts a fresh aggregator behind a loopback HTTP server
// (state under scratch) and drives it with fedClients closed-loop
// client goroutines, each owning a share of the sensors on one
// connection: LZSS-encode a checkpoint, POST it, wait for the durable
// 2xx, next. Every sensor's checkpoints go in order.
func runFedJob(in *fedInputs, tr *truth, scratch string) (*fedJobResult, tally, error) {
	var t tally
	t0, c0 := time.Now(), cpuTime()
	dir, err := os.MkdirTemp(scratch, "agg-")
	if err != nil {
		return nil, t, err
	}
	defer os.RemoveAll(dir)
	agg, err := transport.NewAggregator(transport.AggregatorConfig{Dir: dir})
	if err != nil {
		return nil, t, err
	}
	srv := httptest.NewServer(aggregatorMux(agg))
	defer func() {
		srv.Close()
		agg.Close()
	}()

	res := &fedJobResult{}
	type clientOut struct {
		ackMS []float64
		wire  int64
		t     tally
	}
	outs := make([]clientOut, fedClients)
	var wg sync.WaitGroup
	for c := 0; c < fedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for k := 0; k < fedCheckpoints; k++ {
				for s := c; s < fedSensors; s += fedClients {
					start := time.Now()
					status, wire, err := pushCheckpoint(client, srv.URL+"/push", checkpointFile(s, k), in.bodies[s][k])
					out.t.check(err == nil && status == http.StatusOK, "push %s: status %d, %v", checkpointFile(s, k), status, err)
					out.ackMS = append(out.ackMS, float64(time.Since(start).Nanoseconds())/1e6)
					out.wire += wire
				}
			}
		}(c)
	}
	wg.Wait()
	for i := range outs {
		res.ackMS = append(res.ackMS, outs[i].ackMS...)
		res.wireBytes += outs[i].wire
		t.add(outs[i].t)
	}

	reader := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer reader.CloseIdleConnections()
	if _, err := httpGet(reader, srv.URL+"/report"); err != nil {
		return nil, t, err
	}
	if res.export, err = httpGet(reader, srv.URL+"/export"); err != nil {
		return nil, t, err
	}
	res.wall, res.cpu = time.Since(t0), cpuTime()-c0

	// Checked outside the timed region: the aggregator's evidence must
	// render the report the offline fed.Merge of the eight final
	// exports renders, and put every attacker at its ground-truth stage.
	digest, incs, err := evidenceReport(res.export)
	if err != nil {
		return nil, t, fmt.Errorf("aggregator /export: %w", err)
	}
	t.check(digest == in.expected, "aggregator /export renders report %s, the offline merge of the final exports %s", digest, in.expected)
	stage := make(map[netip.Addr]string, len(incs))
	for i := range incs {
		stage[incs[i].Src] = incs[i].Stage.String()
	}
	for src, want := range tr.Stages {
		t.check(stage[src] == want, "attacker %v at stage %q in the merged report, want %s", src, stage[src], want)
	}
	return res, t, nil
}

// pushCheckpoint sends one compressed checkpoint with the headers
// transport.Pusher sends and returns the status and on-wire body size.
func pushCheckpoint(client *http.Client, url, name string, body []byte) (int, int64, error) {
	wire, err := lzss(body)
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(wire))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Content-Encoding", compress.ContentEncoding)
	req.Header.Set(transport.HeaderSegment, name)
	req.Header.Set(transport.HeaderHops, "1")
	resp, err := client.Do(req)
	if err != nil {
		return 0, int64(len(wire)), err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, int64(len(wire)), err
}

func httpGet(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
