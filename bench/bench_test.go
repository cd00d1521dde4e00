package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"semnids/internal/polymorph"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
	"semnids/internal/x86"
)

// The set-up step re-executes this binary as "gen"; under go test the
// binary is the test binary, so it answers that call here.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		os.Exit(genMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

const smokeScale = 0.02

func smokeRun(t *testing.T, w *workload, trace, corrupt bool) *runResult {
	t.Helper()
	res, err := runWorkload(&runOpts{
		w: w, seed: 1, seconds: 0.05, scale: smokeScale, trace: trace, latency: !trace,
		scratch: t.TempDir(), outDir: t.TempDir(), corruptReference: corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// TestSmokeAllWorkloads runs every workload's timed run at a fiftieth
// of its size: every row present, every ground-truth check passing.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		res := smokeRun(t, w, false, false)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v invalid=%v",
				w.name, res.Correct, res.Attempted, res.Failed, res.Problems, res.Invalid)
		}
		for _, m := range expectedMetrics(w, false) {
			if v, ok := res.Metrics[m]; !ok {
				t.Errorf("%s: row %s missing", w.name, m)
			} else if m != "error_rate" && m != "bench.gen_lag_ms_p95" && v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m, v.Value)
			}
		}
	}
}

// TestSmokeTraced runs the traced run of a packet workload and of the
// federation workload: every per-layer row present, the staged pass's
// report equal to the shards-1 job's (a failed operation otherwise),
// and the span tree well-formed.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"iot-udp-full", "fed-fanin"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		res, err := runWorkload(&runOpts{w: w, seed: 2, scale: smokeScale, trace: true, scratch: t.TempDir(), outDir: out})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: failed=%d problems=%v", name, res.Failed, res.Problems)
		}
		for _, m := range driverMetrics(true) {
			if _, ok := res.Metrics[m]; !ok {
				t.Errorf("%s: per-layer row %s missing", name, m)
			}
		}
		f, err := os.Open(filepath.Join(out, "trace-"+name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		dec := json.NewDecoder(f)
		for dec.More() {
			var s span
			if err := dec.Decode(&s); err != nil {
				t.Fatalf("%s: span file does not parse: %v", name, err)
			}
			spans = append(spans, s)
		}
		f.Close()
		checkSpanTree(t, name, spans)
	}
}

// checkSpanTree: exactly one root, every other span parented by an
// earlier span and inside it, and no span's children covering more
// than the span itself (self time ≥ 0).
func checkSpanTree(t *testing.T, name string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", name)
	}
	byID := make(map[int]*span, len(spans))
	childNS := make(map[int]int64)
	roots := 0
	for i := range spans {
		s := &spans[i]
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d %s ends before it starts", name, s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
		} else if p := byID[s.Parent]; p == nil {
			t.Errorf("%s: span %d %s has no parent %d before it", name, s.ID, s.Name, s.Parent)
		} else {
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Errorf("%s: span %d %s [%d,%d] outside parent %s [%d,%d]", name, s.ID, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
			}
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
		byID[s.ID] = s
	}
	if roots != 1 {
		t.Errorf("%s: %d roots, want 1", name, roots)
	}
	for id, ns := range childNS {
		if p := byID[id]; ns > p.EndNS-p.StartNS {
			t.Errorf("%s: children of span %d %s cover %d ns of its %d", name, id, p.Name, ns, p.EndNS-p.StartNS)
		}
	}
	for n, tot := range aggregate(spans) {
		if tot.SelfNS < 0 {
			t.Errorf("%s: %s self time %d < 0", name, n, tot.SelfNS)
		}
	}
}

// TestCorruptReferenceFails is the drill behind the correctness gate:
// with the reference digest corrupted every job must count a failed
// operation, so the command exits non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	for _, name := range []string{"worm-classified", "fed-fanin"} {
		w, _ := workloadByName(name)
		if res := smokeRun(t, w, false, true); res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference went unnoticed (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
	}
}

func TestSeedDeterminesTrace(t *testing.T) {
	sha := func(w *workload, seed int64) string {
		dir := t.TempDir()
		if err := generateInChild(w, seed, smokeScale, dir); err != nil {
			t.Fatal(err)
		}
		var tr truth
		if err := readJSONFile(filepath.Join(dir, truthFile), &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Deliveries) == 0 || tr.BenignSessions == 0 {
			t.Errorf("%s seed %d: ground truth has %d deliveries, %d benign sessions", w.name, seed, len(tr.Deliveries), tr.BenignSessions)
		}
		return tr.SHA256
	}
	for i := range workloads {
		w := &workloads[i]
		if w.fed {
			continue // the polymorph-lineage trace again, plus eight engine runs
		}
		a, b, c := sha(w, 1), sha(w, 1), sha(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave two traces: %s, %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same trace", w.name)
		}
	}
}

func TestPercentileAndIQR(t *testing.T) {
	vals := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.125, 2}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || percentile([]float64{4}, 0.95) != 4 {
		t.Error("percentile of an empty or single-sample series")
	}
	s := summarize(vals)
	if s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if got := s.relIQR(); got != 0.8 {
		t.Errorf("relIQR = %v, want 0.8", got)
	}
	if !slices.Equal(vals, []float64{9, 1, 5, 3, 7}) {
		t.Error("percentile reordered its input")
	}
}

func TestCompareVerdict(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 10} }
	thr, cpu := metricByName("throughput_mbps"), metricByName("cpu_ms_per_mb")
	for _, c := range []struct {
		d    *metricDef
		a, b summary
		want string
	}{
		{thr, tight(100), tight(101), "within-bound"},
		{thr, tight(100), tight(130), "better"},
		{thr, tight(100), tight(70), "worse"},
		{cpu, tight(100), tight(130), "worse"},
		{cpu, tight(100), tight(70), "better"},
		{thr, wide(100), tight(130), "unresolved"},
		{thr, tight(100), wide(70), "unresolved"},
	} {
		if got := compareVerdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// TestPacerNeverEarly: a frame is never released before it is due, and
// due times follow the capture timestamps at the speed factor.
func TestPacerNeverEarly(t *testing.T) {
	p := &pacer{start: time.Now(), firstUS: 1000, speed: 50}
	if got := p.due(1000 + 50*2000).Sub(p.start); got != 2*time.Millisecond {
		t.Errorf("due = %v after start, want 2ms", got)
	}
	for _, ts := range []uint64{1000, 1100, 26000, 26001, 151000, 400000} {
		due := p.due(ts)
		waitUntil(due)
		if early := time.Until(due); early > 0 {
			t.Errorf("ts %d released %v early", ts, early)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric and workload
// tables of this package in step.
func TestBenchmarkJSON(t *testing.T) {
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSONFile(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultRunSeconds {
		t.Errorf("run_seconds = %d, the suite's default is %d", decl.RunSeconds, defaultRunSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, defined %q (or their why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	e2e, layer := driverMetrics(false), driverMetrics(true)
	if len(decl.EndToEnd) != len(e2e) || len(decl.PerLayer) != len(layer) {
		t.Fatalf("declared %d end-to-end and %d per-layer metrics, defined %d and %d", len(decl.EndToEnd), len(decl.PerLayer), len(e2e), len(layer))
	}
	for i, m := range decl.EndToEnd {
		d := metricByName(e2e[i])
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, defined %+v", i, m, *d)
		}
	}
	for i, m := range decl.PerLayer {
		d := metricByName(layer[i])
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, defined %+v", i, m, *d)
		}
	}
}

// TestPrunerSound holds the mirror of sem's sweep-start pruning to the
// analyzer: a frame in which the analyzer matches a template at some
// sweep offset must have a viable start, and pruning everything the
// mirror calls non-viable must not lose a detection.
func TestPrunerSound(t *testing.T) {
	tpls := sem.BuiltinTemplates()
	a := sem.NewAnalyzer(tpls)
	p := newPruner(tpls)
	var frames [][]byte
	for seed := int64(1); seed <= 8; seed++ {
		for _, enc := range []interface {
			Encode([]byte) ([]byte, polymorph.Meta, error)
		}{polymorph.NewADMmutate(seed), polymorph.NewClet(seed)} {
			f, _, err := enc.Encode(shellcode.ClassicPush().Bytes)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
	}
	for i, f := range frames {
		matched := false
		for _, d := range a.AnalyzeFrame(f) {
			matched = matched || d.Order != "data"
		}
		if !matched {
			continue
		}
		c := x86.NewDecodeCache(f)
		viable := 0
		for _, off := range a.SweepOffsets {
			c.Sweep(off)
			if p.viable(c, f, off) {
				viable++
			}
		}
		if viable == 0 {
			t.Errorf("frame %d: the analyzer matches a template, the mirror finds no viable start", i)
		}
	}
	benign := []byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n")
	c := x86.NewDecodeCache(benign)
	for _, off := range a.SweepOffsets {
		c.Sweep(off)
		if p.viable(c, benign, off) {
			t.Errorf("benign request viable at offset %d", off)
		}
	}
}
