package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// defaultRunSeconds is the timed closed loop's length; BENCHMARK.json's
// run_seconds is the same number.
const defaultRunSeconds = 15

// environment is stamped into every result file: two snapshots are
// comparable only when these agree.
type environment struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`       // of the traced run and the latency phase
	TimedProcs int     `json:"timed_gomaxprocs"` // of set-up and the timed closed loop
	CPUModel   string  `json:"cpu_model"`
	TempFS     string  `json:"temp_fs"`
	RunS       float64 `json:"run_s"`
	Scale      float64 `json:"scale"`
	Shards     int     `json:"shards"`
	Trace      bool    `json:"trace"`

	// LatencySpeed is the capture-timestamp speed-up of each
	// workload's open-loop phase.
	LatencySpeed map[string]float64 `json:"latency_speed"`
}

// resultFile is bench/out/result.json: every (workload × metric) row
// of every repeat, or no file.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

type suiteOpts struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64
	repeat  int
	scratch string
	out     string
	corrupt bool
}

func captureEnvironment(o suiteOpts) environment {
	env := environment{
		Seed: o.seed, Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), TimedProcs: timedProcs,
		CPUModel: cpuModel(), TempFS: fsKind(o.scratch),
		RunS: o.seconds, Scale: o.scale, Shards: shards, Trace: o.trace,
		LatencySpeed: make(map[string]float64),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	for _, w := range workloads {
		if w.latencySpeed > 0 {
			env.LatencySpeed[w.name] = w.latencySpeed
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsKind names the filesystem under path.
func fsKind(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-%#x", uint32(st.Type))
}

// expectedMetrics lists the rows a workload's run must hold for the
// result to be complete.
func expectedMetrics(w *workload, trace bool) []string {
	if trace {
		return driverMetrics(true)
	}
	names := append(driverMetrics(false), "error_rate")
	if w.latencySpeed > 0 {
		names = append(names, "alert_latency_ms_p50", "alert_latency_ms_p95", "bench.gen_lag_ms_p95")
	}
	if w.fed {
		names = append(names, "push_ack_ms_p50", "push_ack_ms_p95", "wire_ratio")
	}
	return names
}

// suiteMain runs every workload, each in a child process of its own so
// peak_rss_mb is per workload, o.repeat times, and writes the result
// file only if every row of every run is there.
func suiteMain(o suiteOpts) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := resultFile{Env: captureEnvironment(o)}
	fmt.Printf("# seed=%d commit=%s %s nproc=%d GOMAXPROCS=%d cpu=%q scratch=%s run_s=%g\n",
		file.Env.Seed, file.Env.Commit, file.Env.GoVersion, file.Env.NumCPU, file.Env.GOMAXPROCS,
		file.Env.CPUModel, file.Env.TempFS, file.Env.RunS)
	failed := false
	tmp := filepath.Join(o.scratch, fmt.Sprintf("result-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	for rep := 0; rep < o.repeat; rep++ {
		for i := range workloads {
			w := &workloads[i]
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
				"-scratch", o.scratch, "-out", o.out, "-result-file", tmp,
			}
			if o.trace {
				args = append(args, "-trace", "1")
			} else {
				args = append(args, "-latency")
			}
			if o.corrupt {
				args = append(args, "-corrupt-reference")
			}
			os.Remove(tmp)
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res runResult
			if err := readJSONFile(tmp, &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s produced no result: %v (%v)\n", w.name, err, runErr)
				return 1
			}
			for _, m := range expectedMetrics(w, o.trace) {
				if _, ok := res.Metrics[m]; !ok {
					fmt.Fprintf(os.Stderr, "bench: %s: row %s is missing; no result file written\n", w.name, m)
					return 1
				}
			}
			if runErr != nil || !res.Correct || len(res.Invalid) > 0 {
				failed = true
			}
			file.Runs = append(file.Runs, res)
		}
	}
	name := "result.json"
	if o.trace {
		name = "result-trace.json"
	}
	path := filepath.Join(o.out, name)
	if err := writeJSONFile(path, &file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# wrote %s (%d runs)\n", path, len(file.Runs))
	if o.repeat > 1 {
		printSpread(&file)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench: at least one workload reported failed operations or an invalid phase")
		return 1
	}
	return 0
}

// row is one (workload, metric) pair reduced across a file's repeats.
type row struct {
	workload, metric string
	s                summary
}

// rows reduces a result file to one summary per (workload, metric):
// across repeats when there are several, otherwise the run's own
// quartiles over its jobs.
func rows(f *resultFile) []row {
	type key struct{ w, m string }
	vals := make(map[key][]float64)
	single := make(map[key]metricValue)
	for _, r := range f.Runs {
		for name, m := range r.Metrics {
			k := key{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
			single[k] = m
		}
	}
	var out []row
	for k, v := range vals {
		s := summarize(v)
		if len(v) == 1 {
			m := single[k]
			s = summary{Median: m.Value, Q1: m.Q1, Q3: m.Q3, N: m.N}
			if m.Q1 == 0 && m.Q3 == 0 {
				s.Q1, s.Q3 = m.Value, m.Value // a single value: no spread known
			}
		}
		out = append(out, row{k.w, k.m, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].metric != out[j].metric {
			return metricIndex(out[i].metric) < metricIndex(out[j].metric)
		}
		return out[i].workload < out[j].workload
	})
	return out
}

// printSpread prints, per row, the spread across the repeats beside
// the bound — the numbers the bounds are fixed from.
func printSpread(f *resultFile) {
	fmt.Printf("%-30s %-18s %12s %12s %12s %8s %8s\n", "metric", "workload", "median", "q1", "q3", "iqr/med", "bound")
	for _, r := range rows(f) {
		d := metricByName(r.metric)
		if d == nil || d.kind == perLayer {
			continue
		}
		fmt.Printf("%-30s %-18s %12.6g %12.6g %12.6g %7.2f%% %7.2f%%\n",
			r.metric, r.workload, r.s.Median, r.s.Q1, r.s.Q3, 100*r.s.relIQR(), 100*d.bound)
	}
}

// compareVerdict compares one row of two snapshots: unresolved when either
// side's spread is wider than the bound (the rows cannot tell a change
// of that size from noise), otherwise better, worse or within-bound by
// the median's move in the metric's direction.
func compareVerdict(d *metricDef, a, b summary) string {
	if d.bound > 0 && (a.relIQR() > d.bound || b.relIQR() > d.bound) {
		return "unresolved"
	}
	if a.Median == 0 {
		if b.Median == 0 {
			return "within-bound"
		}
		if (b.Median > 0) == (d.better == "higher") {
			return "better"
		}
		return "worse"
	}
	worse := (b.Median - a.Median) / a.Median
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.bound:
		return "worse"
	case worse < -d.bound:
		return "better"
	}
	return "within-bound"
}

// compareMain prints one row per (metric, workload) of two result
// files and exits non-zero if any end-to-end row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var a, b resultFile
	if err := readJSONFile(args[0], &a); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if err := readJSONFile(args[1], &b); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.RunS != b.Env.RunS || a.Env.Scale != b.Env.Scale || a.Env.CPUModel != b.Env.CPUModel {
		fmt.Printf("# WARNING: environments differ (A: nproc=%d run_s=%g scale=%g %q; B: nproc=%d run_s=%g scale=%g %q)\n",
			a.Env.NumCPU, a.Env.RunS, a.Env.Scale, a.Env.CPUModel, b.Env.NumCPU, b.Env.RunS, b.Env.Scale, b.Env.CPUModel)
	}
	type key struct{ w, m string }
	bRows := make(map[key]summary)
	for _, r := range rows(&b) {
		bRows[key{r.workload, r.metric}] = r.s
	}
	fmt.Printf("%-30s %-18s %12s %22s %12s %22s %7s  %s\n", "metric", "workload", "A median", "A q1..q3", "B median", "B q1..q3", "bound", "verdict")
	worse := false
	for _, r := range rows(&a) {
		d := metricByName(r.metric)
		bs, ok := bRows[key{r.workload, r.metric}]
		if d == nil || !ok {
			continue
		}
		v := compareVerdict(d, r.s, bs)
		if d.kind == perLayer {
			v = "(" + v + ")" // per-layer rows carry no bound: the verdict is only the direction of the move
		} else if v == "worse" {
			worse = true
		}
		fmt.Printf("%-30s %-18s %12.6g %22s %12.6g %22s %6.1f%%  %s\n",
			r.metric, r.workload, r.s.Median, fmt.Sprintf("%.5g..%.5g", r.s.Q1, r.s.Q3),
			bs.Median, fmt.Sprintf("%.5g..%.5g", bs.Q1, bs.Q3), 100*d.bound, v)
	}
	if worse {
		return 1
	}
	return 0
}
