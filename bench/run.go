package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up, so setup_s is a median
// and one slow disk write does not decide it.
const setupRepeats = 3

// metricValue is one reported metric. Timings carry the quartiles and
// the sample count behind the median; counts and ratios carry N = 1.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Problems  []string               `json:"problems,omitempty"`
	Invalid   []string               `json:"invalid,omitempty"`
	TraceSHA  string                 `json:"trace_sha256"`
}

func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), N: 1}
}

// setN records a statistic of n samples that is not a median with
// quartiles (a percentile of a latency distribution: the distribution's
// own quartiles say nothing about how well the statistic repeats).
func (r *runResult) setN(name string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

func (r *runResult) setSummary(name string, s summary) {
	r.Metrics[name] = metricValue{Value: s.Median, Unit: unitOf(name), Q1: s.Q1, Q3: s.Q3, N: s.N}
}

// runOpts parameterizes one run.
type runOpts struct {
	w       *workload
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	latency bool   // follow the timed closed loop with the delay rows (latency phase, push acknowledgement)
	scratch string // directory for traces and aggregator state
	outDir  string // where the traced run writes its spans

	// corruptReference flips the reference digest after set-up: every
	// job must then fail its digest check and the command exit
	// non-zero — the drill that proves the correctness gate is live.
	corruptReference bool
}

// prepared is a finished set-up: the trace on disk, its ground truth,
// and the reference digest from a shards-1 job.
type prepared struct {
	dir       string
	truth     truth
	refDigest string
	fed       *fedInputs
	tally     tally
}

// generateInChild runs generateInto in a fresh child process, for two
// reasons. The generator's memory must not be the measuring process's
// peak RSS; and internal/polymorph's encoders reorder a package-level
// register pool as they draw from it, so an encoding depends on every
// encoding the process made before it — only a fresh process makes the
// same seed give the same trace.
func generateInChild(w *workload, seed int64, scale float64, dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "gen", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-dir", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(timedProcs)) // set-up is timed
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generate %s: %w", w.name, err)
	}
	return nil
}

// setUp generates the workload's inputs and runs the warm-up job, which
// doubles as the reference: a shards-1 job whose canonical report every
// timed shards-2 job must reproduce.
func setUp(o *runOpts) (*prepared, error) {
	dir, err := os.MkdirTemp(o.scratch, o.w.name+"-")
	if err != nil {
		return nil, err
	}
	if err := generateInChild(o.w, o.seed, o.scale, dir); err != nil {
		return nil, err
	}
	p := &prepared{dir: dir}
	if err := readJSONFile(filepath.Join(dir, truthFile), &p.truth); err != nil {
		return nil, err
	}
	if o.w.fed {
		if p.fed, err = loadFedInputs(dir); err != nil {
			return nil, err
		}
		_, t, err := runFedJob(p.fed, &p.truth, o.scratch)
		if err != nil {
			return nil, err
		}
		p.tally = t
		return p, nil
	}
	ref, err := runJob(o.w, dir, 1)
	if err != nil {
		return nil, err
	}
	p.refDigest = ref.digest
	p.tally = checkJob(o.w, &p.truth, ref, ref.digest)
	return p, nil
}

// timedProcs is the GOMAXPROCS of the timed run's set-up and closed
// loop: one. The sandbox's two virtual CPUs are shares of a busy host:
// the second is withheld for seconds at a time, and a pipeline whose
// feeder and shards hand batches across threads then measures how long
// the hypervisor takes to wake a halted CPU, not the program (the
// packet-bound workloads swung by a third from run to run). On one
// thread the goroutines still interleave — Shards stays 2 — but a job's
// wall time is its CPU work, which repeats. What the second core buys
// is the traced run's engine.shard_speedup_x.
const timedProcs = 1

// runWorkload is one run: set up (several times, for a median), then
// either the timed phases or the traced pass.
func runWorkload(o *runOpts) (*runResult, error) {
	res := &runResult{Workload: o.w.name, Seed: o.seed, Trace: o.trace, Metrics: make(map[string]metricValue)}
	procs := runtime.GOMAXPROCS(0)
	if !o.trace {
		runtime.GOMAXPROCS(timedProcs)
		defer runtime.GOMAXPROCS(procs)
	}
	var (
		prep    *prepared
		setups  []float64
		repeats = setupRepeats
	)
	if o.trace {
		repeats = 1 // the traced run reports no setup_s
	}
	for i := 0; i < repeats; i++ {
		if prep != nil {
			os.RemoveAll(prep.dir)
		}
		t0 := time.Now()
		p, err := setUp(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		prep = p
	}
	defer os.RemoveAll(prep.dir)
	res.TraceSHA = prep.truth.SHA256
	total := prep.tally
	if o.corruptReference {
		prep.refDigest = "corrupted-" + prep.refDigest
		if prep.fed != nil {
			prep.fed.expected = "corrupted-" + prep.fed.expected
		}
	}

	var err error
	switch {
	case o.trace && o.w.fed:
		err = tracedFedRun(o, prep, res, &total)
	case o.trace:
		err = tracedRun(o, prep, res, &total)
	case o.w.fed:
		res.setSummary("setup_s", summarize(setups))
		err = timedFedRun(o, prep, res, &total)
	default:
		res.setSummary("setup_s", summarize(setups))
		err = timedRun(o, prep, res, &total)
	}
	if err == nil && !o.trace && o.latency {
		// Delays are measured with every core: the open-loop generator
		// must not share its thread with the shards it paces, nor one
		// sensor's push wait behind the other client's.
		runtime.GOMAXPROCS(procs)
		switch {
		case o.w.fed:
			err = pushMetrics(o, prep, res, &total)
		case o.w.latencySpeed > 0:
			err = latencyMetrics(o, prep, res, &total)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Problems = total.attempted, total.failed, total.problems
	// An invalid phase (a late generator, too few CPUs for the shard
	// comparison) is reported beside the rows it taints, and fails the
	// suite; it is not a wrong output of the program.
	res.Correct = total.failed == 0
	if total.attempted > 0 {
		res.set("error_rate", float64(total.failed)/float64(total.attempted))
	}
	return res, nil
}

// closedLoop runs jobs back to back from this goroutine for the run
// length (at least one) and reports the rows every workload has: input
// MB per second of job wall time, CPU per input MB, and the peak RSS.
// It prints how much of the loop the hypervisor withheld the CPU: a
// slow run with a large share measured the host's other tenants.
func closedLoop(o *runOpts, res *runResult, inputBytes int64, job func() (wall, cpu time.Duration, err error)) error {
	var mbps, cpuPerMB []float64
	mb := float64(inputBytes) / 1e6
	start, stolen := time.Now(), stolenTime()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for len(mbps) == 0 || time.Now().Before(deadline) {
		wall, cpu, err := job()
		if err != nil {
			return err
		}
		mbps = append(mbps, mb/wall.Seconds())
		cpuPerMB = append(cpuPerMB, float64(cpu.Nanoseconds())/1e6/mb)
	}
	fmt.Printf("# %s: %d jobs in %.1f s, %.2f s of steal time\n", o.w.name, len(mbps),
		time.Since(start).Seconds(), (stolenTime() - stolen).Seconds())
	res.setSummary("throughput_mbps", summarize(mbps))
	res.setSummary("cpu_ms_per_mb", summarize(cpuPerMB))
	res.set("peak_rss_mb", peakRSSMB())
	return nil
}

// stolenTime is the time so far that this machine's virtual CPUs were
// runnable but not run by the hypervisor: the steal column of
// /proc/stat's first line, or zero where there is no such count.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100) // USER_HZ is 100 on every Linux port
}

// timedRun is the closed loop of engine jobs. The peak RSS is read at
// its end, before any latency phase, whose engine lives much longer
// than a job's.
func timedRun(o *runOpts, prep *prepared, res *runResult, total *tally) error {
	return closedLoop(o, res, prep.truth.Bytes, func() (time.Duration, time.Duration, error) {
		job, err := runJob(o.w, prep.dir, shards)
		if err != nil {
			return 0, 0, err
		}
		total.add(checkJob(o.w, &prep.truth, job, prep.refDigest))
		return job.wall, job.cpu, nil
	})
}

// latencyMetrics runs the open-loop pass and reports the alert delay
// and how late the generator ran.
func latencyMetrics(o *runOpts, prep *prepared, res *runResult, total *tally) error {
	lat, err := runLatencyPhase(o.w, prep.dir)
	if err != nil {
		return err
	}
	res.setN("alert_latency_ms_p50", percentile(lat.alertMS, 0.50), len(lat.alertMS))
	res.setN("alert_latency_ms_p95", percentile(lat.alertMS, 0.95), len(lat.alertMS))
	lag := percentile(lat.lagMS, 0.95)
	res.set("bench.gen_lag_ms_p95", lag)
	if lag > maxGenLagMS {
		res.Invalid = append(res.Invalid, fmt.Sprintf("latency phase: generator lag p95 %.3f ms exceeds %.1f ms", lag, maxGenLagMS))
	}
	// Every offered packet not shed, every delivery alerted in time to
	// be counted.
	total.attempted += lat.offered
	total.failed += int(lat.shed)
	total.check(len(lat.alertMS) >= len(prep.truth.Deliveries),
		"latency phase raised %d alerts for %d deliveries", len(lat.alertMS), len(prep.truth.Deliveries))
	return nil
}

// timedFedRun is the federation closed loop: fan-in jobs back to back.
func timedFedRun(o *runOpts, prep *prepared, res *runResult, total *tally) error {
	return closedLoop(o, res, prep.fed.rawBytes, func() (time.Duration, time.Duration, error) {
		job, t, err := runFedJob(prep.fed, &prep.truth, o.scratch)
		if err != nil {
			return 0, 0, err
		}
		total.add(t)
		return job.wall, job.cpu, nil
	})
}

// pushMetrics is the federation workload's latency phase: three
// fan-in jobs, tracing off, for the push acknowledgement delay over
// their 192 pushes and the wire ratio (every job sends the same
// bodies).
func pushMetrics(o *runOpts, prep *prepared, res *runResult, total *tally) error {
	var ackMS []float64
	var wireBytes int64
	for i := 0; i < 3; i++ {
		job, t, err := runFedJob(prep.fed, &prep.truth, o.scratch)
		if err != nil {
			return err
		}
		total.add(t)
		ackMS = append(ackMS, job.ackMS...)
		wireBytes = job.wireBytes
	}
	res.setN("push_ack_ms_p50", percentile(ackMS, 0.50), len(ackMS))
	res.setN("push_ack_ms_p95", percentile(ackMS, 0.95), len(ackMS))
	res.set("wire_ratio", float64(prep.fed.rawBytes)/float64(wireBytes))
	return nil
}

// printResult prints every metric by name with its unit, one row each,
// then the problems found.
func printResult(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		row := fmt.Sprintf("%-18s %-34s %14.6g %-8s", res.Workload, name, m.Value, m.Unit)
		if m.Q1 != 0 || m.Q3 != 0 {
			row += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.N > 1 {
			row += fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Println(row)
	}
	for _, p := range res.Problems {
		fmt.Printf("%-18s FAILED: %s\n", res.Workload, p)
	}
	for _, p := range res.Invalid {
		fmt.Printf("%-18s INVALID: %s\n", res.Workload, p)
	}
	fmt.Printf("%-18s operations attempted=%d failed=%d correct=%v\n", res.Workload, res.Attempted, res.Failed, res.Correct)
}
