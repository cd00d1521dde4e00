// Command bench is the semnids benchmark: trace bytes in → verified
// report out, with a row per layer. See README.md.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run (what BENCHMARK.json declares)
//	bench [-trace 1] [-repeat N]                      the suite: every workload, each in a child process
//	bench compare A.json B.json                       verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "gen":
			os.Exit(genMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// genMain is the set-up child: it renders one workload's inputs into a
// directory and exits.
func genMain(args []string) int {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "generator seed")
	scale := fs.Float64("scale", 1, "trace size scale")
	dir := fs.String("dir", "", "output directory")
	fs.Parse(args)
	w, err := workloadByName(*name)
	if err == nil {
		err = generateInto(w, *seed, *scale, *dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench gen:", err)
		return 1
	}
	return 0
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run this workload only and print its result object last (default: the whole suite)")
	seed := fs.Int64("seed", 1, "generator seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultRunSeconds, "length of the timed closed loop")
	trace := fs.Int("trace", 0, "1 = the traced run (per-layer rows, spans written to -out), 0 = the timed run")
	latency := fs.Bool("latency", false, "follow a timed run with the delay rows — alert latency, push acknowledgement — as the suite does (the traced run always has them)")
	scale := fs.Float64("scale", 1, "trace size scale (self-tests use 0.02)")
	repeat := fs.Int("repeat", 1, "run the suite this many times and print the spread per row")
	scratch := fs.String("scratch", defaultScratch(), "directory for generated traces and aggregator state")
	out := fs.String("out", "out", "directory for result.json and trace-<workload>.jsonl")
	resultFile := fs.String("result-file", "", "also write the run's full result (quartiles, sample counts) here")
	corrupt := fs.Bool("corrupt-reference", false, "corrupt the reference digest after set-up: the command must then exit non-zero")
	fs.Parse(args)

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *name == "" {
		return suiteMain(suiteOpts{
			seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale,
			repeat: *repeat, scratch: *scratch, out: *out, corrupt: *corrupt,
		})
	}

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The run's files live in a directory of its own, removed with
	// everything in it however the run ends.
	runDir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	fmt.Printf("# workload=%s seed=%d run_s=%g trace=%d scale=%g scratch=%s (%s)\n",
		w.name, *seed, *seconds, *trace, *scale, *scratch, fsKind(*scratch))
	res, err := runWorkload(&runOpts{
		w: w, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0, latency: *latency,
		scratch: runDir, outDir: *out, corruptReference: *corrupt,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(res)
	if *resultFile != "" {
		if err := writeJSONFile(*resultFile, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	// The result object, last: exactly the metrics BENCHMARK.json
	// declares for this kind of run. A missing row is an incomplete
	// result, which is no result.
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]driverMetric)
	for _, m := range driverMetrics(res.Trace) {
		v, ok := res.Metrics[m]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", w.name, m)
			return 1
		}
		metrics[m] = driverMetric{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultScratch prefers memory-backed storage, so disk speed is not
// in the packet workloads' numbers; the output says which it got.
func defaultScratch() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return filepath.Join("/dev/shm", "semnids-bench")
	}
	return filepath.Join(os.TempDir(), "semnids-bench")
}
