package main

import (
	"flag"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"semnids/internal/sem"
)

var updateDetections = flag.Bool("update-detections", false, "rewrite testdata/detections.golden from this run")

// goldenScale shrinks Table 3 to its 200-session floor per trace and
// §5.4 to about 3 MB of benign traffic.
const goldenScale = 0.005

// TestDetectionsGolden runs every section at goldenScale and holds its
// detection columns — Table 1's detected and binds-port, Table 2's
// counts, Table 3's actual, detected and correct, §5.4's false
// positives — to testdata/detections.golden. The times are not
// compared.
func TestDetectionsGolden(t *testing.T) {
	var got []string
	for _, s := range sections {
		got = append(got, s.run(io.Discard, goldenScale)...)
	}
	text := strings.Join(got, "\n") + "\n"
	const path = "testdata/detections.golden"
	if *updateDetections {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("detection columns differ from %s (regenerate only for a deliberate change: go test ./cmd/papertables/ -update-detections)\ngot:\n%swant:\n%s", path, text, want)
	}
}

// TestEfficiencyWork pins §5.1 by the work each arm does rather than
// by its time: over the same binary, the baseline lifts at least 8×
// the sweep starts the pruned analyzer lifts, and both arms report the
// same detections.
func TestEfficiencyWork(t *testing.T) {
	bin, pruned, exhaustive := efficiencyArms()
	names := func(a *sem.Analyzer) []string {
		var out []string
		for _, d := range a.AnalyzeFrame(bin) {
			out = append(out, d.Template)
		}
		slices.Sort(out)
		return out
	}
	got, want := names(pruned), names(exhaustive)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("detections: pruned %v, baseline %v; want the same, and some", got, want)
	}
	_, liftedPruned := pruned.SweepStats()
	_, liftedBaseline := exhaustive.SweepStats()
	t.Logf("lifted sweep starts: pruned %d, baseline %d", liftedPruned, liftedBaseline)
	if liftedPruned == 0 || liftedBaseline < 8*liftedPruned {
		t.Errorf("baseline lifted %d sweep starts, pruned %d: want the baseline at least 8× and the pruned arm above 0", liftedBaseline, liftedPruned)
	}
}
