package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
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
