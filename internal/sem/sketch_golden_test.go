package sem_test

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"semnids/internal/exploits"
	"semnids/internal/morph"
	"semnids/internal/polymorph"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
)

var updateSketchGolden = flag.Bool("update-sketch-golden", false,
	"regenerate the corpus in testdata/sketch_golden.txt and record the current code's results for it")

const sketchGoldenPath = "testdata/sketch_golden.txt"

// sketchGoldenResult renders what the golden file pins per frame: each
// detection's template, order and matched offsets, and the full sketch.
func sketchGoldenResult(a *sem.Analyzer, frame []byte) string {
	ds := a.AnalyzeFrame(frame)
	var names []string
	for _, d := range ds {
		names = append(names, fmt.Sprintf("%s/%s%v", d.Template, d.Order, d.Addrs))
	}
	sk := a.Sketch(frame, ds)
	return fmt.Sprintf("ds=%s sketch=%016x/%016x/%016x/%016x/%d",
		strings.ReplaceAll(strings.Join(names, ","), " ", "+"),
		sk.Template, sk.Stmts, sk.TailA, sk.TailB, sk.TailN)
}

// sketchGoldenCorpus generates the seeded CLET/ADMmutate corpus: each
// encoding bare, packed into the overflow layout, and over a
// morph-rewritten cleartext. The polymorph engines share package state
// across encodings, so the bytes depend on what the process encoded
// before; the golden file therefore stores the frames, not the seeds.
func sketchGoldenCorpus(t *testing.T) (names []string, frames [][]byte) {
	add := func(name string, frame []byte) {
		names, frames = append(names, name), append(frames, frame)
	}
	payloads := []shellcode.Shellcode{shellcode.ClassicPush(), shellcode.Dup2Shell(), shellcode.BindShell4444()}
	for seed := int64(1); seed <= 8; seed++ {
		for pi, p := range payloads {
			mutated, err := morph.New(seed).Mutate(p.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []struct {
				name string
				enc  interface {
					Encode([]byte) ([]byte, polymorph.Meta, error)
				}
			}{
				{"clet", polymorph.NewClet(seed*10 + int64(pi))},
				{"adm", polymorph.NewADMmutate(seed*10 + int64(pi))},
			} {
				name := fmt.Sprintf("%s/%d/%d", eng.name, seed, pi)
				frame := mustEncode(t, eng.enc, p.Bytes)
				add(name, frame)
				add(name+"/packed", exploits.PackOverflow(frame, exploits.OverflowOpts{}))
				add(name+"/morph", mustEncode(t, eng.enc, mutated))
			}
		}
	}
	return names, frames
}

// TestSketchGolden pins the analyzer and emulator path behind Sketch
// to values recorded at the commit before the compact x86.Inst, the
// by-reference lift and the emulator's fetch memo: for every frame in
// testdata/sketch_golden.txt the detections (template, order, matched
// offsets) and the sketch (template, statement and decoded-tail
// hashes) must equal the recorded line.
func TestSketchGolden(t *testing.T) {
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	if *updateSketchGolden {
		var out strings.Builder
		names, frames := sketchGoldenCorpus(t)
		for i := range names {
			fmt.Fprintf(&out, "%s %s %s\n", names[i], hex.EncodeToString(frames[i]), sketchGoldenResult(a, frames[i]))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sketchGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(sketchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n, tails := 0, 0
	for sc.Scan() {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		hexFrame, want, _ := strings.Cut(rest, " ")
		frame, err := hex.DecodeString(hexFrame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sketchGoldenResult(a, frame); got != want {
			t.Errorf("%s:\n  got  %s\n  want %s", name, got, want)
		}
		n++
		if !strings.HasSuffix(want, "/0") {
			tails++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n < 100 || tails < n*9/10 {
		t.Fatalf("golden corpus has %d frames, %d with a decoded tail — too few to pin anything", n, tails)
	}
}
