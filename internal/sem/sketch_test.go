// Sketch tests live in an external test package: they pin the sketch's
// tail hashing against core.FingerprintOf, and core imports sem, so an
// in-package test could not import core.
package sem_test

import (
	"testing"

	"semnids/internal/core"
	"semnids/internal/emu"
	"semnids/internal/exploits"
	"semnids/internal/polymorph"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
)

// mustEncode re-encodes cleartext through a polymorphic engine and
// fails the test on engine errors.
func mustEncode(t *testing.T, eng interface {
	Encode([]byte) ([]byte, polymorph.Meta, error)
}, cleartext []byte) []byte {
	t.Helper()
	enc, _, err := eng.Encode(cleartext)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// sketchOf analyzes a frame and sketches it, requiring detections and
// a recovered tail — the preconditions every lineage test depends on.
func sketchOf(t *testing.T, a *sem.Analyzer, frame []byte) sem.Sketch {
	t.Helper()
	ds := a.AnalyzeFrame(frame)
	if len(ds) == 0 {
		t.Fatal("analyzer produced no detections for an encoded payload")
	}
	sk := a.Sketch(frame, ds)
	if !sk.HasTail() {
		t.Fatal("sketch recovered no decoded tail")
	}
	return sk
}

// TestSketchTailMatchesCoreFingerprint pins the promise sketch.go makes
// about its duplicated FNV constants: the tail fingerprint must equal
// core.FingerprintOf over the same tail bytes, so tail identities live
// in the same 128-bit keyspace as exact payload fingerprints. The tail
// bytes are recomputed here independently (fresh emulator per entry,
// longest self-rewrite wins, ties to the lowest entry) so a drift in
// either construction fails the test.
func TestSketchTailMatchesCoreFingerprint(t *testing.T) {
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	frame := mustEncode(t, polymorph.NewClet(7), shellcode.ClassicPush().Bytes)
	sk := sketchOf(t, a, frame)

	var best []byte
	for i, entry := range a.SweepOffsets {
		if i >= 4 || entry < 0 || entry >= len(frame) {
			continue
		}
		m := emu.New(frame)
		m.MaxSteps = 1 << 16
		m.Explore(entry)
		var tail []byte
		for j := range frame {
			if m.Mem[j] != frame[j] {
				tail = append(tail, m.Mem[j])
			}
		}
		if len(tail) > len(best) {
			best = tail
		}
	}
	if len(best) == 0 {
		t.Fatal("independent emulation recovered no tail")
	}
	want := core.FingerprintOf(best)
	got := core.Fingerprint{A: sk.TailA, B: sk.TailB, N: sk.TailN}
	if got != want {
		t.Fatalf("tail fingerprint %+v, core.FingerprintOf(tail) %+v — sketch.go's FNV constants drifted from core", got, want)
	}
}

// TestSketchTailInvariantAcrossReencodings is the property the lineage
// subsystem stands on: re-encoding the same cleartext — different
// seeds, different engine families — changes every exact fingerprint
// but converges on one decoded tail.
func TestSketchTailInvariantAcrossReencodings(t *testing.T) {
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	cleartext := shellcode.ClassicPush().Bytes
	frames := [][]byte{
		mustEncode(t, polymorph.NewClet(11), cleartext),
		mustEncode(t, polymorph.NewClet(12), cleartext),
		mustEncode(t, polymorph.NewADMmutate(13), cleartext),
		mustEncode(t, polymorph.NewADMmutate(14), cleartext),
	}

	exact := map[core.Fingerprint]bool{}
	var tails []core.Fingerprint
	for i, frame := range frames {
		exact[core.FingerprintOf(frame)] = true
		sk := sketchOf(t, a, frame)
		tails = append(tails, core.Fingerprint{A: sk.TailA, B: sk.TailB, N: sk.TailN})
		if i > 0 && tails[i] != tails[0] {
			t.Errorf("variant %d tail %+v, variant 0 tail %+v — re-encoding changed the structural identity", i, tails[i], tails[0])
		}
	}
	if len(exact) != len(frames) {
		t.Fatalf("%d distinct exact fingerprints from %d variants — polymorph engines repeated wire bytes", len(exact), len(frames))
	}
}

// TestSketchTailDistinguishesPayloads checks the converse: different
// cleartexts never collide on a tail, even under the same engine and
// seed — a shared tail means shared cleartext, which is what makes a
// tail edge evidence of propagation.
func TestSketchTailDistinguishesPayloads(t *testing.T) {
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	skA := sketchOf(t, a, mustEncode(t, polymorph.NewClet(21), shellcode.ClassicPush().Bytes))
	skB := sketchOf(t, a, mustEncode(t, polymorph.NewClet(21), shellcode.Dup2Shell().Bytes))
	if skA.TailA == skB.TailA && skA.TailB == skB.TailB && skA.TailN == skB.TailN {
		t.Fatal("different cleartexts produced the same decoded tail")
	}
}

// TestSketchZeroOnBenign checks the lineage plane stays silent off the
// hostile path: no detections — whether an empty slice or a benign
// frame the analyzer rejects — means a zero sketch.
func TestSketchZeroOnBenign(t *testing.T) {
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	if sk := a.Sketch([]byte("GET / HTTP/1.0\r\n\r\n"), nil); !sk.IsZero() {
		t.Fatalf("sketch of zero detections = %+v, want zero", sk)
	}
	benign := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<html>hello</html>")
	if ds := a.AnalyzeFrame(benign); len(ds) != 0 {
		t.Fatalf("benign frame produced %d detections", len(ds))
	}
	sk := a.Sketch(benign, a.AnalyzeFrame(benign))
	if !sk.IsZero() {
		t.Fatalf("benign sketch = %+v, want zero", sk)
	}
}

// TestSketchPackedOverflowStillConverges runs the wire shape the
// engine actually sees — encoded variant packed into the overflow
// layout (sled, code, return addresses) — and checks two packings of
// different variants still share a tail.
func TestSketchPackedOverflowStillConverges(t *testing.T) {
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	cleartext := shellcode.ClassicPush().Bytes
	f1 := exploits.PackOverflow(mustEncode(t, polymorph.NewClet(31), cleartext), exploits.OverflowOpts{})
	f2 := exploits.PackOverflow(mustEncode(t, polymorph.NewADMmutate(32), cleartext), exploits.OverflowOpts{})
	sk1 := sketchOf(t, a, f1)
	sk2 := sketchOf(t, a, f2)
	if sk1.TailA != sk2.TailA || sk1.TailB != sk2.TailB || sk1.TailN != sk2.TailN {
		t.Fatalf("packed variants diverged: tail1=%x/%x/%d tail2=%x/%x/%d",
			sk1.TailA, sk1.TailB, sk1.TailN, sk2.TailA, sk2.TailB, sk2.TailN)
	}
}
