package sem

import (
	"bufio"
	"encoding/hex"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"semnids/internal/exploits"
	"semnids/internal/morph"
	"semnids/internal/polymorph"
	"semnids/internal/shellcode"
	"semnids/internal/x86"
)

// pruneCorpora is the frame set the viability-prune differential runs
// over: junk in several sizes, protocol text, real exploit payloads,
// polymorphic samples and a packed binary — every shape the analyzer
// sees in production.
func pruneCorpora(t testing.TB) map[string][]byte {
	out := map[string][]byte{
		"junk-64":   junkFrame(11, 64),
		"junk-512":  junkFrame(12, 512),
		"junk-4096": junkFrame(13, 4096),
		"text": []byte("GET /cgi-bin/search?q=hello+world HTTP/1.1\r\n" +
			"Host: www.example.com\r\nAccept: text/html\r\n\r\n"),
		"xor-loop": {
			0x80, 0x36, 0x55, // xor byte [esi], 0x55
			0x46,       // inc esi
			0x75, 0xfa, // jnz -6
		},
		"netsky": exploits.NetskyBinary(3, 4*1024),
	}
	for i, e := range exploits.Table1Exploits() {
		if i%3 == 0 {
			out["exploit-"+e.Name] = e.Payload
		}
	}
	eng := polymorph.NewADMmutate(555)
	for i := 0; i < 3; i++ {
		s, _, err := eng.Encode(shellcode.ClassicPush().Bytes)
		if err != nil {
			t.Fatal(err)
		}
		out["admmutate-"+string(rune('a'+i))] = s
	}
	// Text with an embedded run that decodes around the gate boundary.
	mixed := append([]byte("USER "), make([]byte, 96)...)
	rand.New(rand.NewSource(99)).Read(mixed[5:])
	out["mixed"] = mixed
	return out
}

// pruneSeeds is pruneCorpora plus the frames where a shape bit or a
// per-order answer is most likely to be wrong: morph-rewritten
// cleartext shellcode (no decoder, syscall templates), every stored
// CLET/ADMmutate frame of the sketch golden (bare, overflow-packed,
// over morphed cleartext), junk and a decrypt loop behind a getpc
// call, and protocol text with one decoder spliced in at each of a few
// offsets, so the loop sits behind a divergent text prefix.
func pruneSeeds(t testing.TB) map[string][]byte {
	out := pruneCorpora(t)
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []shellcode.Shellcode{shellcode.ClassicPush(), shellcode.Dup2Shell(), shellcode.BindShell4444()} {
			mutated, err := morph.New(seed).Mutate(p.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			out["morph-"+p.Name+"-"+strconv.FormatInt(seed, 10)] = mutated
		}
	}

	f, err := os.Open("testdata/sketch_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		frame, err := hex.DecodeString(fields[1])
		if err != nil {
			t.Fatalf("sketch golden %s: %v", fields[0], err)
		}
		out["golden-"+fields[0]] = frame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Junk behind a getpc call splices at every offset: the per-order
	// check is all that prunes it.
	for i, n := range []int{16, 64, 256} {
		out["getpc-junk-"+strconv.Itoa(n)] = getpcFramed(junkFrame(int64(40+i), n))
	}
	out["getpc-loop"] = getpcDecryptLoop()

	text := out["text"]
	for _, at := range []int{0, 7, 30, len(text)} {
		spliced := append(append(append([]byte(nil), text[:at]...), out["xor-loop"]...), text[at:]...)
		out["text-spliced-"+strconv.Itoa(at)] = spliced
	}
	return out
}

// getpcFramed wraps body in the jmp/call/pop getpc idiom: a jmp to a
// call back to the pop in front of body.
func getpcFramed(body []byte) []byte {
	return x86.NewAsm().
		Jmp("getpc").
		Label("decoder").PopR(x86.ESI).
		Raw(body...).
		Label("getpc").Call("decoder").
		Raw(body...).
		MustBytes()
}

// pruneAnalyzers returns the pruned analyzer and its unpruned oracle
// over the builtin templates, both sweeping the given offsets (nil =
// the default four).
func pruneAnalyzers(offsets []int) (pruned, baseline *Analyzer) {
	pruned, baseline = NewAnalyzer(BuiltinTemplates()), NewAnalyzer(BuiltinTemplates())
	baseline.DisableSweepPrune = true
	if offsets != nil {
		pruned.SweepOffsets, baseline.SweepOffsets = offsets, offsets
	}
	return pruned, baseline
}

// wideOffsets is the exhaustive offset list (the fullscan shape) where
// pruning has the most offsets to skip and the most opportunities to
// get one wrong.
func wideOffsets() []int {
	offsets := make([]int, 16)
	for i := range offsets {
		offsets[i] = i
	}
	return offsets
}

// checkPruneAgrees fails unless the pruned analyzer reports exactly
// the baseline's detections for the frame: template, order, addresses
// and bindings. Nor may the pruned analyzer's Screen find the frame
// Empty while the baseline detects anything. It returns how many
// detections there were.
func checkPruneAgrees(t testing.TB, name string, pruned, baseline *Analyzer, frame []byte) int {
	t.Helper()
	want := baseline.AnalyzeFrame(frame)
	got := pruned.AnalyzeFrame(frame)
	if len(got) != len(want) {
		t.Fatalf("%s: pruned %v, baseline %v", name, got, want)
	}
	if len(want) != 0 && pruned.Screen(frame).Empty() {
		t.Fatalf("%s: screened Empty, baseline detects %v", name, want)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Errorf("%s detection %d: pruned %v, baseline %v", name, i, got[i], want[i])
		}
		if len(got[i].Bindings) != len(want[i].Bindings) {
			t.Errorf("%s detection %d bindings: pruned %v, baseline %v", name, i, got[i].Bindings, want[i].Bindings)
		}
		for k, v := range want[i].Bindings {
			if got[i].Bindings[k] != v {
				t.Errorf("%s detection %d binding %s: pruned %s, baseline %s",
					name, i, k, got[i].Bindings[k], v)
			}
		}
	}
	return len(want)
}

// TestSweepPruneDifferential proves the sweep-start viability pass
// changes no detection: for every corpus frame, the pruned analyzer
// reports exactly the same detections (template, order, addresses,
// bindings) as the unpruned baseline.
func TestSweepPruneDifferential(t *testing.T) {
	pruned, baseline := pruneAnalyzers(nil)
	for name, frame := range pruneCorpora(t) {
		checkPruneAgrees(t, name, pruned, baseline, frame)
	}
}

// TestSweepPruneWideOffsets runs the differential over every seed
// frame with the exhaustive offset list.
func TestSweepPruneWideOffsets(t *testing.T) {
	pruned, baseline := pruneAnalyzers(wideOffsets())
	detected := 0
	for name, frame := range pruneSeeds(t) {
		detected += checkPruneAgrees(t, name, pruned, baseline, frame)
	}
	if detected < 100 {
		t.Errorf("%d detections over the seed frames: the differential has too little to disagree on", detected)
	}
}

// FuzzSweepPrune: on any frame, at the default and the exhaustive
// offset lists, pruning changes no detection, and a template the byte
// witness rejects is one no sweep could match (checkWitnessRejects).
func FuzzSweepPrune(f *testing.F) {
	for _, frame := range pruneSeeds(f) {
		f.Add(frame)
	}
	pruned, baseline := pruneAnalyzers(nil)
	prunedWide, baselineWide := pruneAnalyzers(wideOffsets())
	solo := soloBaselines(pruned)
	f.Fuzz(func(t *testing.T, frame []byte) {
		checkPruneAgrees(t, "default offsets", pruned, baseline, frame)
		checkPruneAgrees(t, "wide offsets", prunedWide, baselineWide, frame)
		checkWitnessRejects(t, pruned, solo, frame)
	})
}

// TestBuildPruneBits checks viability-bit assignment: every builtin
// template has at least one restricted-vocabulary statement, so every
// template must end up with a viability bit and the table must exist.
func TestBuildPruneBits(t *testing.T) {
	a := NewAnalyzer(BuiltinTemplates())
	if a.pruneTable == nil {
		t.Fatal("no prune table built for the builtin set")
	}
	for i, bit := range a.tplBit {
		if bit == 0 {
			t.Errorf("template %s got no viability bit", a.Templates[i].Name)
		}
	}
}

// TestPruneSkipsHopelessFrame pins that the prune actually fires: a
// frame whose every run lacks the templates' conjunctions has no
// sweep start lifted, on code bytes (ret/nop) and on protocol text,
// whose letters decode as xor/sub, inc/dec and jcc but never with a
// decryption loop's operand shapes. The share over real traffic is
// pinned by engine.TestSweepPruneOnTraffic.
func TestPruneSkipsHopelessFrame(t *testing.T) {
	for name, frame := range map[string][]byte{
		"ret-nop": {0xc3, 0xc3, 0xc3, 0xc3, 0x90, 0x90, 0x90, 0x90},
		"text":    pruneCorpora(t)["text"],
	} {
		a, b := pruneAnalyzers(nil)
		if ds := templateDetections(a.AnalyzeFrame(frame)); len(ds) != 0 {
			t.Fatalf("%s: detected %v", name, ds)
		}
		if ds := templateDetections(b.AnalyzeFrame(frame)); len(ds) != 0 {
			t.Fatalf("%s: baseline detected %v", name, ds)
		}
		considered, lifted := a.SweepStats()
		if considered != 4 || lifted != 0 {
			t.Errorf("%s: %d sweep starts considered, %d lifted; want 4 and 0", name, considered, lifted)
		}
		if considered, lifted := b.SweepStats(); considered != 4 || lifted != 4 {
			t.Errorf("%s: unpruned baseline considered %d, lifted %d; want 4 and 4", name, considered, lifted)
		}
	}
}

// getpcDecryptLoop is the Clet/ADMmutate shape: jmp/call/pop getpc in
// front of a byte-xor decryption loop over an encoded body. The call
// is an in-frame connector, so the sweep splices at every offset.
func getpcDecryptLoop() []byte {
	body := make([]byte, 32)
	rand.New(rand.NewSource(34)).Read(body)
	return x86.NewAsm().
		JmpShort("getpc").
		Label("decoder").PopR(x86.ESI).
		MovRI(x86.ECX, int64(len(body))).
		Label("top").I(x86.XOR, mem8(x86.ESI), x86.ImmOp(0x55)).
		IncR(x86.ESI).
		Loop("top").
		JmpShort("body").
		Label("getpc").Call("decoder").
		Label("body").Raw(body...).
		MustBytes()
}

// TestPruneGetpcLiftsOnce pins the per-order prune on the frame shape
// that dominates polymorphic traffic: offset 0 finds the decoder, and
// at offsets 1–3 neither instruction order can hold a template not yet
// detected, so 1 of the 4 starts is lifted. The detections are the
// unpruned analyzer's.
func TestPruneGetpcLiftsOnce(t *testing.T) {
	frame := getpcDecryptLoop()
	pruned, baseline := pruneAnalyzers(nil)
	if n := checkPruneAgrees(t, "getpc", pruned, baseline, frame); n == 0 {
		t.Fatal("no detection on the getpc decrypt loop")
	}
	if considered, lifted := pruned.SweepStats(); considered != 4 || lifted != 1 {
		t.Errorf("%d sweep starts considered, %d lifted; want 4 and 1", considered, lifted)
	}
}
