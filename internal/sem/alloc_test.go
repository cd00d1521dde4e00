package sem

import (
	"math/rand"
	"testing"

	"semnids/internal/polymorph"
	"semnids/internal/shellcode"
	"semnids/internal/x86"
)

// junkFrame returns a deterministic junk-heavy frame (the common case
// for an analyzer fed by a sensor: binary data that is not an
// exploit).
func junkFrame(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestAnalyzeFrameAllocs pins the steady-state allocation behavior of
// the hot path: analyzing a benign frame with a warmed scratch pool
// must not allocate per frame beyond a tiny fixed slack (the scratch
// pool itself may be repopulated after a GC).
func TestAnalyzeFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	a := NewAnalyzer(BuiltinTemplates())
	frame := junkFrame(42, 2048)
	// Warm up: grows the pooled scratch to frame size and compiles the
	// templates.
	for i := 0; i < 3; i++ {
		if ds := a.AnalyzeFrame(frame); len(ds) != 0 {
			t.Fatalf("junk frame unexpectedly detected: %v", ds)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		a.AnalyzeFrame(frame)
	})
	// The old matcher allocated two maps per candidate node — hundreds
	// of thousands of objects for a frame this size. Steady state is
	// now zero; 2 leaves slack for pool refills after a GC cycle.
	if allocs > 2 {
		t.Errorf("AnalyzeFrame allocates %.1f objects per benign frame, want <= 2", allocs)
	}
}

// TestSketchAllocs pins the lineage path's allocation behavior on a
// decoder frame. The emulator, its decode cache and the tail buffers
// come from the analyzer's scratch pool, so what is left is the two
// sorted name lists and their sort — a constant that neither grows
// with the thousands of steps the decoder loop executes (before the
// emulator decoded in place, every step allocated its instruction) nor
// with the frame (before the pooled machine every sketch allocated
// three frame-sized slices).
func TestSketchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	a := NewAnalyzer(BuiltinTemplates())
	frame, _, err := polymorph.NewClet(5).Encode(shellcode.BindShell4444().Bytes)
	if err != nil {
		t.Fatal(err)
	}
	ds := a.AnalyzeFrame(frame)
	if sk := a.Sketch(frame, ds); !sk.HasTail() {
		t.Fatalf("no decoded tail for the encoded payload (detections %v)", ds)
	}
	allocs := testing.AllocsPerRun(50, func() {
		a.Sketch(frame, ds)
	})
	// Steady state is 4; 2 leaves slack for pool refills after a GC
	// cycle.
	if allocs > 6 {
		t.Errorf("Sketch allocates %.1f objects per decoder frame, want <= 6", allocs)
	}
}

// TestAnalyzeFrameCachedEquivalence asserts that analysis through a
// pre-built (extraction-shared) decode cache produces exactly the same
// detections as the self-contained path, over junk, text and
// detection-triggering frames.
func TestAnalyzeFrameCachedEquivalence(t *testing.T) {
	a := NewAnalyzer(BuiltinTemplates())
	frames := [][]byte{
		junkFrame(1, 64),
		junkFrame(2, 1024),
		junkFrame(3, 4096),
	}
	// A frame that actually triggers the xor template: xor byte
	// [esi], 0x55; inc esi; jnz back.
	frames = append(frames, []byte{
		0x80, 0x36, 0x55, // xor byte [esi], 0x55
		0x46,       // inc esi
		0x75, 0xfa, // jnz -6
	})
	for i, frame := range frames {
		plain := a.AnalyzeFrame(frame)
		cache := x86.NewDecodeCache(frame)
		// Pre-sweep offset 0, then analyze through the same cache.
		cache.Sweep(0)
		cached := a.AnalyzeFrameCached(frame, cache)
		if len(plain) != len(cached) {
			t.Fatalf("frame %d: %d detections plain, %d cached", i, len(plain), len(cached))
		}
		for j := range plain {
			if plain[j].String() != cached[j].String() {
				t.Errorf("frame %d detection %d: plain %v, cached %v", i, j, plain[j], cached[j])
			}
			for k, v := range plain[j].Bindings {
				if cached[j].Bindings[k] != v {
					t.Errorf("frame %d detection %d binding %s: plain %s, cached %s",
						i, j, k, v, cached[j].Bindings[k])
				}
			}
		}
	}
}

// TestTemplateCompileIdempotent asserts Compile is a safe no-op when
// repeated and that compiled state survives concurrent first use.
func TestTemplateCompileIdempotent(t *testing.T) {
	tpl := builtinTemplate(t, "xor-decrypt-loop")
	c1 := tpl.Compile().compiled()
	c2 := tpl.Compile().compiled()
	if c1 != c2 {
		t.Fatal("Compile rebuilt the compiled form")
	}
	done := make(chan *compiledTemplate, 8)
	fresh := builtinTemplate(t, "admmutate-alt-decode-loop")
	for i := 0; i < 8; i++ {
		go func() { done <- fresh.compiled() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if got := <-done; got != first {
			t.Fatal("concurrent compilation produced distinct compiled forms")
		}
	}
}

// TestCompiledPrefilterSuperset asserts the opcode prefilter never
// rejects an order the full search would match: every statement kind's
// mask must accept every opcode matchStmt can accept. It drives the
// matcher over single-instruction sequences for each opcode and
// cross-checks against the mask.
func TestCompiledPrefilterSuperset(t *testing.T) {
	kinds := []Stmt{
		{Kind: SMemLoad},
		{Kind: SMemStore},
		{Kind: SAdvance},
		{Kind: SBackEdge},
		{Kind: SSyscall, Num: 1},
		{Kind: SConstInRange, Lo: 1, Hi: 2},
		{Kind: SIndirect},
	}
	for _, st := range kinds {
		mask, restricted := stmtOpMask(&st)
		if !restricted {
			continue
		}
		// Masks must cover at least the opcodes the matcher's
		// acceptance logic names for the kind; spot-check a few known
		// required members.
		var need []x86.Opcode
		switch st.Kind {
		case SMemLoad:
			need = []x86.Opcode{x86.MOV, x86.LODSB, x86.LODSD}
		case SMemStore:
			need = []x86.Opcode{x86.MOV, x86.STOSB, x86.STOSD}
		case SAdvance:
			need = []x86.Opcode{x86.INC, x86.DEC, x86.ADD, x86.SUB, x86.LEA}
		case SBackEdge:
			need = []x86.Opcode{x86.JCC, x86.LOOP, x86.LOOPE, x86.LOOPNE, x86.JECXZ}
		case SSyscall:
			need = []x86.Opcode{x86.INT}
		case SConstInRange:
			need = []x86.Opcode{x86.MOV, x86.PUSH}
		case SIndirect:
			need = []x86.Opcode{x86.CALL, x86.JMP}
		}
		for _, op := range need {
			if !mask.Has(op) {
				t.Errorf("kind %d: prefilter mask missing opcode %v", st.Kind, op)
			}
		}
	}
}
