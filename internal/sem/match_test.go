package sem

import (
	"bytes"
	"slices"
	"testing"

	"semnids/internal/x86"
)

// Constants the built-in templates (templates/builtin.tpl) look for:
// the execve and socketcall syscall numbers, socketcall's bind call,
// and the low end of Code Red II's msvcrt.dll range.
const (
	sysExecve      = 0x0b
	socketcallBind = 2
	codeRedLo      = 0x78000000
)

// builtinTemplate returns the built-in template called name, freshly
// parsed and not yet compiled.
func builtinTemplate(t testing.TB, name string) *Template {
	t.Helper()
	for _, tpl := range BuiltinTemplates() {
		if tpl.Name == name {
			return tpl
		}
	}
	t.Fatalf("no built-in template %q", name)
	return nil
}

// templateDetections drops the data-level return-address detection,
// which runs beside the templates on every frame.
func templateDetections(ds []Detection) []Detection {
	return slices.DeleteFunc(ds, func(d Detection) bool { return d.Template == "return-address-region" })
}

func analyzeAll(t *testing.T, frame []byte) map[string]Detection {
	t.Helper()
	a := NewAnalyzer(BuiltinTemplates())
	out := make(map[string]Detection)
	for _, d := range a.AnalyzeFrame(frame) {
		out[d.Template] = d
	}
	return out
}

func mem8(base x86.Reg) x86.Operand {
	return x86.MemOp(x86.MemRef{Base: base, Size: 1, Scale: 1})
}

// Figure 1(a): xor byte ptr [eax], 95h ; inc eax ; loop decode
func fig1a() []byte {
	return x86.NewAsm().
		Label("decode").
		I(x86.XOR, mem8(x86.EAX), x86.ImmOp(-0x6b)). // 0x95 sign-extended
		IncR(x86.EAX).
		Loop("decode").
		MustBytes()
}

// Figure 1(b): key obscured through a register, inc replaced by add.
func fig1b() []byte {
	return x86.NewAsm().
		Label("decode").
		MovRI(x86.EBX, 0x31).
		AddRI(x86.EBX, 0x64).
		I(x86.XOR, mem8(x86.EAX), x86.RegOp(x86.BL)).
		AddRI(x86.EAX, 1).
		Loop("decode").
		MustBytes()
}

// Figure 1(c): garbage instructions and out-of-order code with jmps.
func fig1c() []byte {
	return x86.NewAsm().
		Label("decode").
		MovRI(x86.ECX, 0).
		IncR(x86.ECX).
		IncR(x86.ECX).
		JmpShort("one").
		Label("two").
		AddRI(x86.EAX, 1).
		JmpShort("three").
		Label("one").
		MovRI(x86.EBX, 0x31).
		AddRI(x86.EBX, 0x64).
		I(x86.XOR, mem8(x86.EAX), x86.RegOp(x86.BL)).
		JmpShort("two").
		Label("three").
		Loop("one").
		MustBytes()
}

func TestXorLoopFigure1Variants(t *testing.T) {
	for name, code := range map[string][]byte{"1a": fig1a(), "1b": fig1b(), "1c": fig1c()} {
		ds := analyzeAll(t, code)
		d, ok := ds["xor-decrypt-loop"]
		if !ok {
			t.Errorf("figure %s: xor-decrypt-loop not detected (got %v)", name, ds)
			continue
		}
		if key := d.Bindings["B"]; key != "0x95" {
			t.Errorf("figure %s: key = %q, want 0x95", name, key)
		}
	}
}

func TestXorLoopWithJunk(t *testing.T) {
	// NOP-like and garbage instructions interleaved; the matcher must
	// skip them because they do not clobber the bound registers.
	code := x86.NewAsm().
		Label("decode").
		Nop().
		I(x86.CLD).
		MovRI(x86.EDX, 0xdead). // junk def of an unbound register
		I(x86.XOR, mem8(x86.ESI), x86.ImmOp(0x42)).
		I(x86.STC).
		IncR(x86.EDX). // junk
		IncR(x86.ESI).
		MovRI(x86.EBX, 7). // junk
		JccShort(x86.CondNE, "decode").
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["xor-decrypt-loop"]; !ok {
		t.Fatalf("junk-laden xor loop not detected: %v", ds)
	}
}

func TestXorLoopRegisterReassignment(t *testing.T) {
	// Any register pair must work (template variables, not fixed regs).
	for _, ptr := range []x86.Reg{x86.EAX, x86.EBX, x86.ESI, x86.EDI} {
		code := x86.NewAsm().
			Label("decode").
			I(x86.SUB, mem8(ptr), x86.ImmOp(0x13)).
			AddRI(ptr, 1).
			Loop("decode").
			MustBytes()
		ds := analyzeAll(t, code)
		d, ok := ds["xor-decrypt-loop"]
		if !ok {
			t.Errorf("ptr=%v: not detected", ptr)
			continue
		}
		if d.Bindings["A"] != ptr.String() {
			t.Errorf("ptr=%v: bound A=%v", ptr, d.Bindings["A"])
		}
	}
}

func TestClobberedPointerRejected(t *testing.T) {
	// The pointer register is overwritten between the transform and
	// the advance: this is NOT a decryption loop over a buffer.
	code := x86.NewAsm().
		Label("decode").
		I(x86.XOR, mem8(x86.EAX), x86.ImmOp(0x42)).
		MovRI(x86.EAX, 0x1000). // clobbers the pointer
		AddRI(x86.EAX, 1).
		Loop("decode").
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["xor-decrypt-loop"]; ok {
		t.Error("clobbered pointer should not match the decrypt-loop template")
	}
}

func TestNoBackEdgeRejected(t *testing.T) {
	// Straight-line xor+inc without a loop is not a decryption loop.
	code := x86.NewAsm().
		I(x86.XOR, mem8(x86.EAX), x86.ImmOp(0x42)).
		IncR(x86.EAX).
		I(x86.RET).
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["xor-decrypt-loop"]; ok {
		t.Error("loop-less code should not match")
	}
}

func TestShellSpawnPushVariant(t *testing.T) {
	// Classic: xor eax,eax; push eax; push "//sh"; push "/bin";
	// mov ebx,esp; ... mov al, 0xb; int 0x80
	code := x86.NewAsm().
		XorRR(x86.EAX, x86.EAX).
		PushR(x86.EAX).
		PushI(0x68732f2f).
		PushI(0x6e69622f).
		MovRR(x86.EBX, x86.ESP).
		XorRR(x86.ECX, x86.ECX).
		XorRR(x86.EDX, x86.EDX).
		I(x86.MOV, x86.RegOp(x86.AL), x86.ImmOp(0xb)).
		IntN(0x80).
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["linux-shell-spawn"]; !ok {
		t.Fatalf("push-variant shell spawn not detected: %v", ds)
	}
}

func TestShellSpawnPushPopEax(t *testing.T) {
	// execve number loaded via push 0xb / pop eax.
	code := x86.NewAsm().
		PushI(0x68732f2f).
		PushI(0x6e69622f).
		MovRR(x86.EBX, x86.ESP).
		PushI(0xb).
		PopR(x86.EAX).
		IntN(0x80).
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["linux-shell-spawn"]; !ok {
		t.Fatalf("push/pop shell spawn not detected: %v", ds)
	}
}

func TestShellSpawnStringVariant(t *testing.T) {
	// jmp-call-pop style: the string is literal data in the frame.
	code := x86.NewAsm().
		JmpShort("data").
		Label("code").
		PopR(x86.EBX).
		XorRR(x86.EAX, x86.EAX).
		I(x86.MOV, x86.RegOp(x86.AL), x86.ImmOp(0xb)).
		XorRR(x86.ECX, x86.ECX).
		I(x86.CDQ).
		IntN(0x80).
		Label("data").
		Call("code").
		Raw([]byte("/bin/sh\x00")...).
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["linux-shell-spawn"]; !ok {
		t.Fatalf("jmp-call-pop shell spawn not detected: %v", ds)
	}
}

func TestPortBindShell(t *testing.T) {
	// socketcall(bind) then execve.
	code := x86.NewAsm().
		XorRR(x86.EAX, x86.EAX).
		I(x86.MOV, x86.RegOp(x86.AL), x86.ImmOp(0x66)).
		XorRR(x86.EBX, x86.EBX).
		I(x86.MOV, x86.RegOp(x86.BL), x86.ImmOp(2)). // bind
		IntN(0x80).
		PushI(0x68732f2f).
		PushI(0x6e69622f).
		MovRR(x86.EBX, x86.ESP).
		PushI(0xb).
		PopR(x86.EAX).
		IntN(0x80).
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["port-bind-shell"]; !ok {
		t.Fatalf("port-bind shell not detected: %v", ds)
	}
	if _, ok := ds["linux-shell-spawn"]; !ok {
		t.Fatalf("shell spawn not also detected: %v", ds)
	}
}

func TestCodeRedIITemplate(t *testing.T) {
	code := x86.NewAsm().
		MovRI(x86.EBX, 0x7801cbd3).
		Nop().
		I(x86.CALL, x86.RegOp(x86.EBX)).
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["code-red-ii"]; !ok {
		t.Fatalf("code-red-ii not detected: %v", ds)
	}
}

func TestCodeRedIIClobberedRejected(t *testing.T) {
	code := x86.NewAsm().
		MovRI(x86.EBX, 0x7801cbd3).
		MovRI(x86.EBX, 0x1000). // register overwritten before use
		I(x86.CALL, x86.RegOp(x86.EBX)).
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["code-red-ii"]; ok {
		t.Error("clobbered CRII register should not match")
	}
}

func TestReturnAddressRegionDetector(t *testing.T) {
	var frame []byte
	for i := 0; i < 8; i++ {
		// 0xbffff5xx with varying LSB — equal modulo LSB.
		frame = append(frame, byte(0x10+i), 0xf5, 0xff, 0xbf)
	}
	ds := analyzeAll(t, frame)
	if _, ok := ds["return-address-region"]; !ok {
		t.Fatalf("return-address region not detected: %v", ds)
	}

	// Varying upper bytes must not match.
	frame = nil
	for i := 0; i < 8; i++ {
		frame = append(frame, 0x10, byte(0xf5+i), 0xff, 0xbf)
	}
	ds = analyzeAll(t, frame)
	if _, ok := ds["return-address-region"]; ok {
		t.Error("non-repeating dwords should not match")
	}
}

func TestBenignCodeNoDetections(t *testing.T) {
	// A plausible benign function: prologue, some arithmetic, a
	// forward-only loop over a counter (no memory transform), epilogue.
	code := x86.NewAsm().
		PushR(x86.EBP).
		MovRR(x86.EBP, x86.ESP).
		SubRI(x86.ESP, 0x20).
		XorRR(x86.EAX, x86.EAX).
		Label("loop").
		AddRI(x86.EAX, 2).
		I(x86.CMP, x86.RegOp(x86.EAX), x86.ImmOp(100)).
		JccShort(x86.CondL, "loop").
		MovRR(x86.ESP, x86.EBP).
		PopR(x86.EBP).
		I(x86.RET).
		MustBytes()
	ds := analyzeAll(t, code)
	if len(ds) != 0 {
		t.Errorf("benign code produced detections: %v", ds)
	}
}

func TestASCIITextNoDetections(t *testing.T) {
	text := []byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n" +
		"User-Agent: Mozilla/5.0 (X11; Linux) Gecko/20060101\r\n" +
		"Accept: text/html,application/xhtml+xml\r\n\r\n")
	ds := analyzeAll(t, text)
	if len(ds) != 0 {
		t.Errorf("ASCII text produced detections: %v", ds)
	}
}

func TestAltDecodeLoop(t *testing.T) {
	// The XNOR decoder: mov/not/and/or over a memory location and a
	// register pair (the scheme the paper discovered in ADMmutate).
	k := int64(0x5a)
	code := x86.NewAsm().
		Label("decode").
		I(x86.MOV, x86.RegOp(x86.AL), mem8(x86.ESI)).
		I(x86.MOV, x86.RegOp(x86.BL), x86.RegOp(x86.AL)).
		I(x86.NOT, x86.RegOp(x86.BL)).
		I(x86.AND, x86.RegOp(x86.AL), x86.ImmOp(k)).
		I(x86.AND, x86.RegOp(x86.BL), x86.ImmOp(^k&0xff)).
		I(x86.OR, x86.RegOp(x86.AL), x86.RegOp(x86.BL)).
		I(x86.MOV, mem8(x86.ESI), x86.RegOp(x86.AL)).
		IncR(x86.ESI).
		Loop("decode").
		MustBytes()
	ds := analyzeAll(t, code)
	if _, ok := ds["admmutate-alt-decode-loop"]; !ok {
		t.Fatalf("alternate decode loop not detected: %v", ds)
	}
}

func TestXorOnlyTemplateSetMissesAltDecoder(t *testing.T) {
	// The Table 2 narrative: before the alternate template was
	// written, the mov/or/and/not scheme evaded the xor template.
	k := int64(0x5a)
	code := x86.NewAsm().
		Label("decode").
		I(x86.MOV, x86.RegOp(x86.AL), mem8(x86.ESI)).
		I(x86.MOV, x86.RegOp(x86.BL), x86.RegOp(x86.AL)).
		I(x86.NOT, x86.RegOp(x86.BL)).
		I(x86.AND, x86.RegOp(x86.AL), x86.ImmOp(k)).
		I(x86.AND, x86.RegOp(x86.BL), x86.ImmOp(^k&0xff)).
		I(x86.OR, x86.RegOp(x86.AL), x86.RegOp(x86.BL)).
		I(x86.MOV, mem8(x86.ESI), x86.RegOp(x86.AL)).
		IncR(x86.ESI).
		Loop("decode").
		MustBytes()
	a := NewAnalyzer(XorOnlyTemplates())
	for _, d := range a.AnalyzeFrame(code) {
		if d.Template == "admmutate-alt-decode-loop" || d.Template == "xor-decrypt-loop" {
			t.Errorf("xor-only template set should miss the alternate decoder, got %v", d)
		}
	}
}

func TestMatcherNeedsFolding(t *testing.T) {
	// Ablation for DESIGN.md decision 2: without constant folding the
	// key in Figure 1(b) cannot be resolved. We verify the fold is
	// what produces the key binding.
	ds := analyzeAll(t, fig1b())
	d := ds["xor-decrypt-loop"]
	if d.Bindings["B"] != "0x95" {
		t.Errorf("folded key = %v, want 0x95", d.Bindings["B"])
	}
}

func TestMatcherNeedsJumpThreading(t *testing.T) {
	// Ablation for DESIGN.md decision 3: Figure 1(c) must match in
	// threaded order (the raw order interleaves the blocks).
	ds := analyzeAll(t, fig1c())
	d, ok := ds["xor-decrypt-loop"]
	if !ok {
		t.Fatal("figure 1(c) not detected")
	}
	if d.Order != "threaded" {
		t.Errorf("figure 1(c) matched in %q order, expected threaded", d.Order)
	}
}

func TestExpandStmts(t *testing.T) {
	s := []Stmt{{Kind: SRegXform, MinRep: 2, MaxRep: 4}}
	out := expandStmts(s)
	if len(out) != 4 {
		t.Fatalf("expanded to %d statements, want 4", len(out))
	}
	if out[0].Optional || out[1].Optional {
		t.Error("first MinRep copies must be mandatory")
	}
	if !out[2].Optional || !out[3].Optional {
		t.Error("copies beyond MinRep must be optional")
	}
	// No repetition: pass-through.
	s = []Stmt{{Kind: SAdvance}}
	if out := expandStmts(s); len(out) != 1 || out[0].Optional {
		t.Error("non-repeated statement must pass through")
	}
}

func TestEmptyFrame(t *testing.T) {
	if ds := analyzeAll(t, nil); len(ds) != 0 {
		t.Errorf("empty frame produced detections: %v", ds)
	}
	if ds := analyzeAll(t, []byte{0x90}); len(ds) != 0 {
		t.Errorf("single nop produced detections: %v", ds)
	}
}

// TestSearchExhaustedCounted checks that a search cut off by the
// backtracking budget is counted rather than passing as a plain "no
// match": three unbound inc statements over a run of 300 incs, then a
// syscall nothing satisfies, make C(300, 4) candidate placements.
func TestSearchExhaustedCounted(t *testing.T) {
	inc := Stmt{Kind: SRegXform, Ops: []x86.Opcode{x86.INC}}
	tpl := &Template{Name: "exhaust", Stmts: []Stmt{inc, inc, inc, {Kind: SSyscall, Num: 0x1234}}}
	a := NewAnalyzer([]*Template{tpl})
	a.DisableSweepPrune = true
	if ds := templateDetections(a.AnalyzeFrame(fig1a())); len(ds) != 0 || a.SearchesExhausted() != 0 {
		t.Fatalf("short frame: detections %v, %d searches exhausted", ds, a.SearchesExhausted())
	}
	frame := append([]byte{0xcd, 0x80}, bytes.Repeat([]byte{0x40}, 300)...) // int 0x80; inc eax × 300
	if ds := templateDetections(a.AnalyzeFrame(frame)); len(ds) != 0 {
		t.Fatalf("detections %v, want none", ds)
	}
	if a.SearchesExhausted() == 0 {
		t.Fatal("the budget cut the search off, but no exhausted search was counted")
	}
}
