package x86

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// dec decodes a single instruction from b and fails the test on error.
func dec(t *testing.T, b ...byte) Inst {
	t.Helper()
	in, err := Decode(b, 0)
	if err != nil {
		t.Fatalf("Decode(% x): %v", b, err)
	}
	return in
}

func TestDecodeSimple(t *testing.T) {
	cases := []struct {
		bytes []byte
		want  string
		len   int
	}{
		{[]byte{0x90}, "nop", 1},
		{[]byte{0xc3}, "ret", 1},
		{[]byte{0xc2, 0x08, 0x00}, "ret 0x8", 3},
		{[]byte{0xcc}, "int3", 1},
		{[]byte{0xcd, 0x80}, "int 0x80", 2},
		{[]byte{0x40}, "inc eax", 1},
		{[]byte{0x4b}, "dec ebx", 1},
		{[]byte{0x50}, "push eax", 1},
		{[]byte{0x5f}, "pop edi", 1},
		{[]byte{0x60}, "pushad", 1},
		{[]byte{0x61}, "popad", 1},
		{[]byte{0x6a, 0x0b}, "push 0xb", 2},
		{[]byte{0x68, 0x2f, 0x62, 0x69, 0x6e}, "push 0x6e69622f", 5},
		{[]byte{0xf8}, "clc", 1},
		{[]byte{0xfc}, "cld", 1},
		{[]byte{0x99}, "cdq", 1},
		{[]byte{0xd6}, "salc", 1},
		{[]byte{0xd7}, "xlat", 1},
		{[]byte{0xf4}, "hlt", 1},
		{[]byte{0x27}, "daa", 1},
		{[]byte{0x37}, "aaa", 1},
		{[]byte{0xaa}, "stosb", 1},
		{[]byte{0xac}, "lodsb", 1},
		{[]byte{0x0f, 0xa2}, "cpuid", 2},
		{[]byte{0x0f, 0x31}, "rdtsc", 2},
		{[]byte{0x0f, 0xc9}, "bswap ecx", 2},
		{[]byte{0xc9}, "leave", 1},
	}
	for _, c := range cases {
		in := dec(t, c.bytes...)
		if got := in.String(); got != c.want {
			t.Errorf("Decode(% x) = %q, want %q", c.bytes, got, c.want)
		}
		if int(in.Len) != c.len {
			t.Errorf("Decode(% x) len = %d, want %d", c.bytes, in.Len, c.len)
		}
	}
}

func TestDecodeMovForms(t *testing.T) {
	cases := []struct {
		bytes []byte
		want  string
	}{
		{[]byte{0xb8, 0x0b, 0x00, 0x00, 0x00}, "mov eax, 0xb"},
		{[]byte{0xb0, 0x0b}, "mov al, 0xb"},
		{[]byte{0xb3, 0x95}, "mov bl, -0x6b"}, // sign-extended imm8
		{[]byte{0x89, 0xd8}, "mov eax, ebx"},
		{[]byte{0x8b, 0xd8}, "mov ebx, eax"},
		{[]byte{0x88, 0x18}, "mov byte ptr [eax], bl"},
		{[]byte{0x8a, 0x18}, "mov bl, byte ptr [eax]"},
		{[]byte{0xc6, 0x00, 0x41}, "mov byte ptr [eax], 0x41"},
		{[]byte{0xc7, 0x03, 0x78, 0x56, 0x34, 0x12}, "mov dword ptr [ebx], 0x12345678"},
		{[]byte{0x8b, 0x44, 0x24, 0x04}, "mov eax, dword ptr [esp+0x4]"},
		{[]byte{0x8b, 0x04, 0x8d, 0x00, 0x10, 0x00, 0x00}, "mov eax, dword ptr [ecx*4+0x1000]"},
		{[]byte{0x8d, 0x41, 0x01}, "lea eax, [ecx+0x1]"},
		{[]byte{0xa1, 0x44, 0x33, 0x22, 0x11}, "mov eax, dword ptr [0x11223344]"},
		{[]byte{0x0f, 0xb6, 0xc3}, "movzx eax, bl"},
		{[]byte{0x0f, 0xbe, 0x03}, "movsx eax, byte ptr [ebx]"},
	}
	for _, c := range cases {
		in := dec(t, c.bytes...)
		if got := in.String(); got != c.want {
			t.Errorf("Decode(% x) = %q, want %q", c.bytes, got, c.want)
		}
	}
}

func TestDecodeALU(t *testing.T) {
	cases := []struct {
		bytes []byte
		want  string
	}{
		{[]byte{0x31, 0xc0}, "xor eax, eax"},
		{[]byte{0x29, 0xd9}, "sub ecx, ebx"},
		{[]byte{0x01, 0xc8}, "add eax, ecx"},
		{[]byte{0x30, 0x18}, "xor byte ptr [eax], bl"},
		{[]byte{0x80, 0x30, 0x95}, "xor byte ptr [eax], -0x6b"},
		{[]byte{0x83, 0xc0, 0x01}, "add eax, 0x1"},
		{[]byte{0x81, 0xc3, 0x64, 0x00, 0x00, 0x00}, "add ebx, 0x64"},
		{[]byte{0x04, 0x05}, "add al, 0x5"},
		{[]byte{0x3d, 0xff, 0x00, 0x00, 0x00}, "cmp eax, 0xff"},
		{[]byte{0x85, 0xc0}, "test eax, eax"},
		{[]byte{0xf7, 0xd0}, "not eax"},
		{[]byte{0xf7, 0xd8}, "neg eax"},
		{[]byte{0xf6, 0x17}, "not byte ptr [edi]"},
		{[]byte{0xc1, 0xe0, 0x04}, "shl eax, 0x4"},
		{[]byte{0xd1, 0xe8}, "shr eax, 0x1"},
		{[]byte{0xd3, 0xf8}, "sar eax, cl"},
		{[]byte{0x0f, 0xaf, 0xc3}, "imul eax, ebx"},
		{[]byte{0x6b, 0xc0, 0x07}, "imul eax, eax, 0x7"},
	}
	for _, c := range cases {
		in := dec(t, c.bytes...)
		if got := in.String(); got != c.want {
			t.Errorf("Decode(% x) = %q, want %q", c.bytes, got, c.want)
		}
	}
}

func TestDecodeTwoByteExtensions(t *testing.T) {
	cases := []struct {
		bytes []byte
		want  string
	}{
		{[]byte{0x0f, 0x44, 0xc3}, "cmove eax, ebx"},
		{[]byte{0x0f, 0x4f, 0x03}, "cmovg eax, dword ptr [ebx]"},
		{[]byte{0x0f, 0xa3, 0xd8}, "bt eax, ebx"},
		{[]byte{0x0f, 0xab, 0xd8}, "bts eax, ebx"},
		{[]byte{0x0f, 0xba, 0xe0, 0x07}, "bt eax, 0x7"},
		{[]byte{0x0f, 0xba, 0xf8, 0x03}, "btc eax, 0x3"},
		{[]byte{0x0f, 0xa4, 0xd8, 0x04}, "shld eax, ebx, 0x4"},
		{[]byte{0x0f, 0xad, 0xd8}, "shrd eax, ebx, cl"},
		{[]byte{0x0f, 0xb1, 0x0b}, "cmpxchg dword ptr [ebx], ecx"},
		{[]byte{0x0f, 0xc1, 0x0b}, "xadd dword ptr [ebx], ecx"},
		{[]byte{0x0f, 0xb0, 0x0b}, "cmpxchg byte ptr [ebx], cl"},
	}
	for _, c := range cases {
		in := dec(t, c.bytes...)
		if got := in.String(); got != c.want {
			t.Errorf("Decode(% x) = %q, want %q", c.bytes, got, c.want)
		}
	}
	// 0f ba with a low reg field is not a defined bt-group form.
	if _, err := Decode([]byte{0x0f, 0xba, 0xc0, 0x01}, 0); err == nil {
		t.Error("0f ba /0 should not decode")
	}
}

func TestDecodeBranches(t *testing.T) {
	// Branch targets are absolute offsets within the frame.
	b := []byte{
		0x90,       // 0: nop
		0xeb, 0x02, // 1: jmp 5
		0x90, 0x90, // 3,4
		0xe2, 0xf9, // 5: loop 0  (5+2-7 = 0)
		0x74, 0x01, // 7: je 10
		0x90,                         // 9
		0xe8, 0x00, 0x00, 0x00, 0x00, // 10: call 15
	}
	in, err := Decode(b, 1)
	if err != nil || !in.HasTarget || in.Target != 5 {
		t.Fatalf("jmp decode: %+v err=%v", in, err)
	}
	in, err = Decode(b, 5)
	if err != nil || in.Op != LOOP || in.Target != 0 {
		t.Fatalf("loop decode: %+v err=%v", in, err)
	}
	in, err = Decode(b, 7)
	if err != nil || in.Op != JCC || in.Cond != CondE || in.Target != 10 {
		t.Fatalf("je decode: %+v err=%v", in, err)
	}
	in, err = Decode(b, 10)
	if err != nil || in.Op != CALL || in.Target != 15 {
		t.Fatalf("call decode: %+v err=%v", in, err)
	}
	// Near forms.
	nb := []byte{0xe9, 0x10, 0x00, 0x00, 0x00, 0x0f, 0x84, 0xfb, 0xff, 0xff, 0xff}
	in, err = Decode(nb, 0)
	if err != nil || in.Op != JMP || in.Target != 0x15 {
		t.Fatalf("jmp near: %+v err=%v", in, err)
	}
	in, err = Decode(nb, 5)
	if err != nil || in.Op != JCC || in.Cond != CondE || in.Target != 6 {
		t.Fatalf("je near: %+v err=%v", in, err)
	}
	// Under 66 the near forms read a rel16, and the CPU truncates the
	// target to 16 bits: the length follows the prefix and the target is
	// the saturated out-of-frame one, never a frame offset. The rel8
	// forms keep their length, and their target is truncated all the
	// same.
	for _, c := range []struct {
		b   []byte
		at  int
		op  Opcode
		len int
	}{
		{[]byte{0x66, 0xe8, 0xf0, 0xff, 0x90, 0x90}, 0, CALL, 4},
		{[]byte{0x66, 0xe9, 0x00, 0x00, 0x90, 0x90}, 0, JMP, 4},
		{[]byte{0x66, 0x0f, 0x85, 0xfa, 0xff, 0x90, 0x90}, 0, JCC, 5},
		{[]byte{0x90, 0x90, 0x66, 0x75, 0xfb}, 2, JCC, 3},
		{[]byte{0x90, 0x90, 0x66, 0x70, 0x00, 0x90}, 2, JCC, 3},
		{[]byte{0x90, 0x90, 0x66, 0xe0, 0xfb}, 2, LOOPNE, 3},
		{[]byte{0x90, 0x90, 0x66, 0xe1, 0xfb}, 2, LOOPE, 3},
		{[]byte{0x90, 0x90, 0x66, 0xe2, 0xfb}, 2, LOOP, 3},
		{[]byte{0x90, 0x90, 0x66, 0xe3, 0x01, 0x90}, 2, JECXZ, 3},
		{[]byte{0x90, 0x90, 0x66, 0xeb, 0xfb}, 2, JMP, 3},
	} {
		in, err := Decode(c.b, c.at)
		if err != nil || in.Op != c.op || int(in.Len) != c.len || !in.HasTarget || in.Target != math.MaxInt32 {
			t.Errorf("Decode(% x) = %+v err=%v, want %v of length %d with target MaxInt32", c.b, in, err, c.op, c.len)
		}
	}
	if _, err := Decode([]byte{0x66, 0xe8, 0x00}, 0); err == nil {
		t.Error("66 e8 with one displacement byte should not decode")
	}
}

func TestDecodePaperFigure1a(t *testing.T) {
	// Figure 1(a): the simple xor decryption routine.
	//   decode: xor byte ptr [eax], 95h ; inc eax ; loop decode
	b := []byte{
		0x80, 0x30, 0x95, // xor byte ptr [eax], 0x95
		0x40,       // inc eax
		0xe2, 0xfa, // loop -6 -> 0
	}
	insts := SweepAll(b)
	if len(insts) != 3 {
		t.Fatalf("got %d instructions, want 3: %v", len(insts), insts)
	}
	wants := []string{"xor byte ptr [eax], -0x6b", "inc eax", "loop 0x0"}
	for i, w := range wants {
		if insts[i].String() != w {
			t.Errorf("inst %d = %q, want %q", i, insts[i], w)
		}
	}
	if insts[2].Target != 0 {
		t.Errorf("loop target = %d, want 0", insts[2].Target)
	}
}

func TestDecodePaperFigure1b(t *testing.T) {
	// Figure 1(b): mov ebx,31h ; add ebx,64h ; xor [eax],bl ; add eax,1 ; loop
	b := NewAsm().
		Label("decode").
		MovRI(EBX, 0x31).
		AddRI(EBX, 0x64).
		I(XOR, MemOp(MemRef{Base: EAX, Size: 1, Scale: 1}), RegOp(BL)).
		AddRI(EAX, 1).
		Loop("decode").
		MustBytes()
	insts := SweepAll(b)
	if len(insts) != 5 {
		t.Fatalf("got %d instructions, want 5: %v", len(insts), insts)
	}
	if insts[2].String() != "xor byte ptr [eax], bl" {
		t.Errorf("xor = %q", insts[2].String())
	}
	if insts[4].Op != LOOP || insts[4].Target != 0 {
		t.Errorf("loop = %+v", insts[4])
	}
}

func TestDecodePrefixes(t *testing.T) {
	in := dec(t, 0x66, 0xb8, 0x34, 0x12) // mov ax, 0x1234
	if in.String() != "mov ax, 0x1234" || in.Len != 4 {
		t.Errorf("got %q len %d", in, in.Len)
	}
	in = dec(t, 0xf3, 0xaa) // rep stosb
	if !in.Rep || in.Op != STOSB {
		t.Errorf("rep stosb: %+v", in)
	}
	in = dec(t, 0x65, 0x8b, 0x00) // mov eax, gs:[eax]
	if in.Args[1].Seg != SegGS {
		t.Errorf("segment prefix: %+v", in)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0x0f}, 0); err == nil {
		t.Error("truncated two-byte opcode should fail")
	}
	if _, err := Decode([]byte{0xb8, 0x01}, 0); err == nil {
		t.Error("truncated immediate should fail")
	}
	if _, err := Decode([]byte{}, 0); err == nil {
		t.Error("empty buffer should fail")
	}
	if _, err := Decode([]byte{0x90}, 5); err == nil {
		t.Error("offset out of range should fail")
	}
	// A privileged/unsupported opcode yields ErrBadOpcode.
	if _, err := Decode([]byte{0x0f, 0x01, 0x00}, 0); err == nil {
		t.Error("unsupported 0f 01 should fail")
	}
}

func TestSweepResync(t *testing.T) {
	// Junk byte in the middle: sweep must emit a BAD marker and continue.
	b := []byte{0x90, 0x0f, 0xff, 0x90}
	insts := SweepAll(b)
	var bad int
	for _, in := range insts {
		if in.Op == BAD {
			bad++
		}
	}
	if bad == 0 {
		t.Fatalf("expected BAD instructions in %v", insts)
	}
	last := insts[len(insts)-1]
	if last.Op != NOP {
		t.Errorf("sweep did not resync: %v", insts)
	}
	total := 0
	for _, in := range insts {
		total += int(in.Len)
	}
	if total != len(b) {
		t.Errorf("sweep covered %d bytes, want %d", total, len(b))
	}
}

func TestThreadOrder(t *testing.T) {
	// Figure 1(c)-style shuffled code: the execution order must be
	// recovered by following jmps.
	b := NewAsm().
		MovRI(ECX, 0).
		IncR(ECX).
		IncR(ECX).
		JmpShort("one").
		Label("two").AddRI(EAX, 1).
		JmpShort("three").
		Label("one").MovRI(EBX, 0x31).
		AddRI(EBX, 0x64).
		I(XOR, MemOp(MemRef{Base: EAX, Size: 1, Scale: 1}), RegOp(BL)).
		JmpShort("two").
		Label("three").Loop("one").
		MustBytes()
	ordered := ThreadOrderAppend(nil, Refs(SweepAll(b)))
	var mnems []string
	for _, in := range ordered {
		mnems = append(mnems, in.Mnemonic())
	}
	got := strings.Join(mnems, " ")
	want := "mov inc inc mov add xor add loop"
	if got != want {
		t.Errorf("thread order = %q, want %q", got, want)
	}
}

// TestInstSize pins the instruction layout the by-reference pipeline
// is built around: one Inst is one cache line, an Operand 16 bytes.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got > 64 {
		t.Errorf("sizeof(Inst) = %d, want at most 64", got)
	}
	if got := unsafe.Sizeof(Operand{}); got > 16 {
		t.Errorf("sizeof(Operand) = %d, want at most 16", got)
	}
}

// TestMaxInstLen builds the longest instruction the decoder accepts —
// thirteen prefixes, then add dword ptr [eax+eax+disp32], imm32 — and
// checks that one more prefix is rejected and that no decode of random
// bytes is longer. The emulator's memo invalidation scans MaxInstLen-1
// bytes back from a store on the strength of this bound.
func TestMaxInstLen(t *testing.T) {
	body := []byte{0x81, 0x84, 0x00, 1, 2, 3, 4, 5, 6, 7, 8}
	longest := append(bytes.Repeat([]byte{0x2e}, 13), body...)
	in, err := Decode(longest, 0)
	if err != nil || int(in.Len) != MaxInstLen || len(longest) != MaxInstLen {
		t.Fatalf("Decode(longest) = len %d, err %v; want len %d == MaxInstLen", in.Len, err, len(longest))
	}
	if _, err := Decode(append([]byte{0x2e}, longest...), 0); err == nil {
		t.Error("fourteen prefixes decoded")
	}
	r := rand.New(rand.NewSource(5))
	b := make([]byte, 64)
	prefixes := []byte{0x66, 0x67, 0xf0, 0xf2, 0xf3, 0x26, 0x2e, 0x36, 0x3e, 0x64, 0x65}
	for i := 0; i < 200000; i++ {
		r.Read(b)
		for j, n := 0, r.Intn(16); j < n; j++ {
			b[j] = prefixes[r.Intn(len(prefixes))]
		}
		if in, err := Decode(b, 0); err == nil && int(in.Len) > MaxInstLen {
			t.Fatalf("Decode(% x) has length %d > MaxInstLen", b, in.Len)
		}
	}
}

// TestIsString pins IsString, a range over the opcode list, to the
// string mnemonics.
func TestIsString(t *testing.T) {
	for op := BAD; op < numOpcodes; op++ {
		name := op.String()
		want := len(name) == 5 && strings.Contains("movs cmps stos lods scas", name[:4]) &&
			(name[4] == 'b' || name[4] == 'd')
		if op.IsString() != want {
			t.Errorf("%s: IsString() = %v", name, op.IsString())
		}
	}
}
