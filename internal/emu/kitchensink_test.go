package emu

import (
	"testing"

	"semnids/internal/x86"
)

// runSink executes code and returns the machine at its first stop.
func runSink(t *testing.T, code []byte) *Machine {
	t.Helper()
	m := newChecked(t, code)
	if _, err := m.Explore(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestSinkDataMovement(t *testing.T) {
	// movzx/movsx through memory, bswap, cmov both ways, setcc.
	code := x86.NewAsm().
		// A byte in the image to load through memory operands: place
		// data at a known label reachable via getpc.
		JmpShort("start").
		Label("data").Raw(0x80, 0x01, 0x02, 0x03).
		Label("start").
		// getpc for the data: call pushes the address of "after".
		Call("after").
		Label("after").
		PopR(x86.ESI).
		SubRI(x86.ESI, 9). // back to "data" (call imm32 is 5 + pop 1 + sub 3)
		I(x86.MOVZX, x86.RegOp(x86.EAX), x86.MemOp(x86.MemRef{Base: x86.ESI, Size: 1, Scale: 1})).
		I(x86.MOVSX, x86.RegOp(x86.EBX), x86.MemOp(x86.MemRef{Base: x86.ESI, Size: 1, Scale: 1})).
		I(x86.BSWAP, x86.RegOp(x86.EAX)).
		I(x86.CMP, x86.RegOp(x86.EAX), x86.RegOp(x86.EAX)).
		Inst(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondE,
			Args: [3]x86.Operand{x86.RegOp(x86.ECX), x86.RegOp(x86.EBX)}}). // taken: equal
		Inst(x86.Inst{Op: x86.SETCC, Cond: x86.CondNE,
			Args: [3]x86.Operand{x86.RegOp(x86.DL)}}). // 0: not-equal is false
		IntN(0x80).
		MustBytes()
	m := runSink(t, code)
	if got := m.Reg(x86.EAX); got != 0x80000000 {
		t.Errorf("movzx+bswap: eax=%#x, want 0x80000000", got)
	}
	if got := m.Reg(x86.EBX); got != 0xffffff80 {
		t.Errorf("movsx: ebx=%#x, want 0xffffff80", got)
	}
	if m.Reg(x86.ECX) != m.Reg(x86.EBX) {
		t.Errorf("cmove not taken: ecx=%#x", m.Reg(x86.ECX))
	}
	if m.Reg(x86.DL) != 0 {
		t.Errorf("setne: dl=%#x, want 0", m.Reg(x86.DL))
	}
}

func TestSinkRotatesAndShifts(t *testing.T) {
	code := x86.NewAsm().
		MovRI(x86.EAX, 0x80000001).
		I(x86.ROL, x86.RegOp(x86.EAX), x86.ImmOp(1)). // 3
		MovRI(x86.EBX, 0x2).
		I(x86.ROR, x86.RegOp(x86.EBX), x86.ImmOp(2)). // 0x80000000
		MovRI(x86.ECX, -8).
		I(x86.SAR, x86.RegOp(x86.ECX), x86.ImmOp(1)). // -4
		MovRI(x86.EDX, 0x10).
		I(x86.SHR, x86.RegOp(x86.EDX), x86.ImmOp(4)). // 1
		IntN(0x80).
		MustBytes()
	m := runSink(t, code)
	for _, c := range []struct {
		r    x86.Reg
		want uint32
	}{
		{x86.EAX, 3}, {x86.EBX, 0x80000000},
		{x86.ECX, 0xfffffffc}, {x86.EDX, 1},
	} {
		if got := m.Reg(c.r); got != c.want {
			t.Errorf("%v = %#x, want %#x", c.r, got, c.want)
		}
	}
}

func TestSinkPushadPopad(t *testing.T) {
	code := x86.NewAsm().
		MovRI(x86.EAX, 0x11).
		MovRI(x86.EBX, 0x22).
		I(x86.PUSHAD).
		MovRI(x86.EAX, 0x99).
		MovRI(x86.EBX, 0x99).
		I(x86.POPAD).
		IntN(0x80).
		MustBytes()
	m := runSink(t, code)
	if m.Reg(x86.EAX) != 0x11 || m.Reg(x86.EBX) != 0x22 {
		t.Errorf("popad restore: eax=%#x ebx=%#x", m.Reg(x86.EAX), m.Reg(x86.EBX))
	}
}

func TestSinkStringOps(t *testing.T) {
	// stosb forward then backward (DF), lodsb, movsb: copy a byte
	// within the image. Build a small writable scratch area inline.
	code := x86.NewAsm().
		JmpShort("go").
		Label("buf").Raw(0xaa, 0xbb, 0xcc, 0xdd).
		Label("go").
		Call("here").
		Label("here").
		PopR(x86.EDI).
		SubRI(x86.EDI, 9). // &buf
		MovRR(x86.ESI, x86.EDI).
		I(x86.CLD).
		MovRI(x86.EAX, 0x41).
		I(x86.STOSB). // buf[0]=0x41, edi++
		I(x86.LODSB). // al = buf[0] = 0x41, esi++
		I(x86.MOVSB). // buf[1] -> buf[1]?? esi=buf+1 -> edi=buf+1
		I(x86.STD).
		I(x86.STOSB). // buf[2]=al (edi was buf+2), edi--
		IntN(0x80).
		MustBytes()
	m := runSink(t, code)
	// Locate buf: it is at offset 2 (after the 2-byte jmp).
	if m.Mem[2] != 0x41 {
		t.Errorf("stosb: buf[0]=%#x", m.Mem[2])
	}
	if m.Reg(x86.AL) != 0x41 {
		t.Errorf("lodsb: al=%#x", m.Reg(x86.AL))
	}
	if m.Mem[4] != 0x41 {
		t.Errorf("std stosb: buf[2]=%#x", m.Mem[4])
	}
}

func TestSinkMulIMul(t *testing.T) {
	code := x86.NewAsm().
		MovRI(x86.EAX, 0x10000).
		MovRI(x86.ECX, 0x10000).
		I(x86.MUL, x86.RegOp(x86.ECX)). // edx:eax = 2^32
		MovRR(x86.EBX, x86.EDX).
		MovRI(x86.ESI, -3).
		I(x86.IMUL, x86.RegOp(x86.ESI), x86.RegOp(x86.ESI)). // 9
		Inst(x86.Inst{Op: x86.IMUL, Args: [3]x86.Operand{
			x86.RegOp(x86.EDI), x86.RegOp(x86.ESI), x86.ImmOp(-2)}}). // -18
		IntN(0x80).
		MustBytes()
	m := runSink(t, code)
	if m.Reg(x86.EBX) != 1 {
		t.Errorf("mul high dword: %#x", m.Reg(x86.EBX))
	}
	if m.Reg(x86.ESI) != 9 {
		t.Errorf("imul 2-op: %#x", m.Reg(x86.ESI))
	}
	if int32(m.Reg(x86.EDI)) != -18 {
		t.Errorf("imul 3-op: %d", int32(m.Reg(x86.EDI)))
	}

	// One-operand mul and imul at byte and word width: AX <- AL*r/m8
	// with EDX untouched, DX:AX <- AX*r/m16.
	for _, c := range []struct {
		op       x86.Opcode
		src      x86.Reg
		eax, edx uint32
	}{
		{x86.MUL, x86.BL, 0x123400f0, 0x0badf00d},
		{x86.IMUL, x86.BL, 0x123400f0, 0x0badf00d},
		{x86.MUL, x86.BX, 0x1234acf0, 0x0bad0000},
		{x86.IMUL, x86.BX, 0x1234acf0, 0x0bad0000},
	} {
		code := x86.NewAsm().
			MovRI(x86.EAX, 0x12345678).
			MovRI(x86.EDX, 0x0badf00d).
			MovRI(x86.EBX, 2).
			I(c.op, x86.RegOp(c.src)).
			IntN(0x80).
			MustBytes()
		m := runSink(t, code)
		if m.Reg(x86.EAX) != c.eax || m.Reg(x86.EDX) != c.edx {
			t.Errorf("%v %v: eax=%#x edx=%#x, want %#x %#x", c.op, c.src, m.Reg(x86.EAX), m.Reg(x86.EDX), c.eax, c.edx)
		}
	}
	code = x86.NewAsm().
		MovRI(x86.EAX, 0xff).
		MovRI(x86.ECX, 0xfffe).
		I(x86.IMUL, x86.RegOp(x86.CL)). // -1 * -2
		MovRR(x86.EBX, x86.EAX).
		MovRI(x86.EAX, 0xffff).
		MovRI(x86.EDX, 0).
		I(x86.IMUL, x86.RegOp(x86.CX)). // -1 * -2 in DX:AX
		IntN(0x80).
		MustBytes()
	m = runSink(t, code)
	if m.Reg(x86.EBX) != 2 || m.Reg(x86.EAX) != 2 || m.Reg(x86.EDX) != 0 {
		t.Errorf("signed imul: ebx=%#x eax=%#x edx=%#x, want 2 2 0", m.Reg(x86.EBX), m.Reg(x86.EAX), m.Reg(x86.EDX))
	}
}

func TestSinkXlatAndSalc(t *testing.T) {
	code := x86.NewAsm().
		JmpShort("go").
		Label("table").Raw(0x10, 0x20, 0x30, 0x40).
		Label("go").
		Call("here").
		Label("here").
		PopR(x86.EBX).
		SubRI(x86.EBX, 9). // &table
		MovRI(x86.EAX, 2).
		I(x86.XLAT). // al = table[2] = 0x30
		I(x86.STC).
		I(x86.SALC). // al = 0xff
		MovRR(x86.ECX, x86.EAX).
		I(x86.CLC).
		I(x86.SALC). // al = 0
		IntN(0x80).
		MustBytes()
	m := runSink(t, code)
	if m.Reg(x86.CL) != 0xff {
		t.Errorf("salc with CF: cl=%#x", m.Reg(x86.CL))
	}
	if m.Reg(x86.AL) != 0 {
		t.Errorf("salc without CF: al=%#x", m.Reg(x86.AL))
	}
}

func TestSinkAdcSbb(t *testing.T) {
	code := x86.NewAsm().
		MovRI(x86.EAX, 0xffffffff).
		AddRI(x86.EAX, 1). // CF=1, eax=0
		MovRI(x86.EBX, 5).
		I(x86.ADC, x86.RegOp(x86.EBX), x86.ImmOp(0)). // 6
		I(x86.CMP, x86.RegOp(x86.EAX), x86.ImmOp(1)). // 0-1: CF=1
		MovRI(x86.ECX, 10).
		I(x86.SBB, x86.RegOp(x86.ECX), x86.ImmOp(0)). // 9
		IntN(0x80).
		MustBytes()
	m := runSink(t, code)
	if m.Reg(x86.EBX) != 6 {
		t.Errorf("adc: ebx=%d, want 6", m.Reg(x86.EBX))
	}
	if m.Reg(x86.ECX) != 9 {
		t.Errorf("sbb: ecx=%d, want 9", m.Reg(x86.ECX))
	}
}
