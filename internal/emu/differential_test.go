package emu

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"semnids/internal/ir"
	"semnids/internal/x86"
)

// The lifter (ir) and the emulator read the same instructions: wherever
// the lifter claims to know a register bit before an instruction,
// executing the same code concretely must put that value there, and
// every register family the emulator changes across an instruction
// must be in the node's Defs. The programs are straight-line IA-32
// built from fuzz bytes by diffProgram: every opcode both readings
// implement, at 8/16/32-bit and high-byte widths, with register,
// immediate and memory operands, push/pop, pushad/popad, xchg and rep
// or repne string ops, ending at int 0x80, with a 64-byte data area
// after the code for memory operands to hit. A program pops only what
// it pushed and points string registers into the data area first, so
// the emulator runs it to the int 0x80 unless a register-addressed
// operand leaves memory or a store rewrites the code; endErr holds
// every run to that.

// diffDataLen is the size of the data area appended to the code.
const diffDataLen = 64

var (
	diffRegs32 = [...]x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.ESP, x86.EBP, x86.ESI, x86.EDI}
	diffRegs16 = [...]x86.Reg{x86.AX, x86.CX, x86.DX, x86.BX, x86.SP, x86.BP, x86.SI, x86.DI}
	diffRegs8  = [...]x86.Reg{x86.AL, x86.CL, x86.DL, x86.BL, x86.AH, x86.CH, x86.DH, x86.BH}
)

// progGen draws a program's choices from fuzz bytes; past the end of
// the input every draw is zero and gen stops.
type progGen struct {
	in   []byte
	pos  int
	base int32 // address of the data area
}

func (g *progGen) b() byte {
	if g.pos >= len(g.in) {
		g.pos++
		return 0
	}
	g.pos++
	return g.in[g.pos-1]
}

func (g *progGen) done() bool { return g.pos >= len(g.in) }

func (g *progGen) u32() uint32 {
	return uint32(g.b()) | uint32(g.b())<<8 | uint32(g.b())<<16 | uint32(g.b())<<24
}

// width is 1 (low byte), 5 (high byte), 2 or 4.
func (g *progGen) width() int { return [...]int{1, 5, 2, 4}[g.b()%4] }

// reg picks a register of the width. ESP is drawn only one time in 32
// at 32 bits, so most programs keep a usable stack.
func (g *progGen) reg(w int) x86.Reg {
	c := g.b()
	switch w {
	case 1:
		return diffRegs8[c%4]
	case 5:
		return diffRegs8[4+c%4]
	case 2:
		return diffRegs16[c%8]
	}
	if r := diffRegs32[c%8]; r != x86.ESP || c&0x18 == 0x18 {
		return r
	}
	return x86.EBP
}

// mem is a memory operand of the width: an absolute address in the
// data area, or one time in 32 [reg+disp], which faults unless the
// register happens to point near the data.
func (g *progGen) mem(w int) x86.Operand {
	if w == 5 {
		w = 1
	}
	c := g.b()
	if c%32 == 31 {
		return x86.MemOp(x86.MemRef{Base: g.reg(4), Scale: 1, Size: uint8(w), Disp: int32(int8(g.b()) >> 2)})
	}
	return x86.MemOp(x86.MemRef{Size: uint8(w), Disp: g.base + int32(int(c)%(diffDataLen-3))})
}

func (g *progGen) imm(w int) x86.Operand {
	switch w {
	case 1, 5:
		return x86.ImmOp(int64(int8(g.b())))
	case 2:
		return x86.ImmOp(int64(int16(g.u32())))
	}
	return x86.ImmOp(int64(int32(g.u32())))
}

// rm is a register or memory operand of the width.
func (g *progGen) rm(w int) x86.Operand {
	if g.b()%4 == 0 {
		return g.mem(w)
	}
	return x86.RegOp(g.reg(w))
}

// src is a source operand for a destination of the width that is not
// itself memory when dstMem.
func (g *progGen) src(w int, dstMem bool) x86.Operand {
	switch c := g.b() % 4; {
	case c == 0:
		return g.imm(w)
	case c == 1 && !dstMem:
		return g.mem(w)
	}
	return x86.RegOp(g.reg(w))
}

func op(o x86.Opcode, args ...x86.Operand) x86.Inst {
	in := x86.Inst{Op: o}
	copy(in.Args[:], args)
	return in
}

var diffALU = [...]x86.Opcode{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST}
var diffShift = [...]x86.Opcode{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR}
var diffNullary = [...]x86.Opcode{
	x86.PUSHAD, x86.POPAD, x86.CWDE, x86.CDQ, x86.CLC, x86.STC, x86.CMC, x86.CLD, x86.STD,
	x86.SALC, x86.XLAT, x86.STOSB, x86.STOSD, x86.LODSB, x86.LODSD, x86.MOVSB, x86.NOP,
	x86.CPUID, x86.RDTSC, x86.LAHF, x86.SAHF, x86.DAA, x86.DAS, x86.AAA, x86.AAS,
	x86.PUSHFD, x86.POPFD,
}

// inst draws one instruction.
func (g *progGen) inst() x86.Inst {
	w := g.width()
	switch g.b() % 20 {
	case 0, 1:
		if g.b()%3 == 0 {
			d := g.mem(w)
			return op(x86.MOV, d, g.src(w, true))
		}
		return op(x86.MOV, x86.RegOp(g.reg(w)), g.src(w, false))
	case 2, 3:
		d := g.rm(w)
		return op(diffALU[g.b()%uint8(len(diffALU))], d, g.src(w, d.Kind == x86.KindMem))
	case 4:
		return op([...]x86.Opcode{x86.NOT, x86.NEG, x86.INC, x86.DEC}[g.b()%4], g.rm(w))
	case 5:
		d, c := g.rm(w), g.b()
		s := x86.ImmOp(int64(c % 40))
		switch c % 4 {
		case 0:
			s = x86.RegOp(x86.CL)
		case 1:
			s = x86.ImmOp(1)
		}
		return op(diffShift[g.b()%uint8(len(diffShift))], d, s)
	case 6:
		sw := [...]int{1, 1, 2, 5}[g.b()%4]
		dw := 4
		if sw != 2 && g.b()%2 == 0 {
			dw = 2
		}
		s := g.rm(sw)
		return op([...]x86.Opcode{x86.MOVZX, x86.MOVSX}[g.b()%2], x86.RegOp(g.reg(dw)), s)
	case 7:
		m := x86.MemRef{Scale: 1, Disp: int32(g.u32()) >> [...]int{0, 8, 16, 24}[g.b()%4]}
		if c := g.b(); c%3 != 0 {
			m.Base = g.reg(4)
		}
		if c := g.b(); c%3 == 0 {
			m.Index = g.reg(4)
			if m.Index == x86.ESP {
				m.Index = x86.EBP
			}
			m.Scale = [...]uint8{1, 2, 4, 8}[c/3%4]
		}
		return op(x86.LEA, x86.RegOp(g.reg(4)), x86.MemOp(m))
	case 8:
		return op(x86.XCHG, g.rm(w), x86.RegOp(g.reg(w)))
	case 9:
		switch g.b() % 4 {
		case 0:
			return op(x86.PUSH, g.imm(4))
		case 1:
			return op(x86.PUSH, g.mem(4))
		}
		return op(x86.PUSH, x86.RegOp(g.reg(4)))
	case 10:
		if g.b()%4 == 0 {
			return op(x86.POP, g.mem(4))
		}
		return op(x86.POP, x86.RegOp(g.reg(4)))
	case 11:
		return op([...]x86.Opcode{x86.MUL, x86.IMUL}[g.b()%2], g.rm(w))
	case 12:
		if w != 4 {
			w = 2
		}
		d := x86.RegOp(g.reg(w))
		if g.b()%2 == 0 {
			return op(x86.IMUL, d, g.rm(w))
		}
		return op(x86.IMUL, d, g.rm(w), g.imm(w))
	case 13:
		return op(x86.BSWAP, x86.RegOp(g.reg(4)))
	case 14:
		in := op(x86.SETCC, g.rm(1))
		in.Cond = x86.Cond(g.b() % 16)
		return in
	case 15:
		if w != 4 {
			w = 2
		}
		in := op(x86.CMOVCC, x86.RegOp(g.reg(w)), g.rm(w))
		in.Cond = x86.Cond(g.b() % 16)
		return in
	case 16:
		// Point a string or table register at the data area.
		return op(x86.MOV, x86.RegOp([...]x86.Reg{x86.ESI, x86.EDI, x86.EBX}[g.b()%3]),
			x86.ImmOp(int64(g.base+int32(g.b()%(diffDataLen/2)))))
	case 17:
		return op(x86.LOOP) // to the next instruction; see diffProgram
	}
	return op(diffNullary[g.b()%uint8(len(diffNullary))])
}

// point sets the registers a string op or xlat addresses memory
// through to the middle of the data area, so that it runs rather than
// faults. Half the string ops also get a count of 0 to 4 in ECX and a
// rep or repne prefix, which the encoder does not write: the returned
// code ends with it.
func (g *progGen) point(code []byte, o x86.Opcode) []byte {
	set := func(r x86.Reg) {
		code, _ = appendInst(code, op(x86.MOV, x86.RegOp(r), x86.ImmOp(int64(g.base+16+int32(g.b()%32)))))
	}
	switch o {
	case x86.STOSB, x86.STOSD:
		set(x86.EDI)
	case x86.LODSB, x86.LODSD:
		set(x86.ESI)
	case x86.MOVSB:
		set(x86.ESI)
		set(x86.EDI)
	case x86.XLAT:
		set(x86.EBX)
		code, _ = appendInst(code, op(x86.AND, x86.RegOp(x86.AL), x86.ImmOp(0x0f)))
	}
	if !o.IsString() {
		return code
	}
	if c := g.b(); c%2 == 0 {
		code, _ = appendInst(code, op(x86.MOV, x86.RegOp(x86.ECX), x86.ImmOp(int64(c/2%5))))
		code = append(code, [...]byte{0xf3, 0xf2}[c/10%2])
	}
	return code
}

// stackWords is how many dwords an op pushes (> 0) or pops (< 0), and
// pushFor the push a pop that would empty the stack becomes.
var (
	stackWords = map[x86.Opcode]int{x86.PUSH: 1, x86.PUSHFD: 1, x86.PUSHAD: 8, x86.POP: -1, x86.POPFD: -1, x86.POPAD: -8}
	pushFor    = map[x86.Opcode]x86.Opcode{x86.POP: x86.PUSH, x86.POPAD: x86.PUSHAD, x86.POPFD: x86.PUSHFD}
)

// diffProgram builds the program the choices describe: every
// general-purpose register but ESP loaded from the input, up to 64
// instructions, int 0x80, then the data area filled from the input.
// Instructions the encoder refuses are dropped.
func diffProgram(choices []byte) []byte {
	build := func(base int32) []byte {
		g := &progGen{in: choices, base: base}
		var code []byte
		for _, r := range diffRegs32 {
			if r != x86.ESP && g.b()%4 != 0 {
				code, _ = appendInst(code, op(x86.MOV, x86.RegOp(r), x86.ImmOp(int64(int32(g.u32())))))
			}
		}
		depth := 0 // dwords on the emulator's stack
		for n := 0; n < 64 && !g.done(); n++ {
			in := g.inst()
			switch in.Op {
			case x86.LOOP:
				code = append(code, 0xe2, 0x00)
				continue
			case x86.STOSB, x86.STOSD, x86.LODSB, x86.LODSD, x86.MOVSB, x86.XLAT:
				code = g.point(code, in.Op)
			}
			if depth+stackWords[in.Op] < 0 {
				in.Op = pushFor[in.Op] // never pop an empty stack
			}
			var err error
			if code, err = appendInst(code, in); err == nil {
				depth += stackWords[in.Op]
			}
		}
		code, _ = appendInst(code, op(x86.INT, x86.ImmOp(0x80)))
		for i := 0; i < diffDataLen; i++ {
			code = append(code, byte(i*37+int(g.b())))
		}
		return code
	}
	// Every instruction's length is independent of the data address:
	// absolute operands are always disp32, mov r32, imm always imm32.
	first := build(0)
	return build(int32(len(first) - diffDataLen))
}

func appendInst(code []byte, in x86.Inst) ([]byte, error) {
	b, err := x86.Encode(in)
	if err != nil {
		return code, err
	}
	return append(code, b...), nil
}

// emuRun is the emulator's execution of a program: each instruction it
// executed with the eight register families before it, and how the run
// ended.
type emuRun struct {
	insts []x86.Inst
	regs  [][8]uint32
	stop  Stop
	err   error
	code  bool // a store reached the code
}

// emuTrace executes image from 0 one instruction at a time up to the
// end of the run.
func emuTrace(image []byte) *emuRun {
	m := New(image)
	m.MaxSteps = 1 << 12
	m.EIP = 0
	r := &emuRun{}
	defer func() { r.code = !bytes.Equal(m.Mem[:len(image)-diffDataLen], image[:len(image)-diffDataLen]) }()
	for again := false; ; {
		var done bool
		if r.stop, done, r.err = m.beginStep(); done {
			return r
		}
		in, err := m.fetch(m.EIP)
		if err != nil {
			r.err = fmt.Errorf("%w at %#x: %v", ErrDecode, m.EIP, err)
			return r
		}
		if !again { // a rep string op's repeats are one instruction
			var rs [8]uint32
			for f := range rs {
				rs[f] = m.Reg(diffRegs32[f])
			}
			r.insts, r.regs = append(r.insts, *in), append(r.regs, rs)
		}
		pc := m.EIP
		if r.stop, done, r.err = m.execute(in); done {
			return r
		}
		again = m.EIP == pc
	}
}

// endErr reports a run that did not end the way its program must: at
// the closing int 0x80, or on a memory fault the last instruction
// really causes. Every generated opcode is one both readings implement
// and no program pops an empty stack, so nothing else may stop the
// emulator unless a store rewrote the code.
func (r *emuRun) endErr(image []byte) error {
	if r.code {
		return nil
	}
	if len(r.insts) == 0 {
		return fmt.Errorf("executed nothing: stop %+v, %v", r.stop, r.err)
	}
	in, rs := &r.insts[len(r.insts)-1], &r.regs[len(r.regs)-1]
	switch {
	case r.err == nil && r.stop.Kind == StopSyscall && in.Op == x86.INT:
		return nil
	case errors.Is(r.err, ErrMemFault) && faults(in, rs, len(image)):
		return nil
	}
	return fmt.Errorf("run ended at %v: stop %+v, %v", in, r.stop, r.err)
}

// faults reports that in, run on registers rs, reads or writes a byte
// outside memory of size n. Only register-based addresses can: the
// generator's absolute operands lie in the data area. A pop's memory
// operand may be addressed with ESP before or after the pop.
func faults(in *x86.Inst, rs *[8]uint32, n int) bool {
	out := func(addr uint32, size int) bool { return int64(addr)+int64(size) > int64(n) }
	reg := func(r x86.Reg) uint32 { return rs[r.Num()] }
	switch in.Op {
	case x86.STOSB:
		return out(reg(x86.EDI), 1)
	case x86.STOSD:
		return out(reg(x86.EDI), 4)
	case x86.LODSB:
		return out(reg(x86.ESI), 1)
	case x86.LODSD:
		return out(reg(x86.ESI), 4)
	case x86.MOVSB:
		return out(reg(x86.ESI), 1) || out(reg(x86.EDI), 1)
	case x86.XLAT:
		return out(reg(x86.EBX)+rs[0]&0xff, 1)
	case x86.LEA:
		return false
	}
	for i := range in.Args {
		m := &in.Args[i].Mem
		if in.Args[i].Kind != x86.KindMem || m.Base == x86.RegNone && m.Index == x86.RegNone {
			continue
		}
		addr := uint32(m.Disp)
		if m.Base != x86.RegNone {
			addr += reg(m.Base)
		}
		if m.Index != x86.RegNone {
			addr += reg(m.Index) * uint32(m.Scale)
		}
		if out(addr, int(m.Size)) || in.Op == x86.POP && m.Base == x86.ESP && out(addr+4, int(m.Size)) {
			return true
		}
	}
	return false
}

// checkLiftVsEmu lifts image and runs it, and reports every register bit
// a node's Pre claims that the emulator contradicts before that
// instruction, every register family the emulator changed across an
// instruction that is not in the node's Defs, and every bit the old
// evaluator knew that the lifter does not know or knows differently.
// Both instruction orders are checked; for straight-line code they are
// the order of execution.
func checkLiftVsEmu(image []byte) []string {
	insts := x86.SweepAll(image)
	refs := x86.Refs(insts)
	prog := ir.Lift(insts)
	run := emuTrace(image)
	ran, regs := run.insts, run.regs
	var bad []string
	if err := run.endErr(image); err != nil {
		bad = append(bad, err.Error())
	}
	for _, ord := range []struct {
		name  string
		nodes []ir.Node
		insts []*x86.Inst
	}{{"threaded", prog.Nodes, x86.ThreadOrderAppend(nil, refs)}, {"raw", prog.Raw, refs}} {
		old := refAnalyze(ord.insts)
		// A store into the code ends the comparison with the emulator:
		// from there it runs what the lifter did not see.
		same := 0
		for same < len(ran) && same < len(ord.nodes) && ran[same] == *ord.nodes[same].Inst {
			same++
		}
		for k := range ord.nodes {
			n := &ord.nodes[k]
			for f, r := range diffRegs32 {
				val, mask := n.Pre.Bits(r)
				ov := old[k][f]
				if lost := ov.mask &^ mask; lost != 0 || (ov.val^val)&ov.mask != 0 {
					bad = append(bad, fmt.Sprintf("%s node %d (%v): %v old knows %#x/%#x, lifter %#x/%#x",
						ord.name, k, n.Inst, r, ov.val&ov.mask, ov.mask, val, mask))
				}
				if k >= same {
					continue
				}
				if diff := (val ^ regs[k][f]) & mask; diff != 0 {
					bad = append(bad, fmt.Sprintf("%s node %d (%v): %v lifter claims %#x/%#x, emulator holds %#x",
						ord.name, k, n.Inst, r, val, mask, regs[k][f]))
				}
				if k+1 < len(regs) && regs[k+1][f] != regs[k][f] && !n.Defs.Has(r) {
					bad = append(bad, fmt.Sprintf("%s node %d (%v): emulator changed %v from %#x to %#x, not in defs %08b",
						ord.name, k, n.Inst, r, regs[k][f], regs[k+1][f], n.Defs))
				}
			}
		}
	}
	return bad
}

// disasm renders the executed part of a program for a failure report.
func disasm(image []byte) string {
	var b strings.Builder
	for _, in := range x86.SweepAll(image) {
		fmt.Fprintf(&b, "  %#04x  %v\n", in.Addr, in)
		if in.Op == x86.INT {
			break
		}
	}
	return b.String()
}

func reportLiftVsEmu(t *testing.T, image []byte) {
	t.Helper()
	if bad := checkLiftVsEmu(image); len(bad) > 0 {
		t.Fatalf("%d mismatches, first: %s\nprogram:\n%s", len(bad), bad[0], disasm(image))
	}
}

// FuzzLiftVsEmu holds the lifter's register claims and def sets to the
// emulator on generated straight-line programs, at every instruction,
// and its claims to the old evaluator's knowledge (refAnalyze).
func FuzzLiftVsEmu(f *testing.F) {
	r := rand.New(rand.NewSource(44))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+r.Intn(400))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, choices []byte) {
		if len(choices) > 4096 {
			choices = choices[:4096]
		}
		reportLiftVsEmu(t, diffProgram(choices))
	})
}

// TestDifferentialIRvsEmu runs the differential over 400 random inputs
// in plain go test. Most programs must run to the syscall: a run cut
// short by a fault compares only the instructions before it.
func TestDifferentialIRvsEmu(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	const n = 400
	full := 0
	for i := 0; i < n; i++ {
		b := make([]byte, 32+r.Intn(600))
		r.Read(b)
		image := diffProgram(b)
		reportLiftVsEmu(t, image)
		if run := emuTrace(image); run.err == nil && run.stop.Kind == StopSyscall {
			full++
		}
	}
	t.Logf("%d of %d programs ran to the syscall", full, n)
	if full < n*3/4 {
		t.Errorf("only %d of %d programs ran to the syscall", full, n)
	}
}

// TestDifferentialCoversOpcodes checks that the generator reaches every
// opcode it is meant to, at every width, with memory destinations.
func TestDifferentialCoversOpcodes(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		b := make([]byte, 32+r.Intn(600))
		r.Read(b)
		for _, in := range x86.SweepAll(diffProgram(b)) {
			if in.Op == x86.INT {
				break
			}
			seen[in.Op.String()] = true
			if in.Rep {
				seen["rep "+in.Op.String()] = true
			}
			if in.Repne {
				seen["repne "+in.Op.String()] = true
			}
			if a := in.Args[0]; a.Kind == x86.KindMem {
				seen[in.Op.String()+" m"] = true
				seen[fmt.Sprintf("%v m%d", in.Op, a.Mem.Size)] = true
			} else if a.Kind == x86.KindReg {
				seen[fmt.Sprintf("%v r%d", in.Op, a.Reg.Size())] = true
				if a.Reg.IsHigh8() {
					seen[in.Op.String()+" rh"] = true
				}
			}
		}
	}
	var want []string
	for _, o := range diffALU[:] {
		want = append(want, o.String()+" m", o.String()+" r1", o.String()+" rh", o.String()+" r2", o.String()+" r4")
	}
	for _, o := range diffShift[:] {
		want = append(want, o.String()+" m", o.String()+" r1", o.String()+" r2", o.String()+" r4")
	}
	for _, o := range []x86.Opcode{x86.MUL, x86.IMUL, x86.NOT, x86.NEG, x86.INC, x86.DEC, x86.XCHG, x86.MOV} {
		want = append(want, o.String()+" m", o.String()+" r1", o.String()+" rh", o.String()+" r2", o.String()+" r4")
	}
	want = append(want, "mul m1", "imul m1")
	for _, o := range []x86.Opcode{x86.STOSB, x86.STOSD, x86.LODSB, x86.LODSD, x86.MOVSB} {
		want = append(want, "rep "+o.String(), "repne "+o.String())
	}
	for _, o := range diffNullary[:] {
		want = append(want, o.String())
	}
	for _, o := range []x86.Opcode{x86.MOVZX, x86.MOVSX, x86.LEA, x86.PUSH, x86.POP, x86.BSWAP, x86.SETCC, x86.CMOVCC, x86.LOOP} {
		want = append(want, o.String())
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("generator never emits %s", w)
		}
	}
}

// TestDifferentialDecodeLoops: the IR folds decryption keys; the
// emulator actually decrypts. For generated decoder loops, the byte
// the emulator writes must equal cipher-byte XOR folded-key.
func TestDifferentialDecodeLoops(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		key := byte(r.Intn(255) + 1)
		plain := make([]byte, 8+r.Intn(24))
		r.Read(plain)

		a := x86.NewAsm()
		a.Jmp("getpc").
			Label("decoder").
			PopR(x86.ESI).
			MovRI(x86.ECX, int64(len(plain)))
		// Obscured key construction (exercises folding).
		mask := int64(int32(r.Uint32()))
		a.MovRI(x86.EBX, int64(key)^mask).
			I(x86.XOR, x86.RegOp(x86.EBX), x86.ImmOp(mask)).
			Label("loop").
			I(x86.XOR, x86.MemOp(x86.MemRef{Base: x86.ESI, Size: 1, Scale: 1}), x86.RegOp(x86.BL)).
			IncR(x86.ESI).
			Loop("loop").
			// Stop here: the decoded bytes are random data, not a
			// payload; executing them would self-modify the region
			// under test.
			I(x86.INT3).
			Label("getpc").
			Call("decoder")
		code := a.MustBytes()
		payloadOff := len(code)
		for _, b := range plain {
			code = append(code, b^key)
		}

		m := newChecked(t, code)
		stop, err := m.Explore(0)
		if err != nil || stop.Kind != StopRet {
			t.Fatalf("trial %d: stop=%+v err=%v", trial, stop, err)
		}
		for i, want := range plain {
			if m.Mem[payloadOff+i] != want {
				t.Fatalf("trial %d: byte %d = %#x, want %#x",
					trial, i, m.Mem[payloadOff+i], want)
			}
		}
	}
}
