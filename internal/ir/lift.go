package ir

import (
	"semnids/internal/x86"
)

// RegSet is a bitmask over the eight general-purpose register
// families (bit n = family with hardware number n).
type RegSet uint8

// famBit[r] is the set holding just the family of r (empty for
// RegNone and for values that name no register).
var famBit = func() (t [256]RegSet) {
	for r := x86.EAX; r <= x86.DI; r++ {
		t[r] = 1 << r.Family().Num()
	}
	return t
}()

// Add inserts the family of r.
func (s *RegSet) Add(r x86.Reg) { *s |= famBit[r] }

// Has reports whether the family of r is in the set.
func (s RegSet) Has(r x86.Reg) bool { return s&famBit[r] != 0 }

// Intersects reports whether the two sets share a register family.
func (s RegSet) Intersects(o RegSet) bool { return s&o != 0 }

// AllRegs is the set of every family.
const AllRegs RegSet = 0xff

// Node is one instruction in execution order together with the
// register state holding *before* it executes and its def/use sets.
// Its position in Program.Nodes or Program.Raw is its position in that
// order.
//
// Inst points into the decoded-instruction store the lifted stream
// came from (x86.DecodeCache for the analysis path): a Node never owns
// or copies its instruction, and is valid only as long as that store
// is. TestNodeSize pins the size.
type Node struct {
	Inst *x86.Inst

	Pre Regs // register state before the instruction executes

	Defs      RegSet // register families written
	Uses      RegSet // register families read
	WritesMem bool
	ReadsMem  bool
}

// ConstBefore reports the value of register r just before this node
// executes, if known.
func (n *Node) ConstBefore(r x86.Reg) (uint32, bool) { return n.Pre.Get(r) }

// InstAdvance is the part of Advance the instruction alone decides:
// whether it adds a delta to the full 32-bit register fam (inc, dec,
// add/sub, lea r, [r+disp]), and the delta when the encoding carries
// it. For add/sub fam, src the delta is src's value, which only a
// lifted node knows: src names that register and delta is 0.
func InstAdvance(in *x86.Inst) (fam x86.Reg, delta int64, src x86.Reg, ok bool) {
	a0, a1 := in.Args[0], in.Args[1]
	if a0.Kind != x86.KindReg {
		return x86.RegNone, 0, x86.RegNone, false
	}
	if in.Op == x86.LEA {
		if a1.Kind == x86.KindMem &&
			a1.Mem.Base != x86.RegNone && a1.Mem.Index == x86.RegNone &&
			a1.Mem.Base.Family() == a0.Reg.Family() {
			return a0.Reg, int64(a1.Mem.Disp), x86.RegNone, true
		}
		return x86.RegNone, 0, x86.RegNone, false
	}
	if a0.Reg.Size() != 4 {
		return x86.RegNone, 0, x86.RegNone, false
	}
	switch in.Op {
	case x86.INC:
		return a0.Reg, 1, x86.RegNone, true
	case x86.DEC:
		return a0.Reg, -1, x86.RegNone, true
	case x86.ADD, x86.SUB:
		switch a1.Kind {
		case x86.KindImm:
			delta = int64(a1.Imm)
			if in.Op == x86.SUB {
				delta = -delta
			}
			return a0.Reg, delta, x86.RegNone, true
		case x86.KindReg:
			return a0.Reg, 0, a1.Reg, true
		}
	}
	return x86.RegNone, 0, x86.RegNone, false
}

// Advance reports whether the instruction adds a constant delta to the
// full 32-bit register fam (covers add/sub imm, add/sub of a register
// holding a known constant, inc, dec, and lea r, [r+disp]).
func (n *Node) Advance() (fam x86.Reg, delta int64, ok bool) {
	fam, delta, src, ok := InstAdvance(n.Inst)
	if ok && src != x86.RegNone {
		v, known := n.Pre.Get(src)
		if !known {
			return x86.RegNone, 0, false
		}
		delta = int64(int32(v))
		if n.Inst.Op == x86.SUB {
			delta = -delta
		}
	}
	return fam, delta, ok
}

// Program is the lifted, analyzed form of a disassembled frame.
type Program struct {
	// Nodes in recovered execution order (unconditional jmp chains
	// threaded away).
	Nodes []Node
	// Raw is the linear-sweep order, also lifted, for matching code
	// that is sequential but junk-laden.
	Raw []Node

	// threaded is reusable scratch for the threaded instruction order.
	threaded []*x86.Inst

	// stackBuf is the evaluator's reusable symbolic-stack storage,
	// threaded through analyzeInto so repeated lifts do not re-grow
	// the tracked-push buffer every time.
	stackBuf []stackVal
}

// Lift analyzes a decoded instruction stream: it computes the threaded
// execution order, runs the constant-propagation evaluator along both
// the threaded and raw orders, and fills in def/use sets. The program
// refers to the elements of insts, which must outlive it.
func Lift(insts []x86.Inst) *Program {
	p := &Program{}
	p.Reuse(x86.Refs(insts))
	return p
}

// Reuse re-lifts a new instruction stream into p, reusing the node and
// scratch storage of previous lifts. The hot analysis path lifts every
// frame at several sweep offsets; reusing one Program per worker keeps
// those lifts allocation-free once the buffers have grown to frame
// size.
//
// Nothing is copied out of insts: every Node points at the instruction
// it was lifted from, so p is valid until the store behind insts is
// reset (x86.DecodeCache.Reset) or p is Reused.
func (p *Program) Reuse(insts []*x86.Inst) {
	p.threaded = x86.ThreadOrderAppend(p.threaded[:0], insts)
	p.Nodes, p.stackBuf = analyzeInto(p.Nodes[:0], p.threaded, p.stackBuf)
	p.Raw, p.stackBuf = analyzeInto(p.Raw[:0], insts, p.stackBuf)
}

// analyzeInto runs the abstract evaluator over insts in the given
// order, appending the resulting nodes to the caller-managed slice.
// stackBuf seeds the evaluator's symbolic stack; the (possibly grown)
// buffer is returned for the next lift to reuse.
func analyzeInto(nodes []Node, insts []*x86.Inst, stackBuf []stackVal) ([]Node, []stackVal) {
	env := NewEnv()
	env.stack = stackBuf[:0]
	for _, in := range insts {
		nodes = append(nodes, Node{})
		n := &nodes[len(nodes)-1]
		n.Inst, n.Pre = in, env.regs
		computeDefsUses(n)
		step(&env, in)
	}
	return nodes, env.stack
}

// computeDefsUses fills the def/use sets for one instruction.
func computeDefsUses(n *Node) {
	in := n.Inst
	addOperandUses := func(o x86.Operand) {
		switch o.Kind {
		case x86.KindReg:
			n.Uses.Add(o.Reg)
		case x86.KindMem:
			n.Uses.Add(o.Mem.Base)
			n.Uses.Add(o.Mem.Index)
			n.ReadsMem = true
		}
	}
	defOperand := func(o x86.Operand) {
		switch o.Kind {
		case x86.KindReg:
			n.Defs.Add(o.Reg)
		case x86.KindMem:
			n.Uses.Add(o.Mem.Base)
			n.Uses.Add(o.Mem.Index)
			n.WritesMem = true
		}
	}

	a0, a1, a2 := in.Args[0], in.Args[1], in.Args[2]
	switch in.Op {
	case x86.MOV, x86.MOVZX, x86.MOVSX, x86.LEA, x86.SETCC:
		defOperand(a0)
		if in.Op != x86.LEA {
			addOperandUses(a1)
		} else if a1.Kind == x86.KindMem {
			n.Uses.Add(a1.Mem.Base)
			n.Uses.Add(a1.Mem.Index)
		}
	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR,
		x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR, x86.RCL, x86.RCR:
		defOperand(a0)
		addOperandUses(a0)
		addOperandUses(a1)
	case x86.CMP, x86.TEST:
		addOperandUses(a0)
		addOperandUses(a1)
	case x86.NOT, x86.NEG, x86.INC, x86.DEC, x86.BSWAP:
		defOperand(a0)
		addOperandUses(a0)
	case x86.XCHG:
		defOperand(a0)
		defOperand(a1)
		addOperandUses(a0)
		addOperandUses(a1)
	case x86.MUL, x86.IMUL, x86.DIV, x86.IDIV:
		if a1.Kind != x86.KindNone { // two/three operand imul
			defOperand(a0)
			addOperandUses(a1)
			if a2.Kind != x86.KindNone {
				addOperandUses(a2)
			}
		} else {
			addOperandUses(a0)
			n.Uses.Add(x86.EAX)
			n.Defs.Add(x86.EAX)
			n.Defs.Add(x86.EDX)
		}
	case x86.PUSH:
		addOperandUses(a0)
		n.Uses.Add(x86.ESP)
		n.Defs.Add(x86.ESP)
		n.WritesMem = true
	case x86.POP:
		defOperand(a0)
		n.Uses.Add(x86.ESP)
		n.Defs.Add(x86.ESP)
		n.ReadsMem = true
	case x86.PUSHAD:
		n.Uses = AllRegs
		n.Defs.Add(x86.ESP)
		n.WritesMem = true
	case x86.POPAD:
		n.Defs = AllRegs
		n.ReadsMem = true
	case x86.PUSHFD:
		n.Defs.Add(x86.ESP)
		n.WritesMem = true
	case x86.POPFD:
		n.Defs.Add(x86.ESP)
		n.ReadsMem = true
	case x86.CALL, x86.JMP:
		addOperandUses(a0)
		if in.Op == x86.CALL {
			n.Defs.Add(x86.ESP)
			n.WritesMem = true
		}
	case x86.RET:
		n.Uses.Add(x86.ESP)
		n.Defs.Add(x86.ESP)
		n.ReadsMem = true
	case x86.LEAVE:
		n.Uses.Add(x86.EBP)
		n.Defs.Add(x86.ESP)
		n.Defs.Add(x86.EBP)
		n.ReadsMem = true
	case x86.LOOP, x86.LOOPE, x86.LOOPNE:
		n.Uses.Add(x86.ECX)
		n.Defs.Add(x86.ECX)
	case x86.JECXZ:
		n.Uses.Add(x86.ECX)
	case x86.INT, x86.INT3, x86.INTO:
		// A system call reads the syscall registers and clobbers EAX.
		n.Uses = AllRegs
		n.Defs.Add(x86.EAX)
	case x86.CDQ:
		n.Uses.Add(x86.EAX)
		n.Defs.Add(x86.EDX)
	case x86.CWDE:
		n.Uses.Add(x86.EAX)
		n.Defs.Add(x86.EAX)
	case x86.SAHF:
		n.Uses.Add(x86.EAX)
	case x86.LAHF, x86.SALC:
		n.Defs.Add(x86.EAX)
	case x86.XLAT:
		n.Uses.Add(x86.EAX)
		n.Uses.Add(x86.EBX)
		n.Defs.Add(x86.EAX)
		n.ReadsMem = true
	case x86.AAM, x86.AAD, x86.AAA, x86.AAS, x86.DAA, x86.DAS:
		n.Uses.Add(x86.EAX)
		n.Defs.Add(x86.EAX)
	case x86.STOSB, x86.STOSD:
		n.Uses.Add(x86.EAX)
		n.Uses.Add(x86.EDI)
		n.Defs.Add(x86.EDI)
		n.WritesMem = true
	case x86.LODSB, x86.LODSD:
		n.Uses.Add(x86.ESI)
		n.Defs.Add(x86.EAX)
		n.Defs.Add(x86.ESI)
		n.ReadsMem = true
	case x86.MOVSB, x86.MOVSD:
		n.Uses.Add(x86.ESI)
		n.Uses.Add(x86.EDI)
		n.Defs.Add(x86.ESI)
		n.Defs.Add(x86.EDI)
		n.ReadsMem = true
		n.WritesMem = true
	case x86.SCASB, x86.SCASD:
		n.Uses.Add(x86.EAX)
		n.Uses.Add(x86.EDI)
		n.Defs.Add(x86.EDI)
		n.ReadsMem = true
	case x86.CMPSB, x86.CMPSD:
		n.Uses.Add(x86.ESI)
		n.Uses.Add(x86.EDI)
		n.Defs.Add(x86.ESI)
		n.Defs.Add(x86.EDI)
		n.ReadsMem = true
	case x86.CPUID:
		n.Uses.Add(x86.EAX)
		n.Defs.Add(x86.EAX)
		n.Defs.Add(x86.EBX)
		n.Defs.Add(x86.ECX)
		n.Defs.Add(x86.EDX)
	case x86.RDTSC:
		n.Defs.Add(x86.EAX)
		n.Defs.Add(x86.EDX)
	case x86.CMOVCC:
		defOperand(a0)
		addOperandUses(a0) // conditional: may keep the old value
		addOperandUses(a1)
	case x86.BT:
		addOperandUses(a0)
		addOperandUses(a1)
	case x86.BTS, x86.BTR, x86.BTC:
		defOperand(a0)
		addOperandUses(a0)
		addOperandUses(a1)
	case x86.SHLD, x86.SHRD:
		defOperand(a0)
		addOperandUses(a0)
		addOperandUses(a1)
		addOperandUses(a2)
	case x86.CMPXCHG:
		defOperand(a0)
		addOperandUses(a0)
		addOperandUses(a1)
		n.Uses.Add(x86.EAX)
		n.Defs.Add(x86.EAX)
	case x86.XADD:
		defOperand(a0)
		defOperand(a1)
		addOperandUses(a0)
		addOperandUses(a1)
	case x86.BAD:
		// Unknown data byte: conservatively clobbers nothing (it is
		// not executed code as far as matching is concerned).
	}
	if in.Rep || in.Repne {
		n.Uses.Add(x86.ECX)
		n.Defs.Add(x86.ECX)
	}
}

// step advances the abstract state over one instruction.
func step(env *Env, in *x86.Inst) {
	a0, a1 := in.Args[0], in.Args[1]

	// Resolve a source operand to a (value, known) pair.
	src := func(o x86.Operand) (uint32, bool) {
		switch o.Kind {
		case x86.KindImm:
			return uint32(o.Imm), true
		case x86.KindReg:
			return env.Get(o.Reg)
		}
		return 0, false // memory contents are not modeled
	}

	// Generic destination invalidation for register writes.
	clobber := func(o x86.Operand) {
		if o.Kind == x86.KindReg {
			env.Set(o.Reg, 0, false)
		}
	}

	switch in.Op {
	case x86.MOV:
		if a0.Kind == x86.KindReg {
			v, known := src(a1)
			env.Set(a0.Reg, v, known)
		}
	case x86.LEA:
		if a0.Kind == x86.KindReg && a1.Kind == x86.KindMem {
			m := a1.Mem
			total := uint32(m.Disp)
			known := true
			if m.Base != x86.RegNone {
				v, k := env.Get(m.Base)
				total += v
				known = known && k
			}
			if m.Index != x86.RegNone {
				v, k := env.Get(m.Index)
				total += v * uint32(m.Scale)
				known = known && k
			}
			env.Set(a0.Reg, total, known)
		}
	case x86.XOR:
		if a0.Kind == x86.KindReg {
			if a1.Kind == x86.KindReg && a1.Reg == a0.Reg {
				env.Set(a0.Reg, 0, true) // xor r, r => 0
				break
			}
			alu(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x ^ y })
		}
	case x86.SUB:
		if a0.Kind == x86.KindReg {
			if a1.Kind == x86.KindReg && a1.Reg == a0.Reg {
				env.Set(a0.Reg, 0, true) // sub r, r => 0
				break
			}
			alu(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x - y })
		}
		if a0.IsReg(x86.ESP) {
			env.breakStack()
		}
	case x86.ADD:
		if a0.Kind == x86.KindReg {
			alu(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x + y })
		}
		if a0.IsReg(x86.ESP) {
			env.breakStack()
		}
	case x86.ADC, x86.SBB:
		clobber(a0) // carry not modeled
	case x86.AND:
		if a0.Kind == x86.KindReg {
			alu(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x & y })
		}
	case x86.OR:
		if a0.Kind == x86.KindReg {
			alu(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x | y })
		}
	case x86.SHL:
		shiftStep(env, a0, a1, src, func(x uint32, s uint) uint32 { return x << s })
	case x86.SHR:
		shiftStep(env, a0, a1, src, func(x uint32, s uint) uint32 { return x >> s })
	case x86.SAR:
		// Sign extension is width-dependent; fold only full registers.
		shiftStep32(env, a0, a1, src, func(x uint32, s uint) uint32 {
			return uint32(int32(x) >> s)
		})
	case x86.ROL:
		shiftStep32(env, a0, a1, src, func(x uint32, s uint) uint32 {
			if s %= 32; s == 0 {
				return x
			} else {
				return x<<s | x>>(32-s)
			}
		})
	case x86.ROR:
		shiftStep32(env, a0, a1, src, func(x uint32, s uint) uint32 {
			if s %= 32; s == 0 {
				return x
			} else {
				return x>>s | x<<(32-s)
			}
		})
	case x86.RCL, x86.RCR:
		clobber(a0)
	case x86.NOT:
		if a0.Kind == x86.KindReg {
			unary(env, a0.Reg, func(x uint32) uint32 { return ^x })
		}
	case x86.NEG:
		if a0.Kind == x86.KindReg {
			unary(env, a0.Reg, func(x uint32) uint32 { return -x })
		}
	case x86.INC:
		if a0.Kind == x86.KindReg {
			unary(env, a0.Reg, func(x uint32) uint32 { return x + 1 })
		}
	case x86.DEC:
		if a0.Kind == x86.KindReg {
			unary(env, a0.Reg, func(x uint32) uint32 { return x - 1 })
		}
	case x86.BSWAP:
		if a0.Kind == x86.KindReg {
			unary(env, a0.Reg, func(x uint32) uint32 {
				return x<<24 | x>>24 | (x&0xff00)<<8 | (x>>8)&0xff00
			})
		}
	case x86.MOVZX:
		if a0.Kind == x86.KindReg {
			if v, known := src(a1); known {
				w := uint(1)
				if a1.Kind == x86.KindReg {
					w, _ = regGeom(a1.Reg)
				} else if a1.Kind == x86.KindMem {
					w = uint(a1.Mem.Size)
				}
				env.Set(a0.Reg, v&widthMask(w), true)
			} else {
				clobber(a0)
			}
		}
	case x86.MOVSX:
		clobber(a0)
	case x86.XCHG:
		if a0.Kind == x86.KindReg && a1.Kind == x86.KindReg {
			v0, k0 := env.Get(a0.Reg)
			v1, k1 := env.Get(a1.Reg)
			env.Set(a0.Reg, v1, k1)
			env.Set(a1.Reg, v0, k0)
		} else {
			clobber(a0)
			clobber(a1)
		}
	case x86.PUSH:
		v, known := src(a0)
		env.push(v, known)
	case x86.POP:
		v, known := env.pop()
		if a0.Kind == x86.KindReg {
			if a0.Reg == x86.ESP {
				env.breakStack()
				env.Invalidate(x86.ESP)
			} else {
				env.Set(a0.Reg, v, known)
			}
		}
	case x86.PUSHAD, x86.PUSHFD, x86.POPFD:
		env.breakStack()
	case x86.POPAD:
		env.InvalidateAll()
	case x86.CALL:
		env.breakStack()
		// A call-pop idiom (call next; pop reg) loads an address we do
		// not know numerically; the return address becomes unknown.
	case x86.RET, x86.LEAVE:
		env.breakStack()
		if in.Op == x86.LEAVE {
			env.Invalidate(x86.EBP)
			env.Invalidate(x86.ESP)
		}
	case x86.INT, x86.INT3, x86.INTO:
		env.Invalidate(x86.EAX) // syscall return value
	case x86.MUL:
		env.Invalidate(x86.EAX)
		env.Invalidate(x86.EDX)
	case x86.IMUL:
		if a1.Kind == x86.KindNone {
			env.Invalidate(x86.EAX)
			env.Invalidate(x86.EDX)
		} else {
			clobber(a0)
		}
	case x86.DIV, x86.IDIV:
		env.Invalidate(x86.EAX)
		env.Invalidate(x86.EDX)
	case x86.CDQ:
		if v, known := env.Get(x86.EAX); known {
			if int32(v) < 0 {
				env.Set(x86.EDX, 0xffffffff, true)
			} else {
				env.Set(x86.EDX, 0, true)
			}
		} else {
			env.Invalidate(x86.EDX)
		}
	case x86.CWDE:
		env.Invalidate(x86.EAX)
	case x86.LAHF:
		env.Set(x86.AH, 0, false)
	case x86.SALC:
		env.Set(x86.AL, 0, false)
	case x86.XLAT:
		env.Set(x86.AL, 0, false)
	case x86.AAM, x86.AAD, x86.AAA, x86.AAS, x86.DAA, x86.DAS:
		env.Invalidate(x86.EAX)
	case x86.LODSB:
		env.Set(x86.AL, 0, false)
		env.Invalidate(x86.ESI)
	case x86.LODSD:
		env.Invalidate(x86.EAX)
		env.Invalidate(x86.ESI)
	case x86.STOSB, x86.STOSD, x86.SCASB, x86.SCASD:
		env.Invalidate(x86.EDI)
	case x86.MOVSB, x86.MOVSD, x86.CMPSB, x86.CMPSD:
		env.Invalidate(x86.ESI)
		env.Invalidate(x86.EDI)
	case x86.CPUID:
		env.Invalidate(x86.EAX)
		env.Invalidate(x86.EBX)
		env.Invalidate(x86.ECX)
		env.Invalidate(x86.EDX)
	case x86.RDTSC:
		env.Invalidate(x86.EAX)
		env.Invalidate(x86.EDX)
	case x86.LOOP, x86.LOOPE, x86.LOOPNE:
		// decrements ecx
		if v, known := env.Get(x86.ECX); known {
			env.Set(x86.ECX, v-1, true)
		}
	case x86.SETCC, x86.CMOVCC, x86.SHLD, x86.SHRD:
		clobber(a0)
	case x86.BTS, x86.BTR, x86.BTC:
		clobber(a0)
	case x86.CMPXCHG:
		clobber(a0)
		env.Invalidate(x86.EAX)
	case x86.XADD:
		clobber(a0)
		clobber(a1)
	}
}

// alu applies a binary operation to a register destination, operating
// at the register's width.
func alu(env *Env, dst x86.Reg, srcOp x86.Operand,
	src func(x86.Operand) (uint32, bool), f func(x, y uint32) uint32) {
	cur, curKnown := env.Get(dst)
	v, vKnown := src(srcOp)
	if !curKnown || !vKnown {
		env.Set(dst, 0, false)
		return
	}
	w, _ := regGeom(dst)
	env.Set(dst, f(cur, v)&widthMask(w), true)
}

// unary applies a unary operation to a register at its width.
func unary(env *Env, dst x86.Reg, f func(uint32) uint32) {
	cur, known := env.Get(dst)
	if !known {
		env.Set(dst, 0, false)
		return
	}
	w, _ := regGeom(dst)
	env.Set(dst, f(cur)&widthMask(w), true)
}

func shiftStep(env *Env, a0, a1 x86.Operand,
	src func(x86.Operand) (uint32, bool), f func(uint32, uint) uint32) {
	if a0.Kind != x86.KindReg {
		return
	}
	amt, amtKnown := src(a1)
	cur, curKnown := env.Get(a0.Reg)
	if !amtKnown || !curKnown || amt >= 32 {
		env.Set(a0.Reg, 0, false)
		return
	}
	w, _ := regGeom(a0.Reg)
	env.Set(a0.Reg, f(cur, uint(amt))&widthMask(w), true)
}

// shiftStep32 folds only 32-bit destinations (sign/rotate semantics are
// width-dependent); narrower destinations become unknown.
func shiftStep32(env *Env, a0, a1 x86.Operand,
	src func(x86.Operand) (uint32, bool), f func(uint32, uint) uint32) {
	if a0.Kind != x86.KindReg {
		return
	}
	if a0.Reg.Size() != 4 {
		env.Set(a0.Reg, 0, false)
		return
	}
	shiftStep(env, a0, a1, src, f)
}
