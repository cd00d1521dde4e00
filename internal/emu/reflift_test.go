package emu

import "semnids/internal/x86"

// This file is the lifter's abstract evaluator as it stood before the
// lifter and the emulator shared one transfer function (ir.State.Step),
// kept as an oracle: the shared transfer must know every register bit
// this one knew, with the same value, on every input the differential
// (FuzzLiftVsEmu) and the traffic-frame test generate. refStep mends
// the three claims found unsound in it (see refStep); the rest is the
// old evaluator verbatim.

// refAnalyze runs the old evaluator over insts in the given order and
// returns the register state before each instruction.
func refAnalyze(insts []*x86.Inst) []refRegs {
	env := newRefEnv()
	pre := make([]refRegs, 0, len(insts))
	for _, in := range insts {
		pre = append(pre, env.regs)
		refStep(&env, in)
	}
	return pre
}

// refVal tracks partially known register contents: bit i of mask set
// means byte i of val is known. This makes idioms like
// `xor eax, eax; mov al, 0xb` resolve EAX to the constant 11.
type refVal struct {
	val  uint32
	mask uint32
}

func (rv refVal) knownAll(width, off uint) bool {
	m := refWidthMask(width) << (8 * off)
	return rv.mask&m == m
}

func (rv refVal) get(width, off uint) uint32 {
	return (rv.val >> (8 * off)) & refWidthMask(width)
}

func (rv *refVal) set(width, off uint, v uint32, known bool) {
	m := refWidthMask(width) << (8 * off)
	rv.val = rv.val&^m | (v<<(8*off))&m
	if known {
		rv.mask |= m
	} else {
		rv.mask &^= m
	}
}

func refWidthMask(width uint) uint32 {
	switch width {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	default:
		return 0xffffffff
	}
}

// refStackVal is one tracked push.
type refStackVal struct {
	val   uint32
	known bool
}

// refRegs is the register half of the abstract state: what is known of
// each register's contents, indexed by x86 family register number
// (EAX..EDI). It is the part of the state a Node keeps as Pre.
type refRegs [8]refVal

// Get returns the value of register r if fully known.
func (rs *refRegs) Get(r x86.Reg) (uint32, bool) {
	if r == x86.RegNone {
		return 0, false
	}
	w, off := refRegGeom(r)
	rv := rs[r.Family().Num()]
	if !rv.knownAll(w, off) {
		return 0, false
	}
	return rv.get(w, off), true
}

// refEnv is the abstract machine state at a program point: per-register
// constant knowledge plus a bounded symbolic stack. The stack is
// consulted only on the live state during evaluation, never through a
// Node, so a Node's Pre state is the refRegs alone.
type refEnv struct {
	regs  refRegs
	stack []refStackVal
	// stackOK is false once ESP has been manipulated in a way the
	// symbolic stack does not model (mov esp, pushad, add esp...).
	stackOK bool
}

// newRefEnv returns the initial (nothing known) state.
func newRefEnv() refEnv {
	return refEnv{stackOK: true}
}

// refRegGeom returns the byte width and offset of r within its family.
func refRegGeom(r x86.Reg) (width, off uint) {
	switch {
	case r.Size() == 4:
		return 4, 0
	case r.Size() == 2:
		return 2, 0
	case r.IsHigh8():
		return 1, 1
	default:
		return 1, 0
	}
}

// Get returns the value of register r if fully known.
func (e *refEnv) Get(r x86.Reg) (uint32, bool) { return e.regs.Get(r) }

// Set records that register r holds v (or becomes unknown).
func (e *refEnv) Set(r x86.Reg, v uint32, known bool) {
	if r == x86.RegNone {
		return
	}
	fam := r.Family().Num()
	w, off := refRegGeom(r)
	e.regs[fam].set(w, off, v, known)
}

// Invalidate marks an entire register family unknown.
func (e *refEnv) Invalidate(r x86.Reg) {
	if r == x86.RegNone {
		return
	}
	e.regs[r.Family().Num()] = refVal{}
}

// InvalidateAll forgets everything.
func (e *refEnv) InvalidateAll() {
	for i := range e.regs {
		e.regs[i] = refVal{}
	}
	// Truncate rather than nil: stackOK gates every read, and keeping
	// the backing array lets a reused env track the next lift's stack
	// without reallocating.
	e.stack = e.stack[:0]
	e.stackOK = false
}

const refMaxStack = 64

func (e *refEnv) push(v uint32, known bool) {
	if !e.stackOK {
		return
	}
	if len(e.stack) >= refMaxStack {
		e.stackOK = false
		e.stack = e.stack[:0]
		return
	}
	e.stack = append(e.stack, refStackVal{v, known})
}

// pop returns the top tracked stack value.
func (e *refEnv) pop() (uint32, bool) {
	if !e.stackOK || len(e.stack) == 0 {
		return 0, false
	}
	top := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return top.val, top.known
}

// breakStack abandons symbolic stack tracking (unmodeled ESP use).
func (e *refEnv) breakStack() {
	e.stackOK = false
	e.stack = e.stack[:0]
}

// refStep is the old evaluator's step with its three unsound claims
// withdrawn: it kept a known ESP across the instructions that push or
// pop, kept the known bytes of a partly known ECX across loop's
// decrement, which borrows into them, and kept ECX across a rep or
// repne string op, which counts it down.
func refStep(env *refEnv, in *x86.Inst) {
	refStepOld(env, in)
	if (in.Rep || in.Repne) && in.Op.IsString() {
		env.Invalidate(x86.ECX)
	}
	switch in.Op {
	case x86.PUSH, x86.POP, x86.PUSHAD, x86.PUSHFD, x86.POPFD, x86.CALL, x86.RET:
		env.Invalidate(x86.ESP)
	case x86.LOOP, x86.LOOPE, x86.LOOPNE:
		if _, known := env.Get(x86.ECX); !known {
			env.Invalidate(x86.ECX)
		}
	}
}

// refStepOld advances the abstract state over one instruction.
func refStepOld(env *refEnv, in *x86.Inst) {
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
			refALU(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x ^ y })
		}
	case x86.SUB:
		if a0.Kind == x86.KindReg {
			if a1.Kind == x86.KindReg && a1.Reg == a0.Reg {
				env.Set(a0.Reg, 0, true) // sub r, r => 0
				break
			}
			refALU(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x - y })
		}
		if a0.IsReg(x86.ESP) {
			env.breakStack()
		}
	case x86.ADD:
		if a0.Kind == x86.KindReg {
			refALU(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x + y })
		}
		if a0.IsReg(x86.ESP) {
			env.breakStack()
		}
	case x86.ADC, x86.SBB:
		clobber(a0) // carry not modeled
	case x86.AND:
		if a0.Kind == x86.KindReg {
			refALU(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x & y })
		}
	case x86.OR:
		if a0.Kind == x86.KindReg {
			refALU(env, a0.Reg, a1, src, func(x, y uint32) uint32 { return x | y })
		}
	case x86.SHL:
		refShift(env, a0, a1, src, func(x uint32, s uint) uint32 { return x << s })
	case x86.SHR:
		refShift(env, a0, a1, src, func(x uint32, s uint) uint32 { return x >> s })
	case x86.SAR:
		// Sign extension is width-dependent; fold only full registers.
		refShift32(env, a0, a1, src, func(x uint32, s uint) uint32 {
			return uint32(int32(x) >> s)
		})
	case x86.ROL:
		refShift32(env, a0, a1, src, func(x uint32, s uint) uint32 {
			if s %= 32; s == 0 {
				return x
			} else {
				return x<<s | x>>(32-s)
			}
		})
	case x86.ROR:
		refShift32(env, a0, a1, src, func(x uint32, s uint) uint32 {
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
			refUnary(env, a0.Reg, func(x uint32) uint32 { return ^x })
		}
	case x86.NEG:
		if a0.Kind == x86.KindReg {
			refUnary(env, a0.Reg, func(x uint32) uint32 { return -x })
		}
	case x86.INC:
		if a0.Kind == x86.KindReg {
			refUnary(env, a0.Reg, func(x uint32) uint32 { return x + 1 })
		}
	case x86.DEC:
		if a0.Kind == x86.KindReg {
			refUnary(env, a0.Reg, func(x uint32) uint32 { return x - 1 })
		}
	case x86.BSWAP:
		if a0.Kind == x86.KindReg {
			refUnary(env, a0.Reg, func(x uint32) uint32 {
				return x<<24 | x>>24 | (x&0xff00)<<8 | (x>>8)&0xff00
			})
		}
	case x86.MOVZX:
		if a0.Kind == x86.KindReg {
			if v, known := src(a1); known {
				w := uint(1)
				if a1.Kind == x86.KindReg {
					w, _ = refRegGeom(a1.Reg)
				} else if a1.Kind == x86.KindMem {
					w = uint(a1.Mem.Size)
				}
				env.Set(a0.Reg, v&refWidthMask(w), true)
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

// refALU applies a binary operation to a register destination, operating
// at the register's width.
func refALU(env *refEnv, dst x86.Reg, srcOp x86.Operand,
	src func(x86.Operand) (uint32, bool), f func(x, y uint32) uint32) {
	cur, curKnown := env.Get(dst)
	v, vKnown := src(srcOp)
	if !curKnown || !vKnown {
		env.Set(dst, 0, false)
		return
	}
	w, _ := refRegGeom(dst)
	env.Set(dst, f(cur, v)&refWidthMask(w), true)
}

// refUnary applies a refUnary operation to a register at its width.
func refUnary(env *refEnv, dst x86.Reg, f func(uint32) uint32) {
	cur, known := env.Get(dst)
	if !known {
		env.Set(dst, 0, false)
		return
	}
	w, _ := refRegGeom(dst)
	env.Set(dst, f(cur)&refWidthMask(w), true)
}

func refShift(env *refEnv, a0, a1 x86.Operand,
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
	w, _ := refRegGeom(a0.Reg)
	env.Set(a0.Reg, f(cur, uint(amt))&refWidthMask(w), true)
}

// refShift32 folds only 32-bit destinations (sign/rotate semantics are
// width-dependent); narrower destinations become unknown.
func refShift32(env *refEnv, a0, a1 x86.Operand,
	src func(x86.Operand) (uint32, bool), f func(uint32, uint) uint32) {
	if a0.Kind != x86.KindReg {
		return
	}
	if a0.Reg.Size() != 4 {
		env.Set(a0.Reg, 0, false)
		return
	}
	refShift(env, a0, a1, src, f)
}
