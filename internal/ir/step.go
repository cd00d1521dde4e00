package ir

import "semnids/internal/x86"

// Step applies one instruction's data effects to s: registers, flags,
// memory and the stack. Control flow is the caller's: a jump's target,
// a loop's decision (Step only decrements ECX), whether a rep string
// op repeats, where a ret returns to and whether a syscall stops the
// machine. The families it writes are recorded for the lifter's def
// sets. One rule per place the concrete and the abstract machine
// differ (DESIGN 3):
//
//   - a rep- or repne-prefixed string op is one iteration that also
//     decrements ECX; with ECX = 0 a concrete Step does nothing, and
//     an abstract one leaves ECX unknown (the prefix is ignored on
//     any other instruction);
//   - a value needs all of its inputs known; flags are known only on a
//     concrete state, so ADC, SBB, SETcc, CMOVcc, SALC and the string
//     ops' DF step are unknown on an abstract one;
//   - memory loads are unknown and stores dropped on an abstract state;
//   - a call pushes its return address, known only concretely;
//   - pushfd pushes 0 concretely (the flags image is not modeled) and
//     an unknown dword abstractly; popfd discards;
//   - what the concrete machine does not model it leaves alone and the
//     abstract one forgets (forget): cpuid, rdtsc, lahf, the BCD
//     adjusts, a syscall's result;
//   - instructions only the abstract machine reads (div, rcl, shld, bt*,
//     cmpxchg, xadd, leave, movsd, cmps, scas, aam, aad) stop a
//     concrete state with ErrUnsupported and forget what they write;
//   - add or sub on ESP, pop esp and leave abandon the abstract stack.
//
// A concrete Step that faults (ErrMemFault, ErrStack) writes no
// register, memory or stack after the fault; its flags are unspecified.
func (s *State) Step(in *x86.Inst) error {
	s.fault, s.wrote = nil, 0
	rep := (in.Rep || in.Repne) && in.Op.IsString()
	if rep && s.Concrete && s.Reg(x86.ECX) == 0 {
		return nil
	}
	a0, a1 := &in.Args[0], &in.Args[1]
	switch in.Op {
	case x86.MOV:
		v, k := s.get(a1)
		s.put(a0, v, k)
	case x86.LEA:
		v, k := s.ea(&a1.Mem)
		s.put(a0, v, k)
	case x86.MOVZX, x86.MOVSX:
		v, k := s.get(a1)
		w := width(a1)
		switch {
		case in.Op == x86.MOVZX:
			v &= ^uint32(0) >> (32 - 8*w)
		case w == 1:
			v = uint32(int32(int8(v)))
		default:
			v = uint32(int32(int16(v)))
		}
		s.put(a0, v, k)
	case x86.XCHG:
		v0, k0 := s.get(a0)
		v1, k1 := s.get(a1)
		s.put(a0, v1, k1)
		s.put(a1, v0, k0)

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST:
		a, ka := s.get(a0)
		b, kb := s.get(a1)
		w := width(a0)
		known := ka && kb
		var r uint32
		switch in.Op {
		case x86.ADD:
			r = s.add(a, b, w)
		case x86.ADC:
			r, known = s.add(a, b+s.carry(), w), known && s.Concrete
		case x86.SUB, x86.CMP:
			r = s.sub(a, b, w)
			// sub r, r is 0 whatever r holds.
			known = known || a1.Kind == x86.KindReg && *a0 == *a1
		case x86.SBB:
			r, known = s.sub(a, b+s.carry(), w), known && s.Concrete
		case x86.AND, x86.TEST:
			r = s.logic(a&b, w)
		case x86.OR:
			r = s.logic(a|b, w)
		case x86.XOR:
			r = s.logic(a^b, w)
			known = known || a1.Kind == x86.KindReg && *a0 == *a1
		}
		if in.Op != x86.CMP && in.Op != x86.TEST {
			s.put(a0, r, known)
		}
		if (in.Op == x86.ADD || in.Op == x86.SUB) && a0.IsReg(x86.ESP) {
			s.abandonStack()
		}
	case x86.NOT:
		v, k := s.get(a0)
		s.put(a0, ^v, k)
	case x86.NEG:
		v, k := s.get(a0)
		s.put(a0, s.sub(0, v, width(a0)), k)
	case x86.INC, x86.DEC:
		v, k := s.get(a0)
		cf := s.CF
		if in.Op == x86.INC {
			v = s.add(v, 1, width(a0))
		} else {
			v = s.sub(v, 1, width(a0))
		}
		s.CF = cf
		s.put(a0, v, k)
	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		v, k := s.get(a0)
		amt, ka := s.get(a1)
		w := width(a0)
		mask, _ := widthMask(w)
		bits := uint32(w * 8)
		amt &= 31
		var r uint32
		switch in.Op {
		case x86.SHL:
			r = v << amt
		case x86.SHR:
			r = (v & mask) >> amt
		case x86.SAR:
			r = uint32(int32(v<<(32-bits)) >> (32 - bits) >> amt)
		case x86.ROL:
			n := amt % bits
			r = v<<n | (v&mask)>>(bits-n)
		case x86.ROR:
			n := amt % bits
			r = (v&mask)>>n | v<<(bits-n)
		}
		if amt != 0 {
			s.logic(r, w)
		}
		s.put(a0, r&mask, k && ka)
	case x86.BSWAP:
		v, k := s.get(a0)
		s.put(a0, v<<24|v>>24|(v&0xff00)<<8|(v>>8)&0xff00, k)

	case x86.MUL, x86.IMUL:
		if a1.Kind != x86.KindNone { // two- and three-operand imul
			v, k := s.get(a0)
			if a2 := &in.Args[2]; a2.Kind != x86.KindNone {
				v, k = uint32(a2.Imm), true
			}
			b, kb := s.get(a1)
			s.put(a0, v*b, k && kb)
			break
		}
		b, kb := s.get(a0)
		w := width(a0)
		acc := [...]x86.Reg{1: x86.AL, 2: x86.AX, 4: x86.EAX}[w]
		a, ka := s.Regs.read(acc)
		var p uint64
		if in.Op == x86.MUL {
			p = uint64(a) * uint64(b)
		} else {
			sh := 64 - 8*w
			p = uint64(int64(a) << sh >> sh * (int64(b) << sh >> sh))
		}
		k := ka && kb
		switch w {
		case 1:
			s.set(x86.AX, uint32(p), k)
		case 2:
			s.set(x86.AX, uint32(p), k)
			s.set(x86.DX, uint32(p>>16), k)
		default:
			s.set(x86.EAX, uint32(p), k)
			s.set(x86.EDX, uint32(p>>32), k)
		}
	case x86.CWDE:
		v, k := s.Regs.read(x86.AX)
		s.set(x86.EAX, uint32(int32(int16(v))), k)
	case x86.CDQ:
		v, k := s.Regs.read(x86.EAX)
		s.set(x86.EDX, uint32(int32(v)>>31), k)
	case x86.SALC:
		s.set(x86.AL, -s.carry(), s.Concrete)
	case x86.XLAT:
		addr, _ := s.ea(&x86.MemRef{Base: x86.EBX, Index: x86.AL, Scale: 1})
		s.set(x86.AL, s.loadIf(addr, 1), s.Concrete)

	case x86.CLD, x86.STD:
		s.DF = in.Op == x86.STD
	case x86.CLC, x86.STC:
		s.CF = in.Op == x86.STC
	case x86.CMC:
		s.CF = !s.CF
	case x86.SETCC:
		v := uint32(0)
		if s.Cond(in.Cond) {
			v = 1
		}
		s.put(a0, v, s.Concrete)
	case x86.CMOVCC:
		if !s.Concrete {
			s.forget(a0.Reg)
		} else if s.Cond(in.Cond) {
			v, _ := s.get(a1)
			s.put(a0, v, true)
		}

	case x86.PUSH:
		v, k := s.get(a0)
		s.push(v, k)
	case x86.POP:
		v, k := s.pop()
		s.put(a0, v, k)
		if a0.IsReg(x86.ESP) {
			s.abandonStack()
		}
	case x86.PUSHAD:
		sp, spk := s.Regs.read(x86.ESP)
		for f := range s.Regs.val {
			if f == 4 {
				s.push(sp, spk)
			} else {
				s.push(s.Regs.val[f], s.Regs.mask[f] == 0xffffffff)
			}
		}
	case x86.POPAD:
		for f := 7; f >= 0; f-- {
			if v, k := s.pop(); f != 4 {
				s.set(x86.EAX+x86.Reg(f), v, k)
			}
		}
	case x86.PUSHFD:
		s.push(0, s.Concrete)
	case x86.POPFD, x86.RET:
		s.pop()
	case x86.CALL:
		s.push(uint32(in.Addr)+uint32(in.Len), s.Concrete)
	case x86.LOOP, x86.LOOPE, x86.LOOPNE:
		v, k := s.Regs.read(x86.ECX)
		s.set(x86.ECX, v-1, k)

	case x86.STOSB, x86.STOSD, x86.LODSB, x86.LODSD, x86.MOVSB:
		n := 1
		if in.Op == x86.STOSD || in.Op == x86.LODSD {
			n = 4
		}
		acc := [...]x86.Reg{1: x86.AL, 4: x86.EAX}[n]
		if in.Op == x86.LODSB || in.Op == x86.LODSD || in.Op == x86.MOVSB {
			esi := s.Reg(x86.ESI)
			v := s.loadIf(esi, n)
			if in.Op != x86.MOVSB {
				s.set(acc, v, s.Concrete)
			} else if s.Concrete {
				s.store(s.Reg(x86.EDI), n, v)
			}
			s.stringStep(x86.ESI, n)
		} else if s.Concrete {
			s.store(s.Reg(x86.EDI), n, s.Reg(acc))
		}
		if in.Op != x86.LODSB && in.Op != x86.LODSD {
			s.stringStep(x86.EDI, n)
		}

	case x86.CPUID, x86.RDTSC:
		s.forget(x86.EAX)
		s.forget(x86.EDX)
		if in.Op == x86.CPUID {
			s.forget(x86.EBX)
			s.forget(x86.ECX)
		}
	case x86.LAHF:
		s.forget(x86.AH)
	case x86.DAA, x86.DAS, x86.AAA, x86.AAS, x86.INT, x86.INT3, x86.INTO:
		s.forget(x86.EAX)
	case x86.NOP, x86.WAIT, x86.SAHF, x86.CLI, x86.STI, x86.HLT, x86.JMP, x86.JCC, x86.JECXZ:
		// No data effects.
	default:
		// Only the abstract machine reads the rest (div, rcl, shld,
		// bt*, cmpxchg, xadd, leave, movsd, cmps, scas, aam, aad; an
		// undecodable byte names no register).
		if s.Concrete {
			return ErrUnsupported
		}
		switch in.Op {
		case x86.DIV, x86.IDIV:
			s.forget(x86.EDX)
			s.forget(x86.EAX)
		case x86.AAM, x86.AAD:
			s.forget(x86.EAX)
		case x86.CMPXCHG:
			s.forget(x86.EAX)
			s.forget(a0.Reg)
		case x86.XADD:
			s.forget(a1.Reg)
			s.forget(a0.Reg)
		case x86.LEAVE:
			s.forget(x86.EBP)
			s.forget(x86.ESP)
			s.abandonStack()
		case x86.MOVSD, x86.CMPSB, x86.CMPSD:
			s.forget(x86.ESI)
			s.forget(x86.EDI)
		case x86.SCASB, x86.SCASD:
			s.forget(x86.EDI)
		case x86.BT:
		default:
			s.forget(a0.Reg)
		}
	}
	if rep {
		s.set(x86.ECX, s.Reg(x86.ECX)-1, s.Concrete)
	}
	return s.fault
}

// carry is CF as 0 or 1.
func (s *State) carry() uint32 {
	if s.CF {
		return 1
	}
	return 0
}

// add returns a+b at width w and sets the arithmetic flags (on a
// concrete state: an abstract one knows no flags).
func (s *State) add(a, b uint32, w int) uint32 {
	mask, sign := widthMask(w)
	a, b = a&mask, b&mask
	r := (a + b) & mask
	if s.Concrete {
		s.ZF, s.SF = r == 0, r&sign != 0
		s.CF = uint64(a)+uint64(b) > uint64(mask)
		s.OF = a&sign == b&sign && r&sign != a&sign
	}
	return r
}

// sub returns a-b at width w and sets the arithmetic flags (on a
// concrete state).
func (s *State) sub(a, b uint32, w int) uint32 {
	mask, sign := widthMask(w)
	a, b = a&mask, b&mask
	r := (a - b) & mask
	if s.Concrete {
		s.ZF, s.SF = r == 0, r&sign != 0
		s.CF = a < b
		s.OF = a&sign != b&sign && r&sign != a&sign
	}
	return r
}

// logic sets ZF and SF from r at width w and clears CF and OF (on a
// concrete state).
func (s *State) logic(r uint32, w int) uint32 {
	if s.Concrete {
		mask, sign := widthMask(w)
		s.ZF, s.SF = r&mask == 0, r&sign != 0
		s.CF, s.OF = false, false
	}
	return r
}

// loadIf loads on a concrete state and reads unknown (0) on an
// abstract one.
func (s *State) loadIf(addr uint32, size int) uint32 {
	if !s.Concrete {
		return 0
	}
	return s.load(addr, size)
}

// stringStep moves a string register by n in the direction DF says;
// the direction is known only concretely.
func (s *State) stringStep(r x86.Reg, n int) {
	v, k := s.Regs.read(r)
	if s.DF {
		v -= uint32(n)
	} else {
		v += uint32(n)
	}
	s.set(r, v, k && s.Concrete)
}
