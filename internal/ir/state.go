// Package ir lifts decoded x86 instructions into an analyzed program:
// instructions in recovered execution order, annotated with the
// abstract machine state before each instruction (known constant
// register values, a symbolic stack) and def/use register sets.
//
// This is the "intermediate representation generator" stage of the
// paper's NIDS (Section 4, component (d)). The constant folding
// implemented here is what makes the template matcher semantic rather
// than syntactic: `mov ebx, 31h; add ebx, 64h; xor [eax], ebx` exposes
// the same decryption key 0x95 as `xor byte ptr [eax], 95h`.
//
// The folding is one transfer function, State.Step, over a value that
// knows some of its bits. The lifter runs it on an abstract State
// (memory unknown, flags unknown, nothing known at the start); the
// emulator (internal/emu) runs the same function on a concrete State
// (every bit known, real memory, flags and stack).
package ir

import (
	"errors"
	"fmt"

	"semnids/internal/x86"
)

// Regs is the register half of the machine state: what is known of
// each register's contents, indexed by x86 family register number
// (EAX..EDI). Bit i of mask[f] set means bit i of val[f] is known.
// Writes set or clear whole sub-registers, so idioms like
// `xor eax, eax; mov al, 0xb` resolve EAX to the constant 11. It is
// the part of the state a Node keeps as Pre.
type Regs struct {
	val, mask [8]uint32
}

// geom places a register in its family: the family number, the shift
// of its lowest bit and its width mask.
type geom struct {
	fam, shift uint8
	mask       uint32
}

var geoms = func() (t [256]geom) {
	for r := x86.EAX; r <= x86.DI; r++ {
		g := geom{fam: r.Family().Num(), mask: 0xffffffff}
		switch {
		case r.Size() == 2:
			g.mask = 0xffff
		case r.IsHigh8():
			g.shift, g.mask = 8, 0xff
		case r.Size() == 1:
			g.mask = 0xff
		}
		t[r] = g
	}
	return t
}()

// read returns the bits of r (known or not) and whether all are known.
func (rs *Regs) read(r x86.Reg) (uint32, bool) {
	g := geoms[r]
	m := g.mask << g.shift
	return (rs.val[g.fam] >> g.shift) & g.mask, rs.mask[g.fam]&m == m
}

// write sets r to v, known or unknown, leaving the rest of its family.
func (rs *Regs) write(r x86.Reg, v uint32, known bool) {
	g := geoms[r]
	m := g.mask << g.shift
	rs.val[g.fam] = rs.val[g.fam]&^m | (v<<g.shift)&m
	if known {
		rs.mask[g.fam] |= m
	} else {
		rs.mask[g.fam] &^= m
	}
}

// Get returns the value of register r if fully known.
func (rs *Regs) Get(r x86.Reg) (uint32, bool) {
	if r == x86.RegNone {
		return 0, false
	}
	v, known := rs.read(r)
	if !known {
		return 0, false
	}
	return v, true
}

// Bits returns what is known of register family fam: bit i of mask set
// means bit i of val is known.
func (rs *Regs) Bits(fam x86.Reg) (val, mask uint32) {
	f := geoms[fam].fam
	return rs.val[f] & rs.mask[f], rs.mask[f]
}

// Values returns the value bits of the eight families, known or not:
// on a concrete state, the registers. The array is rs's own, for
// reading without a copy.
func (rs *Regs) Values() *[8]uint32 { return &rs.val }

// Errors Step reports on a concrete state.
var (
	ErrUnsupported = errors.New("ir: instruction not modeled concretely")
	ErrMemFault    = errors.New("ir: memory access out of range")
	ErrStack       = errors.New("ir: pop from an empty stack")
)

// State is the machine state Step transforms. A concrete State knows
// every bit: registers, the five flags, memory at [0, len(Mem)) and the
// stack. An abstract one (the lifter's) knows what Regs says, nothing
// of flags or memory, and what its bounded symbolic stack says.
type State struct {
	Regs               Regs
	ZF, SF, CF, OF, DF bool // meaningful only when Concrete

	Concrete bool

	// Mem is concrete memory; Lo and Hi bound the bytes stores have
	// written since the caller last set them (Lo >= Hi when none).
	Mem    []byte
	Lo, Hi int

	// Stack holds the pushed dwords, top last. Only push and pop (and
	// the instructions made of them) move it; ESP is a register they
	// also adjust. On an abstract state bit i of unknown marks Stack[i]
	// unknown, the depth is capped at maxTrackedStack, and lost means
	// tracking was abandoned: every pop is unknown from then on.
	Stack   []uint32
	unknown uint64
	lost    bool

	fault error // the running Step's first fault; it writes nothing after
}

// maxTrackedStack caps the abstract stack (one bit of unknown each).
const maxTrackedStack = 64

// Reset clears the registers, flags and stack: a concrete state holds
// zero in every register, an abstract one knows nothing.
func (s *State) Reset(concrete bool) {
	s.Concrete = concrete
	s.Regs = Regs{}
	if concrete {
		s.Regs.mask = [8]uint32{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff}
	}
	s.ZF, s.SF, s.CF, s.OF, s.DF = false, false, false, false, false
	s.Stack, s.unknown, s.lost = s.Stack[:0], 0, false
}

// Reg returns the value bits of register r (any width).
func (s *State) Reg(r x86.Reg) uint32 {
	v, _ := s.Regs.read(r)
	return v
}

// SetReg writes a known value to r at its width.
func (s *State) SetReg(r x86.Reg, v uint32) { s.Regs.write(r, v, true) }

// StackTop returns the i-th dword from the top of the stack (0 = top).
func (s *State) StackTop(i int) (uint32, bool) {
	if i >= len(s.Stack) {
		return 0, false
	}
	return s.Stack[len(s.Stack)-1-i], true
}

// Cond evaluates a condition code against the flags (P and NP are not
// modeled and are false).
func (s *State) Cond(c x86.Cond) bool {
	switch c {
	case x86.CondO:
		return s.OF
	case x86.CondNO:
		return !s.OF
	case x86.CondB:
		return s.CF
	case x86.CondAE:
		return !s.CF
	case x86.CondE:
		return s.ZF
	case x86.CondNE:
		return !s.ZF
	case x86.CondBE:
		return s.CF || s.ZF
	case x86.CondA:
		return !s.CF && !s.ZF
	case x86.CondS:
		return s.SF
	case x86.CondNS:
		return !s.SF
	case x86.CondL:
		return s.SF != s.OF
	case x86.CondGE:
		return s.SF == s.OF
	case x86.CondLE:
		return s.ZF || s.SF != s.OF
	case x86.CondG:
		return !s.ZF && s.SF == s.OF
	}
	return false
}

// set writes r unless the running Step has faulted.
func (s *State) set(r x86.Reg, v uint32, known bool) {
	if s.fault == nil {
		s.Regs.write(r, v, known)
	}
}

// forget marks r unknown on an abstract state (RegNone, the Reg of an
// operand that is not a register, names nothing): the value of
// something the concrete machine does not model (cpuid, rdtsc, lahf,
// the BCD adjusts, a syscall's result), which it leaves as it was, or
// the result of an instruction it does not execute.
func (s *State) forget(r x86.Reg) {
	if !s.Concrete {
		s.Regs.write(r, 0, false)
	}
}

// width returns an operand's width in bytes (4 for an unsized memory
// reference).
func width(o *x86.Operand) int {
	switch {
	case o.Kind == x86.KindReg:
		return o.Reg.Size()
	case o.Kind == x86.KindMem && o.Mem.Size != 0:
		return int(o.Mem.Size)
	}
	return 4
}

func widthMask(w int) (mask, sign uint32) {
	switch w {
	case 1:
		return 0xff, 0x80
	case 2:
		return 0xffff, 0x8000
	}
	return 0xffffffff, 0x80000000
}

// ea computes the effective address of a memory reference.
func (s *State) ea(m *x86.MemRef) (uint32, bool) {
	addr, known := uint32(m.Disp), true
	if m.Base != x86.RegNone {
		v, k := s.Regs.read(m.Base)
		addr, known = addr+v, k
	}
	if m.Index != x86.RegNone {
		v, k := s.Regs.read(m.Index)
		addr, known = addr+v*uint32(m.Scale), known && k
	}
	return addr, known
}

// get reads an operand: memory is known only on a concrete state.
func (s *State) get(o *x86.Operand) (uint32, bool) {
	switch o.Kind {
	case x86.KindReg:
		return s.Regs.read(o.Reg)
	case x86.KindImm:
		return uint32(o.Imm), true
	case x86.KindMem:
		if s.Concrete {
			addr, _ := s.ea(&o.Mem)
			return s.load(addr, width(o)), true
		}
	}
	return 0, false
}

// Value reads an operand on a concrete state: the target of an
// indirect jmp or call.
func (s *State) Value(o *x86.Operand) (uint32, error) {
	s.fault = nil
	v, _ := s.get(o)
	return v, s.fault
}

// put writes an operand: stores reach memory only on a concrete state.
func (s *State) put(o *x86.Operand, v uint32, known bool) {
	switch o.Kind {
	case x86.KindReg:
		s.set(o.Reg, v, known)
	case x86.KindMem:
		if s.Concrete {
			addr, _ := s.ea(&o.Mem)
			s.store(addr, width(o), v)
		}
	}
}

// load reads size bytes of concrete memory (little-endian).
func (s *State) load(addr uint32, size int) uint32 {
	if int64(addr)+int64(size) > int64(len(s.Mem)) {
		if s.fault == nil {
			s.fault = fmt.Errorf("%w: read %d@%#x", ErrMemFault, size, addr)
		}
		return 0
	}
	var v uint32
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint32(s.Mem[int(addr)+i])
	}
	return v
}

// store writes size bytes of concrete memory and widens [Lo, Hi).
func (s *State) store(addr uint32, size int, v uint32) {
	if int64(addr)+int64(size) > int64(len(s.Mem)) && s.fault == nil {
		s.fault = fmt.Errorf("%w: write %d@%#x", ErrMemFault, size, addr)
	}
	if s.fault != nil {
		return
	}
	a := int(addr)
	s.Lo, s.Hi = min(s.Lo, a), max(s.Hi, a+size)
	for i := 0; i < size; i++ {
		s.Mem[a+i] = byte(v >> (8 * i))
	}
}

// push moves ESP down a dword and pushes v.
func (s *State) push(v uint32, known bool) {
	if s.fault != nil {
		return
	}
	s.moveESP(-4)
	n := len(s.Stack)
	switch {
	case s.lost:
		return
	case !s.Concrete && n >= maxTrackedStack:
		s.abandonStack()
		return
	case known:
		s.unknown &^= 1 << n
	default:
		s.unknown |= 1 << n
	}
	s.Stack = append(s.Stack, v)
}

// pop pops the top dword and moves ESP up. An empty concrete stack
// faults; an empty or abandoned abstract one pops an unknown value.
func (s *State) pop() (uint32, bool) {
	n := len(s.Stack)
	if n == 0 {
		switch {
		case !s.Concrete:
			s.moveESP(4)
		case s.fault == nil:
			s.fault = ErrStack
		}
		return 0, false
	}
	v, known := s.Stack[n-1], s.unknown&(1<<(n-1)) == 0
	s.Stack = s.Stack[:n-1]
	s.moveESP(4)
	return v, known
}

// moveESP adds d to ESP, known only if all of ESP was.
func (s *State) moveESP(d int32) {
	v, known := s.Regs.read(x86.ESP)
	s.Regs.write(x86.ESP, v+uint32(d), known)
}

// abandonStack gives up abstract stack tracking; the concrete stack is
// a list that ESP arithmetic does not move.
func (s *State) abandonStack() {
	if !s.Concrete {
		s.Stack, s.unknown, s.lost = s.Stack[:0], 0, true
	}
}
