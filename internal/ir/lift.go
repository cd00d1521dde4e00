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

// Node is one instruction in execution order together with the
// register state holding *before* it executes and the register
// families it writes. Its position in Program.Nodes or Program.Raw is
// its position in that order.
//
// Inst points into the decoded-instruction store the lifted stream
// came from (x86.DecodeCache for the analysis path): a Node never owns
// or copies its instruction, and is valid only as long as that store
// is. TestNodeSize pins the size.
type Node struct {
	Inst *x86.Inst

	Pre Regs // register state before the instruction executes

	// Defs is the families Step wrote when the lifter ran this node:
	// every family the instruction may change (the matcher's clobber
	// set, DESIGN 4).
	Defs RegSet
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

	// state is the evaluator's abstract state, kept so repeated lifts
	// reuse its symbolic-stack storage.
	state State
}

// Lift analyzes a decoded instruction stream: it computes the threaded
// execution order and runs the constant-propagation evaluator along
// both the threaded and raw orders, which also records each node's
// def set. The program refers to the elements of insts, which must
// outlive it.
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
	p.Nodes = p.analyzeInto(p.Nodes[:0], p.threaded)
	p.Raw = p.analyzeInto(p.Raw[:0], insts)
}

// analyzeInto runs the transfer function on an abstract state over
// insts in the given order, appending the resulting nodes to the
// caller-managed slice: each with the registers before its Step and
// the families that Step wrote.
func (p *Program) analyzeInto(nodes []Node, insts []*x86.Inst) []Node {
	s := &p.state
	s.Reset(false)
	for _, in := range insts {
		nodes = append(nodes, Node{})
		n := &nodes[len(nodes)-1]
		n.Inst, n.Pre = in, s.Regs
		s.Step(in)
		n.Defs = s.wrote
	}
	return nodes
}
