package x86

import (
	"fmt"
	"strings"
)

// OperandKind discriminates the variants of Operand.
type OperandKind uint8

const (
	KindNone OperandKind = iota
	KindReg              // a register
	KindImm              // an immediate constant
	KindMem              // a memory reference
)

// Seg is a segment-override prefix.
type Seg uint8

const (
	SegNone Seg = iota
	SegES
	SegCS
	SegSS
	SegDS
	SegFS
	SegGS
)

var segNames = [...]string{"", "es", "cs", "ss", "ds", "fs", "gs"}

func (s Seg) String() string {
	if int(s) < len(segNames) {
		return segNames[s]
	}
	return "seg?"
}

// MemRef is a decoded x86 effective address: [Base + Index*Scale + Disp],
// accessing Size bytes. Base and Index may be RegNone. A segment
// override belongs to the operand holding the reference (Operand.Seg).
type MemRef struct {
	Base  Reg
	Index Reg
	Scale uint8 // 1, 2, 4 or 8; meaningful only when Index != RegNone
	Size  uint8 // access width in bytes: 1, 2 or 4 (0 for LEA-style address)
	Disp  int32
}

func (m MemRef) String() string { return m.format(SegNone) }

func (m MemRef) format(seg Seg) string {
	var b strings.Builder
	switch m.Size {
	case 1:
		b.WriteString("byte ptr ")
	case 2:
		b.WriteString("word ptr ")
	case 4:
		b.WriteString("dword ptr ")
	}
	if seg != SegNone {
		b.WriteString(seg.String())
		b.WriteByte(':')
	}
	b.WriteByte('[')
	wrote := false
	if m.Base != RegNone {
		b.WriteString(m.Base.String())
		wrote = true
	}
	if m.Index != RegNone {
		if wrote {
			b.WriteByte('+')
		}
		b.WriteString(m.Index.String())
		if m.Scale > 1 {
			fmt.Fprintf(&b, "*%d", m.Scale)
		}
		wrote = true
	}
	switch {
	case !wrote:
		fmt.Fprintf(&b, "0x%x", uint32(m.Disp))
	case m.Disp > 0:
		fmt.Fprintf(&b, "+0x%x", m.Disp)
	case m.Disp < 0:
		fmt.Fprintf(&b, "-0x%x", -int64(m.Disp))
	}
	b.WriteByte(']')
	return b.String()
}

// Operand is one instruction operand, 16 bytes. Imm holds an immediate
// as the decoder sign-extends it to 32 bits; no IA-32 immediate or
// displacement is wider.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Seg  Seg // segment override of a memory operand (SegNone when none)
	Imm  int32
	Mem  MemRef
}

// RegOp constructs a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp constructs an immediate operand from the low 32 bits of v, so
// 0xffffffff and -1 are the same immediate.
func ImmOp(v int64) Operand { return Operand{Kind: KindImm, Imm: int32(v)} }

// MemOp constructs a memory operand.
func MemOp(m MemRef) Operand { return Operand{Kind: KindMem, Mem: m} }

// IsReg reports whether the operand is the specific register r.
func (o Operand) IsReg(r Reg) bool { return o.Kind == KindReg && o.Reg == r }

func (o Operand) String() string {
	switch o.Kind {
	case KindReg:
		return o.Reg.String()
	case KindImm:
		if o.Imm < 0 {
			return fmt.Sprintf("-0x%x", -int64(o.Imm))
		}
		return fmt.Sprintf("0x%x", o.Imm)
	case KindMem:
		return o.Mem.format(o.Seg)
	}
	return ""
}

// Inst is a single decoded instruction: 64 bytes, no pointers. The
// analysis pipeline decodes an instruction once per byte position
// (DecodeCache) and passes *Inst from there on; TestInstSize pins the
// size so a new field is a deliberate decision.
type Inst struct {
	Addr int32 // byte offset of the instruction within the decoded frame

	// Target is the absolute frame offset targeted by a relative
	// branch or call (Addr + Len + displacement). Valid only when
	// HasTarget is true. A target past math.MaxInt32 saturates there:
	// it is outside any frame either way.
	Target int32

	Len  uint8 // encoded length in bytes
	Op   Opcode
	Cond Cond // condition for JCC / SETCC

	// OpSize is the operand size in bytes implied by prefixes (4
	// normally, 2 under a 0x66 prefix) for size-generic opcodes.
	OpSize uint8

	HasTarget bool

	// Prefix flags.
	Rep, Repne, Lock bool

	// Args holds up to three operands. Unused slots have Kind == KindNone.
	Args [3]Operand
}

// NArgs returns the number of operands present.
func (in Inst) NArgs() int {
	n := 0
	for _, a := range in.Args {
		if a.Kind != KindNone {
			n++
		}
	}
	return n
}

// Mnemonic returns the full mnemonic including the condition suffix for
// conditional opcodes.
func (in Inst) Mnemonic() string {
	switch in.Op {
	case JCC:
		return "j" + in.Cond.String()
	case SETCC:
		return "set" + in.Cond.String()
	case CMOVCC:
		return "cmov" + in.Cond.String()
	}
	return in.Op.String()
}

func (in Inst) String() string {
	var b strings.Builder
	if in.Lock {
		b.WriteString("lock ")
	}
	if in.Rep {
		b.WriteString("rep ")
	}
	if in.Repne {
		b.WriteString("repne ")
	}
	b.WriteString(in.Mnemonic())
	if in.HasTarget {
		fmt.Fprintf(&b, " 0x%x", in.Target)
		return b.String()
	}
	for i, a := range in.Args {
		if a.Kind == KindNone {
			break
		}
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	return b.String()
}
