// Template anatomy: walk the paper's Figure 1 — three syntactically
// different but semantically equivalent decryption routines — through
// the disassembler, the IR's constant folding, and the template
// matcher, printing what each stage sees. This is the "why semantics
// beats syntax" demonstration (Figures 1 and 2 of the paper).
//
//	go run ./examples/templates
package main

import (
	"fmt"

	"semnids/internal/ir"
	"semnids/internal/sem"
	"semnids/internal/x86"
)

func mem8(base x86.Reg) x86.Operand {
	return x86.MemOp(x86.MemRef{Base: base, Size: 1, Scale: 1})
}

func main() {
	variants := []struct {
		name string
		desc string
		code []byte
	}{
		{"figure-1a", "plain xor loop", x86.NewAsm().
			Label("decode").
			I(x86.XOR, mem8(x86.EAX), x86.ImmOp(-0x6b)).
			IncR(x86.EAX).
			Loop("decode").MustBytes()},
		{"figure-1b", "key built in a register, inc replaced by add", x86.NewAsm().
			Label("decode").
			MovRI(x86.EBX, 0x31).
			AddRI(x86.EBX, 0x64).
			I(x86.XOR, mem8(x86.EAX), x86.RegOp(x86.BL)).
			AddRI(x86.EAX, 1).
			Loop("decode").MustBytes()},
		{"figure-1c", "garbage instructions and out-of-order blocks", x86.NewAsm().
			Label("decode").
			MovRI(x86.ECX, 0).IncR(x86.ECX).IncR(x86.ECX).
			JmpShort("one").
			Label("two").AddRI(x86.EAX, 1).JmpShort("three").
			Label("one").MovRI(x86.EBX, 0x31).AddRI(x86.EBX, 0x64).
			I(x86.XOR, mem8(x86.EAX), x86.RegOp(x86.BL)).
			JmpShort("two").
			Label("three").Loop("one").MustBytes()},
	}

	// The paper's Figure 2 template, alone: xor-decrypt-loop from the
	// built-in set (templates/builtin.tpl).
	var figure2 []*sem.Template
	for _, t := range sem.BuiltinTemplates() {
		if t.Name == "xor-decrypt-loop" {
			figure2 = append(figure2, t)
		}
	}
	analyzer := sem.NewAnalyzer(figure2)

	for _, v := range variants {
		fmt.Printf("== %s: %s (%d bytes)\n", v.name, v.desc, len(v.code))
		insts := x86.SweepAll(v.code)
		fmt.Println("   disassembly (address order):")
		for _, in := range insts {
			fmt.Printf("     %3d: %v\n", in.Addr, in)
		}
		prog := ir.Lift(insts)
		fmt.Println("   recovered execution order with folded constants:")
		for _, n := range prog.Nodes {
			line := fmt.Sprintf("     %3d: %v", n.Inst.Addr, n.Inst)
			if n.Inst.Op == x86.XOR {
				if key, ok := n.ConstBefore(x86.BL); ok {
					line += fmt.Sprintf("    ; bl == %#x here (folded)", key)
				}
			}
			fmt.Println(line)
		}
		for _, d := range analyzer.AnalyzeFrame(v.code) {
			fmt.Printf("   MATCH %s: bindings %v, matched offsets %v (%s order)\n",
				d.Template, d.Bindings, d.Addrs, d.Order)
		}
		fmt.Println()
	}
	fmt.Println("one template, three encodings: the behavior is identical, the syntax never is.")
}
