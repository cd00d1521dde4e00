package main

import (
	"bytes"

	"semnids/internal/sem"
	"semnids/internal/x86"
)

// pruner rebuilds, from the templates' exported statements, the
// sweep-start viability check sem.Analyzer performs privately (the
// frame-bytes prefilter that picks a frame's candidate templates, then
// buildPrune's table over compileTemplate's opNeeds): one statement
// bit per mandatory statement with a restricted opcode vocabulary, one
// requirement set per template. It exists only so the traced pass can
// count x86.viable_start_ratio through DecodeCache.Viable; it is a
// mirror, and TestPrunerSound holds it to the analyzer's verdicts.
type pruner struct {
	table *x86.ViabilityTable
	bits  []uint64   // per template; 0 = not encodable, viable everywhere
	needs [][][]byte // per template: byte strings the frame must contain
}

func newPruner(tpls []*sem.Template) *pruner {
	p := &pruner{bits: make([]uint64, len(tpls)), needs: make([][][]byte, len(tpls))}
	var masks []x86.OpSet
	var reqs []uint64
	for ti, tpl := range tpls {
		var req uint64
		for i := range tpl.Stmts {
			st := &tpl.Stmts[i]
			if st.Optional {
				continue
			}
			if st.Kind == sem.SFrameData {
				if len(st.FrameBytes) > 0 {
					p.needs[ti] = append(p.needs[ti], st.FrameBytes)
				}
				continue
			}
			// A repeated statement expands to mandatory copies sharing
			// one vocabulary; one bit stands for all of them.
			m, ok := stmtOps(st)
			if !ok || len(masks) >= 64 || m.Has(x86.BAD) || m.Has(x86.RET) || m.Has(x86.HLT) {
				continue
			}
			req |= 1 << uint(len(masks))
			masks = append(masks, m)
		}
		if req != 0 && len(reqs) < 64 {
			p.bits[ti] = 1 << uint(len(reqs))
			reqs = append(reqs, req)
		}
	}
	p.table = x86.NewViabilityTable(masks, reqs)
	return p
}

// viable reports whether the analyzer would lift a sweep of the frame
// starting at off.
func (p *pruner) viable(c *x86.DecodeCache, frame []byte, off int) bool {
	var want uint64
	candidates := false
templates:
	for ti := range p.bits {
		for _, need := range p.needs[ti] {
			if !bytes.Contains(frame, need) {
				continue templates
			}
		}
		candidates = true
		if p.bits[ti] == 0 {
			return true
		}
		want |= p.bits[ti]
	}
	return candidates && c.Viable(off, p.table, want)
}

// stmtOps is the opcode vocabulary of one statement kind (sem's
// stmtOpMask).
func stmtOps(st *sem.Stmt) (m x86.OpSet, ok bool) {
	add := func(ops ...x86.Opcode) (x86.OpSet, bool) {
		for _, op := range ops {
			m.Add(op)
		}
		return m, true
	}
	switch st.Kind {
	case sem.SMemXform, sem.SRegXform:
		if len(st.Ops) == 0 {
			return m, false
		}
		return add(st.Ops...)
	case sem.SMemLoad:
		return add(x86.MOV, x86.LODSB, x86.LODSD)
	case sem.SMemStore:
		return add(x86.MOV, x86.STOSB, x86.STOSD)
	case sem.SAdvance:
		return add(x86.INC, x86.DEC, x86.ADD, x86.SUB, x86.LEA)
	case sem.SBackEdge:
		return add(x86.JCC, x86.LOOP, x86.LOOPE, x86.LOOPNE, x86.JECXZ)
	case sem.SSyscall:
		return add(x86.INT)
	case sem.SConstInRange:
		return add(x86.MOV, x86.PUSH)
	case sem.SIndirect:
		return add(x86.CALL, x86.JMP)
	}
	return m, false
}
