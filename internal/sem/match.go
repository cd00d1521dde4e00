package sem

import (
	"bytes"

	"semnids/internal/ir"
	"semnids/internal/x86"
)

// matcher holds the per-sequence matching context. A matcher is
// reusable: reset rebinds it to a new node sequence, retaining the
// grown index buffers, so the hot path builds its per-order tables
// without allocating.
type matcher struct {
	nodes []ir.Node
	frame []byte

	// flowCount[i] = number of flow-breaking nodes (undecodable bytes,
	// ret, hlt) in nodes[0:i]. A loop must be control-flow connected:
	// execution cannot pass through a ret or an undecodable byte
	// between the back edge's target and the back edge.
	flowCount []int32

	// addrIndex maps instruction frame offsets to sequence position
	// (-1 = no instruction at that offset). Indexed directly by
	// offset, which the SBackEdge check hits once per candidate.
	addrIndex []int32

	// opsSeen is the set of opcodes present in nodes; compiled
	// template prefilters reject impossible templates against it
	// before any search starts.
	opsSeen opMask

	// tablesBuilt records that flowCount and addrIndex describe the
	// current nodes (see buildTables).
	tablesBuilt bool

	matched []int // scratch for the matched node indices

	// binds is the binding stack: binds[d] is the candidate binding at
	// search depth d. An explicit stack (rather than locals passed by
	// pointer through the recursion) keeps candidate bindings out of
	// the heap — escape analysis must otherwise assume a pointer
	// passed into a recursive call escapes.
	binds []binding

	steps     int    // backtracking budget
	exhausted uint64 // searches that ran out of it
}

// maxSearchSteps bounds the backtracking search so that adversarial
// frames cannot consume unbounded CPU in the analyzer.
const maxSearchSteps = 1 << 20

// reset rebinds the matcher to a node sequence. Only the opcode
// presence set is computed here: the flow prefix sums and the address
// index serve only the back-edge check, so the first SBackEdge
// candidate builds them (buildTables), and a sequence no loop
// template reaches a back edge in never pays for them.
func (m *matcher) reset(nodes []ir.Node, frame []byte) {
	m.nodes, m.frame = nodes, frame
	m.tablesBuilt = false
	m.opsSeen = opMask{}
	for i := range nodes {
		m.opsSeen.Add(nodes[i].Inst.Op)
	}
}

// buildTables builds the flow prefix sums and the address index for
// the current node sequence, once per reset.
func (m *matcher) buildTables() {
	if m.tablesBuilt {
		return
	}
	m.tablesBuilt = true
	nodes := m.nodes

	n := len(nodes)
	if cap(m.flowCount) < n+1 {
		m.flowCount = make([]int32, n+1)
	} else {
		m.flowCount = m.flowCount[:n+1]
	}
	m.flowCount[0] = 0

	maxAddr := int32(0)
	for i := range nodes {
		if a := nodes[i].Inst.Addr; a > maxAddr {
			maxAddr = a
		}
	}
	if cap(m.addrIndex) < int(maxAddr)+1 {
		m.addrIndex = make([]int32, maxAddr+1)
	} else {
		m.addrIndex = m.addrIndex[:maxAddr+1]
	}
	for i := range m.addrIndex {
		m.addrIndex[i] = -1
	}

	for i := range nodes {
		in := nodes[i].Inst
		m.addrIndex[in.Addr] = int32(i)
		fc := m.flowCount[i]
		if in.Op.BreaksRun() {
			fc++
		}
		m.flowCount[i+1] = fc
	}
}

// lookupAddr returns the sequence position of the instruction at frame
// offset addr, if any.
func (m *matcher) lookupAddr(addr int32) (int, bool) {
	if addr < 0 || int(addr) >= len(m.addrIndex) {
		return 0, false
	}
	if j := m.addrIndex[addr]; j >= 0 {
		return int(j), true
	}
	return 0, false
}

// canMatch is the per-order prefilter: every mandatory restricted-
// vocabulary statement needs at least one instruction with an
// acceptable opcode somewhere in the sequence.
func (m *matcher) canMatch(ct *compiledTemplate) bool {
	for i := range ct.opNeeds {
		if !ct.opNeeds[i].Intersects(&m.opsSeen) {
			return false
		}
	}
	return true
}

// match searches nodes (one specific order) for the compiled template.
// The returned binding and index slice are the matcher's scratch,
// valid until the next match call.
func (m *matcher) match(ct *compiledTemplate) (*binding, []int, bool) {
	if !m.canMatch(ct) {
		return nil, nil, false
	}
	m.steps = 0
	if cap(m.binds) < len(ct.stmts)+1 {
		m.binds = make([]binding, len(ct.stmts)+1)
	} else {
		m.binds = m.binds[:len(ct.stmts)+1]
	}
	m.binds[0] = binding{}
	m.matched = m.matched[:0]
	ok := m.search(ct, 0, -1, 0, &m.matched)
	if m.steps > maxSearchSteps {
		m.exhausted++
	}
	if ok {
		return &m.binds[0], m.matched, true
	}
	return nil, nil, false
}

// search assigns statement s to a node after position prev. bi indexes
// the binding stack entry holding the assignment built so far; on
// success the completed binding has been copied back into binds[bi].
func (m *matcher) search(ct *compiledTemplate, s, prev, bi int, matched *[]int) bool {
	if s == len(ct.stmts) {
		return true
	}
	st := &ct.stmts[s]

	// Zero-width statements consume no node.
	if st.Kind == SFrameData {
		if m.frameHasData(&st.Stmt) || st.Optional {
			return m.search(ct, s+1, prev, bi, matched)
		}
		return false
	}

	// live: registers bound to variables that must survive the gap
	// into this statement.
	b := &m.binds[bi]
	var live ir.RegSet
	for _, id := range ct.liveVars[s] {
		if reg, ok := b.reg(id); ok {
			live.Add(reg)
		}
	}

	for i := prev + 1; i < len(m.nodes); i++ {
		if m.steps++; m.steps > maxSearchSteps {
			return false
		}
		// The vocabulary test first: most nodes fail it, and it spares
		// them the candidate binding's copy.
		if st.opAllowed(m.nodes[i].Inst.Op) {
			m.binds[bi+1] = *b
			// No node strictly between prev and i clobbers a live
			// register or breaks control flow: the scan stops at the
			// first that does (below).
			if m.matchStmt(st, i, &m.binds[bi+1]) {
				*matched = append(*matched, i)
				if m.search(ct, s+1, i, bi+1, matched) {
					m.binds[bi] = m.binds[bi+1]
					return true
				}
				*matched = (*matched)[:len(*matched)-1]
			}
		}
		// Whether or not node i matched, if it clobbers a live
		// register or ends control flow, no candidate beyond it can
		// be valid: the gap (prev, i'] for i' > i necessarily
		// contains the violation. This bounds the scan to the
		// clobber-free window, which is what keeps matching fast on
		// junk-heavy or random frames.
		if prev >= 0 && (m.nodes[i].Defs.Intersects(live) || m.nodes[i].Inst.Op.BreaksRun()) {
			break
		}
	}
	if st.Optional {
		return m.search(ct, s+1, prev, bi, matched)
	}
	return false
}

// frameHasData checks the SFrameData predicate. The byte string is
// carried in the statement's FrameBytes field.
func (m *matcher) frameHasData(st *Stmt) bool {
	return len(st.FrameBytes) > 0 && bytes.Contains(m.frame, st.FrameBytes)
}

// shape is the part of a statement's test that the decoded instruction
// alone decides: opcode in the vocabulary, operand kinds, the pointer
// operand's form, a non-zero immediate key, an immediate inside the
// statement's range. matchStmt runs it first, and the sweep-start
// pruner's statement bit for an instruction is this same function
// (Analyzer.buildPrune), so the pruner cannot reject an instruction
// the matcher would accept. What is left to matchStmt needs the lifted
// node (constants known before it) or the binding built so far.
func (st *cstmt) shape(in *x86.Inst) bool {
	a0, a1 := &in.Args[0], &in.Args[1]
	switch st.Kind {
	case SMemXform:
		if !st.opAllowed(in.Op) || a0.Kind != x86.KindMem || !st.ptrMem(&a0.Mem) {
			return false
		}
		switch a1.Kind {
		case x86.KindImm:
			// A zero key is not a transformation.
			return uint32(a1.Imm)&widthMaskFor(a0.Mem.Size) != 0
		case x86.KindNone:
			// Unary transforms (not/neg/inc/dec on memory).
			return in.Op == x86.NOT || in.Op == x86.NEG || in.Op == x86.INC || in.Op == x86.DEC
		}
		return true

	case SMemLoad:
		switch in.Op {
		case x86.MOV:
			return a0.Kind == x86.KindReg && a1.Kind == x86.KindMem && st.ptrMem(&a1.Mem)
		case x86.LODSB, x86.LODSD:
			return true
		}
		return false

	case SMemStore:
		switch in.Op {
		case x86.MOV:
			return a0.Kind == x86.KindMem && st.ptrMem(&a0.Mem) && a1.Kind == x86.KindReg
		case x86.STOSB, x86.STOSD:
			return true
		}
		return false

	case SRegXform:
		// Source must not be memory: loads are a separate statement.
		return st.opAllowed(in.Op) && a0.Kind == x86.KindReg && a1.Kind != x86.KindMem

	case SAdvance:
		// add/sub reg, src: the delta is src's value, matchStmt's to
		// resolve.
		_, delta, src, ok := ir.InstAdvance(in)
		return ok && (src != x86.RegNone || st.deltaOK(delta))

	case SBackEdge:
		return in.Op.IsCondBranch() && in.HasTarget

	case SSyscall:
		return in.Op == x86.INT && a0.Kind == x86.KindImm && a0.Imm == 0x80

	case SConstInRange:
		// mov reg, imm — or push imm (followed elsewhere by ret/pop).
		imm := a0
		switch {
		case in.Op == x86.MOV && a0.Kind == x86.KindReg:
			imm = a1
		case in.Op != x86.PUSH:
			return false
		}
		return imm.Kind == x86.KindImm && uint32(imm.Imm) >= st.Lo && uint32(imm.Imm) <= st.Hi

	case SIndirect:
		return (in.Op == x86.CALL || in.Op == x86.JMP) && indirectThrough(in) != x86.RegNone
	}
	return true
}

// prunable is shape as the sweep-start pruner asks it of the linear
// order, with the one test the pruner can make there that matchStmt
// cannot. The linear order visits instructions in address order, and
// so does the threaded order of a sweep without an in-frame jmp/call
// (a prefix of the linear one; x86.DecodeCache.Splices), so SBackEdge's
// "target already visited" is "target address below the branch's
// own": a forward branch cannot close a loop there. The threaded order
// of a sweep that splices is asked shape alone.
func (st *cstmt) prunable(in *x86.Inst) bool {
	if st.Kind == SBackEdge && (in.Target < 0 || in.Target >= in.Addr) {
		return false
	}
	return st.shape(in)
}

// ptrMem accepts the effective-address shapes decryption loops
// actually use: the pointer register itself, possibly with a small
// displacement ([esi], [eax+1]). Random data misdecodes produce
// operands like [ecx-0x49bbc9bb], which no loop that derives its
// pointer from the payload address would ever contain.
func (st *cstmt) ptrMem(m *x86.MemRef) bool {
	if st.MemSize != 0 && m.Size != st.MemSize {
		return false
	}
	return m.Base != x86.RegNone && m.Index == x86.RegNone &&
		m.Disp >= -255 && m.Disp <= 255
}

// deltaOK applies SAdvance's |delta| bounds (1..8 when unset).
func (st *cstmt) deltaOK(delta int64) bool {
	if delta < 0 {
		delta = -delta
	}
	min, max := st.MinDelta, st.MaxDelta
	if min == 0 && max == 0 {
		min, max = 1, 8
	}
	return delta >= min && delta <= max
}

// indirectThrough is the register a call/jmp transfers through:
// directly, or as a memory operand's base.
func indirectThrough(in *x86.Inst) x86.Reg {
	switch a0 := &in.Args[0]; a0.Kind {
	case x86.KindReg:
		return a0.Reg
	case x86.KindMem:
		return a0.Mem.Base
	}
	return x86.RegNone
}

// matchStmt tests a single statement against node i, extending the
// binding nb on success: the instruction's shape first, then what
// only the lifted node and the binding can decide. The matcher's
// matched scratch holds the node indices assigned to earlier
// statements.
func (m *matcher) matchStmt(st *cstmt, i int, nb *binding) bool {
	n := &m.nodes[i]
	in := n.Inst
	if !st.shape(in) {
		return false
	}
	a0, a1 := &in.Args[0], &in.Args[1]

	switch st.Kind {
	case SMemXform:
		if !nb.bindReg(st.ptrVar, a0.Mem.Base) {
			return false
		}
		switch a1.Kind {
		case x86.KindImm:
			nb.setKey(st.keyVar, uint32(a1.Imm)&widthMaskFor(a0.Mem.Size))
		case x86.KindReg:
			// The key must resolve to a concrete constant, exactly as
			// the symbolic constants of [5]'s templates must bind to a
			// value. A real decryptor's key register is loaded from
			// (possibly obscured) constants that the IR's folding
			// resolves; a random byte-soup `xor [edi], dl` has no
			// resolvable key and is rejected — the major benign-data
			// false-positive class.
			v, known := n.ConstBefore(a1.Reg)
			key := v & widthMaskFor(a0.Mem.Size)
			if !known || key == 0 {
				return false
			}
			nb.setKey(st.keyVar, key)
		}
		return true

	case SMemLoad:
		if in.Op == x86.MOV {
			return nb.bindReg(st.ptrVar, a1.Mem.Base) && nb.bindReg(st.regVar, a0.Reg)
		}
		return nb.bindReg(st.ptrVar, x86.ESI) && nb.bindReg(st.regVar, x86.EAX)

	case SMemStore:
		if in.Op == x86.MOV {
			return nb.bindReg(st.ptrVar, a0.Mem.Base)
		}
		return nb.bindReg(st.ptrVar, x86.EDI)

	case SRegXform:
		return true // all shape

	case SAdvance:
		fam, delta, ok := n.Advance()
		return ok && st.deltaOK(delta) && nb.bindReg(st.ptrVar, fam)

	case SBackEdge:
		// The target must be a real instruction boundary in this
		// decode, already visited in sequence order. This covers both
		// plain backward loops and out-of-order code (where the
		// back-edge target can be later in address order but earlier
		// in execution order), while rejecting phantom loops in
		// misaligned decodes whose targets fall between instructions.
		m.buildTables()
		j, ok := m.lookupAddr(in.Target)
		if !ok || j >= i {
			return false
		}
		// The loop must actually re-execute the matched behavior: the
		// back edge re-enters at or before the first matched
		// statement (loop setup code may sit between the entry point
		// and the transform, so "at or before" is the right bound).
		if matched := m.matched; len(matched) > 0 && j > matched[0] {
			return false
		}
		// Executable loops contain no undecodable bytes and no
		// early returns: a BAD marker or a ret inside [target,
		// backedge] means this "loop" is a phantom in misdecoded
		// data, since execution could never complete an iteration.
		return m.flowCount[i+1]-m.flowCount[j] == 0

	case SSyscall:
		v, known := n.ConstBefore(x86.EAX)
		if !known || v != st.Num {
			return false
		}
		if st.EBX != nil {
			bv, bknown := n.ConstBefore(x86.EBX)
			return bknown && bv == *st.EBX
		}
		return true

	case SConst:
		for _, a := range in.Args {
			switch a.Kind {
			case x86.KindImm:
				for _, v := range st.Values {
					if uint32(a.Imm) == v {
						return true
					}
				}
			case x86.KindReg:
				if cv, known := n.ConstBefore(a.Reg); known {
					for _, v := range st.Values {
						if cv == v {
							return true
						}
					}
				}
			}
		}
		return false

	case SConstInRange:
		if in.Op == x86.MOV {
			return nb.bindReg(st.regVar, a0.Reg)
		}
		return true

	case SIndirect:
		through := indirectThrough(in)
		if !nb.bindReg(st.regVar, through) {
			return false
		}
		if st.Lo != 0 || st.Hi != 0 {
			v, known := n.ConstBefore(through)
			return known && v >= st.Lo && v <= st.Hi
		}
		return true
	}
	return false // SFrameData: search handles it without consuming a node
}

func widthMaskFor(size uint8) uint32 {
	switch size {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	default:
		return 0xffffffff
	}
}
