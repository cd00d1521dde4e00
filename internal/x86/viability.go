package x86

// ViabilityTable drives the sweep-start viability check: a compact
// encoding of "which templates could possibly match a sweep starting
// at byte p".
//
// Each mandatory restricted-vocabulary template statement owns one
// statement bit (ops[opcode] = the statement bits an instruction with
// that opcode can satisfy; shape, when set, then keeps only the bits
// whose operand shape the instruction also has), and each template
// owns the set of statement bits it requires (reqs). The matcher only
// accepts a template when all its statements land inside one
// flow-unbroken run of the instruction order — no BAD, RET or HLT
// between matched statements — so a template is viable from p only if
// some single run on the chain from p covers all its required bits.
type ViabilityTable struct {
	ops   [256]uint64
	shape func(in *Inst, bits uint64) uint64
	reqs  []uint64
	all   uint64
}

// NewViabilityTable assigns statement bit i to masks[i] (at most 64
// masks) and template bit t to the requirement set reqs[t] (at most 64
// templates; reqs values are unions of statement bits).
func NewViabilityTable(masks []OpSet, reqs []uint64) *ViabilityTable {
	t := &ViabilityTable{reqs: append([]uint64(nil), reqs...)}
	for i := range masks {
		m := &masks[i]
		for op := 0; op < 256; op++ {
			if m.Has(Opcode(op)) {
				t.ops[op] |= 1 << uint(i)
			}
		}
		t.all |= 1 << uint(i)
	}
	return t
}

// SetShape installs the second-level filter: for an instruction whose
// opcode earned the statement bits in bits (never 0 — an opcode that
// earns none still costs one table load), shape returns the subset
// the instruction's operands can satisfy as well. It must return a
// subset of bits, and must keep every bit whose statement the matcher
// could accept on this instruction; a table without one keeps the
// opcode-only bits, a sound superset. Call it before the table's
// first use.
func (t *ViabilityTable) SetShape(shape func(in *Inst, bits uint64) uint64) { t.shape = shape }

// bits returns the statement bits in can satisfy.
func (t *ViabilityTable) bits(in *Inst) uint64 {
	b := t.ops[in.Op]
	if b != 0 && t.shape != nil {
		b = t.shape(in, b)
	}
	return b
}

// covered returns the template bits whose requirements seg satisfies.
func (t *ViabilityTable) covered(seg uint64) uint64 {
	var out uint64
	for i, req := range t.reqs {
		if seg&req == req {
			out |= 1 << uint(i)
		}
	}
	return out
}

// isBreaker reports whether op ends a flow-unbroken run: the matcher
// never accepts a template whose statements span a BAD, RET or HLT.
func isBreaker(op Opcode) bool { return op == BAD || op == RET || op == HLT }

// isConnector reports whether the instruction can splice another run
// onto the current one under jump threading (ThreadOrderAppend follows
// in-frame jmp/call targets). Viability gives up conservatively on
// such runs — anything could become reachable — rather than chase
// targets.
func (c *DecodeCache) isConnector(in *Inst) bool {
	return (in.Op == JMP || in.Op == CALL) && in.HasTarget &&
		in.Target >= 0 && int(in.Target) < len(c.b)
}

// Viable reports whether any template in want could match a sweep
// starting at offset off, sharing every decoded byte with the cache's
// memoized sweeps:
//
//   - One backward pass over the canonical chain (built by the first
//     Sweep, forced at offset 0 if none exists yet) precomputes, per
//     chain position, the statement bits of the flow-unbroken run
//     starting there (segChain) and the union of template coverages
//     of all runs from there to the end (viaChain). The pass touches
//     only already-decoded instructions — no byte is decoded twice.
//   - An offset on the canonical chain then answers in O(1) from
//     viaChain. An off-chain offset decodes its divergent prefix
//     through the instruction memo (the same decodes a later
//     Sweep(off) would reuse) until it self-synchronizes onto the
//     chain, merging its open run with the chain's run at the join.
//
// The check is sound-conservative: it never reports false for an
// offset the matcher could match (an instruction keeps every
// statement bit the matcher could accept it for — the opcode table is
// a superset and the shape function is the matcher's own — run
// boundaries mirror the matcher's flow-broken rule, and threading
// joins poison the run), so skipping non-viable offsets cannot change
// detections.
func (c *DecodeCache) Viable(off int, t *ViabilityTable, want uint64) bool {
	if t == nil || want == 0 || off >= len(c.b) {
		return false
	}
	if t.covered(0)&want != 0 {
		// A wanted template with an empty requirement set is viable
		// anywhere.
		return true
	}
	c.ensureVia(t)
	if i := c.canonAt[off]; i > 0 {
		return c.viaChain[i-1]&want != 0
	}
	// Divergent prefix: walk until the chain (or the end), tracking
	// the open run.
	var seg uint64
	pos := off
	for pos < len(c.b) {
		if i := c.canonAt[pos]; i > 0 {
			// Joined the chain: the open run continues into the run
			// starting at chain position i-1; later runs are viaChain.
			return (t.covered(seg|c.segChain[i-1])|c.viaChain[i-1])&want != 0
		}
		in := c.instAt(pos)
		if c.isConnector(in) {
			return true
		}
		if isBreaker(in.Op) {
			seg = 0
		} else if bits := t.bits(in); seg|bits != seg {
			seg |= bits
			if t.covered(seg)&want != 0 {
				return true
			}
		}
		pos += int(in.Len)
	}
	return false
}

// ensureVia (re)builds the canonical-chain viability tables for t.
func (c *DecodeCache) ensureVia(t *ViabilityTable) {
	if c.viaFor == t && len(c.viaChain) == len(c.canon) && len(c.canon) > 0 {
		return
	}
	if len(c.canon) == 0 {
		c.Sweep(0)
	}
	n := len(c.canon)
	c.viaChain = growU64(c.viaChain, n)
	c.segChain = growU64(c.segChain, n)
	// cov is covered(seg), recomputed only when seg changes: most
	// instructions add no statement bit the run does not already hold.
	var seg, via uint64
	cov := t.covered(0)
	for i := n - 1; i >= 0; i-- {
		in := c.canon[i]
		prev := seg
		switch {
		case c.isConnector(in):
			seg = t.all
		case isBreaker(in.Op):
			seg = 0
		default:
			seg |= t.bits(in)
		}
		if seg != prev {
			cov = t.covered(seg)
		}
		via |= cov
		c.segChain[i] = seg
		c.viaChain[i] = via
	}
	c.viaFor = t
}

// growU64 resizes buf to n entries, reusing its storage.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
