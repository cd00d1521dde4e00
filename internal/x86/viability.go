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
// between matched statements — so a template is viable in an order
// only if some single run of it covers all its required bits.
// DecodeCache.Viable asks that of the linear sweep from p,
// ViableOrder of an order the caller supplies.
type ViabilityTable struct {
	ops   [256]uint64
	shape func(in *Inst, bits uint64) uint64
	reqs  []uint64
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

// isConnector reports whether the instruction can splice another run
// onto the current one under jump threading: ThreadOrderAppend follows
// in-frame jmp/call targets, and nothing else makes it depart from
// address order.
func (c *DecodeCache) isConnector(in *Inst) bool {
	return (in.Op == JMP || in.Op == CALL) && in.HasTarget &&
		in.Target >= 0 && int(in.Target) < len(c.b)
}

// Viable reports whether any template in want could match the linear
// sweep starting at offset off — the sweep's own instruction order —
// sharing every decoded byte with the cache's memoized sweeps:
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
// The check is sound-conservative for the linear order: it never
// reports false for an offset the matcher could match in that order
// (an instruction keeps every statement bit the matcher could accept
// it for — the opcode table is a superset and the shape function is
// the matcher's own — and run boundaries mirror the matcher's
// flow-broken rule). The threaded order is a question of its own
// (Splices, ViableOrder).
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
		if in.Op.BreaksRun() {
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

// Splices reports whether the sweep starting at off holds an in-frame
// jmp or call, the only instructions ThreadOrderAppend follows away
// from address order. A sweep without one threads to a prefix of
// itself, in address order (the walk ends at a ret, a hlt or a jmp
// that leaves the frame), whose runs lie inside the sweep's own, so
// Viable answers for its threaded order as well. An offset on the
// canonical chain answers in O(1); an off-chain one walks its
// divergent prefix through the instruction memo.
func (c *DecodeCache) Splices(off int) bool {
	if off >= len(c.b) {
		return false
	}
	if len(c.canon) == 0 {
		c.Sweep(0)
	}
	for pos := off; pos < len(c.b); {
		if i := c.canonAt[pos]; i > 0 {
			return c.lastConn >= i
		}
		in := c.instAt(pos)
		if c.isConnector(in) {
			return true
		}
		pos += int(in.Len)
	}
	return false
}

// ViableOrder reports whether any template in want could match order,
// an instruction sequence the matcher searches as given (typically the
// threaded order ThreadOrderAppend recovers from a sweep that
// Splices): whether one of its flow-unbroken runs covers a wanted
// template's requirements.
func (t *ViabilityTable) ViableOrder(order []*Inst, want uint64) bool {
	if t == nil || want == 0 || len(order) == 0 {
		return false
	}
	if t.covered(0)&want != 0 {
		return true
	}
	var seg uint64
	for _, in := range order {
		if in.Op.BreaksRun() {
			seg = 0
		} else if bits := t.bits(in); seg|bits != seg {
			seg |= bits
			if t.covered(seg)&want != 0 {
				return true
			}
		}
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
		if in.Op.BreaksRun() {
			seg = 0
		} else {
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
