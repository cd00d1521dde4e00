package x86

import "sync"

// Sweep linearly disassembles b starting at offset start. Undecodable
// bytes are represented as single-byte BAD instructions (with the raw
// byte in Args[0].Imm) so that the sweep always terminates and junk
// data interleaved with code does not abort analysis — the behaviour a
// disassembler needs when pointed at extracted network payload bytes.
//
// Callers sweeping one frame at several offsets should use a
// DecodeCache instead, which decodes each byte position at most once.
func Sweep(b []byte, start int) []Inst {
	var out []Inst
	for pos := start; pos < len(b); {
		in, err := Decode(b, pos)
		if err != nil {
			in = badInst(pos, b[pos])
		}
		out = append(out, in)
		pos += int(in.Len)
	}
	return out
}

// SweepAll disassembles the whole buffer from offset 0.
func SweepAll(b []byte) []Inst { return Sweep(b, 0) }

// threadScratch holds the per-call tables ThreadOrderAppend needs;
// pooled so the hot path does not reallocate them for every frame and
// offset.
type threadScratch struct {
	byAddr []int32 // instruction address -> 1 + index into insts; 0 = none
	seen   []bool
}

var threadPool = sync.Pool{New: func() any { return new(threadScratch) }}

// Refs returns pointers to the elements of insts: the form in which
// the by-reference stages (ThreadOrderAppend, ir.Program.Reuse) take a
// stream that was decoded by value.
func Refs(insts []Inst) []*Inst {
	out := make([]*Inst, len(insts))
	for i := range insts {
		out[i] = &insts[i]
	}
	return out
}

// ThreadOrderAppend recovers the execution order of instructions that
// have been shuffled with unconditional jmp chains (the "out-of-order
// code" obfuscation of Figure 1(c) in the paper), appending it to dst
// and returning the extended slice. Starting from the first
// instruction, it follows straight-line flow, threads through
// unconditional jumps with known in-frame targets, and emits the
// instructions in execution order. Conditional branches (including
// loop) continue on the fall-through path, which matches how a
// decryption loop body executes on its first iteration.
//
// Each instruction is visited at most once; cycles (the loop back-edge)
// terminate the walk. The result points at the same instructions as
// insts; nothing is copied.
func ThreadOrderAppend(dst []*Inst, insts []*Inst) []*Inst {
	if len(insts) == 0 {
		return dst
	}
	// Addresses are frame offsets; the largest is held by the last
	// instruction of a sweep, but insts may be any order, so scan.
	maxAddr := int32(0)
	for _, in := range insts {
		if in.Addr > maxAddr {
			maxAddr = in.Addr
		}
	}
	ts := threadPool.Get().(*threadScratch)
	ts.byAddr = resetIndex(ts.byAddr, int(maxAddr)+1)
	if cap(ts.seen) < len(insts) {
		ts.seen = make([]bool, len(insts))
	} else {
		ts.seen = ts.seen[:len(insts)]
		clear(ts.seen)
	}
	for i, in := range insts {
		ts.byAddr[in.Addr] = int32(i) + 1
	}
	// lookup returns the index of the instruction at addr, or -1.
	lookup := func(addr int32) int {
		if addr < 0 || addr > maxAddr {
			return -1
		}
		return int(ts.byAddr[addr]) - 1
	}

	i := 0
	for i >= 0 && i < len(insts) && !ts.seen[i] {
		ts.seen[i] = true
		in := insts[i]
		if in.Op == JMP && in.HasTarget {
			// Thread through the jump without emitting it.
			i = lookup(in.Target)
			continue
		}
		dst = append(dst, in)
		if in.Op == RET || in.Op == HLT {
			break
		}
		if in.Op == CALL && in.HasTarget {
			// Follow in-frame calls: getpc idioms (jmp/call/pop) put
			// the decoder body at the call target.
			if j := lookup(in.Target); j >= 0 {
				i = j
				continue
			}
		}
		i++
	}
	threadPool.Put(ts)
	return dst
}
