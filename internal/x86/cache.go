package x86

import "math/bits"

// DecodeCache memoizes linear-sweep decoding over a single frame and
// owns every instruction decoded from it.
//
// The semantic analyzer sweeps the same bytes from several start
// offsets, and the emulator fetches from the frame it loaded at the
// positions execution reaches. x86 linear sweeps self-synchronize: a
// sweep starting at offset k converges onto the offset-0 instruction
// stream within a few bytes, after which every subsequent instruction
// is identical. The cache exploits both forms of redundancy:
//
//   - each byte position is decoded at most once, in place in the
//     cache's store, no matter how many sweep offsets visit it;
//   - a sweep is a slice of pointers into that store, so a sweep that
//     joins the first materialized sweep's chain shares the chain's
//     instructions and copies only eight bytes per instruction.
//
// A DecodeCache is not safe for concurrent use. The slices Sweep
// returns, and the instructions they point at, belong to the cache:
// they are read-only and valid until the next Reset.
type DecodeCache struct {
	b []byte

	// idxAt[p] is 1 + the store index of the instruction decoded at
	// byte position p, or 0 if position p has not been decoded yet.
	idxAt []int32

	// store holds every distinct decoded instruction, append-only, in
	// fixed-size chunks so that growing it never moves an instruction
	// a sweep already points at.
	store [][]Inst
	n     int // instructions in store

	// canon is the first fully materialized sweep (the canonical
	// chain); canonAt[p] is 1 + the index within canon of the
	// instruction at position p, or 0 if p is not on the chain.
	// lastConn is 1 + the index within canon of the chain's last
	// in-frame jmp/call, or 0 if it has none (see Splices).
	canon    []*Inst
	canonAt  []int32
	lastConn int32

	// sweeps memoizes the result slice per requested start offset.
	sweeps map[int][]*Inst

	// used holds the divergent-prefix result slices handed out for the
	// current frame; spare recycles their storage across Resets so a
	// pooled cache sweeps successive frames without reallocating.
	used  [][]*Inst
	spare [][]*Inst

	// viaChain/segChain memoize the canonical chain's sweep-start
	// viability tables (see Viable); viaFor records which table built
	// them.
	viaChain []uint64
	segChain []uint64
	viaFor   *ViabilityTable
}

// storeChunk is the number of instructions per store chunk (16 KiB).
const (
	storeShift = 8
	storeChunk = 1 << storeShift
)

// NewDecodeCache returns a cache over b. No decoding happens until the
// first Sweep or At call.
func NewDecodeCache(b []byte) *DecodeCache {
	return &DecodeCache{b: b}
}

// Bytes returns the frame the cache decodes.
func (c *DecodeCache) Bytes() []byte { return c.b }

// Reset rebinds the cache to a new frame, retaining allocated storage
// so that a pooled cache analyzes successive frames without
// reallocating. Every sweep and instruction handed out for the
// previous frame is invalid from here on.
func (c *DecodeCache) Reset(b []byte) {
	c.b = b
	c.n = 0
	c.canon = c.canon[:0]
	c.lastConn = 0
	c.index()
	clear(c.sweeps)
	c.spare = append(c.spare, c.used...)
	c.used = c.used[:0]
	c.viaFor = nil
}

// resetIndex returns idx resized to n entries, all zero.
func resetIndex(idx []int32, n int) []int32 {
	if cap(idx) < n {
		return make([]int32, n)
	}
	idx = idx[:n]
	clear(idx)
	return idx
}

// index clears the position tables for the current frame and sizes
// the first store chunk for it: n bytes decode to at most n
// instructions, so a short frame gets a short chunk, and a frame that
// needs a second chunk has a full first one.
func (c *DecodeCache) index() {
	c.idxAt = resetIndex(c.idxAt, len(c.b))
	c.canonAt = resetIndex(c.canonAt, len(c.b))
	want := storeChunk
	if len(c.b) < storeChunk {
		want = 1 << bits.Len(uint(len(c.b)))
	}
	if len(c.store) == 0 {
		c.store = append(c.store, make([]Inst, want))
	} else if len(c.store[0]) < want {
		c.store[0] = make([]Inst, want)
	}
}

// ensureIndexed allocates the position tables on first use, so that
// constructing a cache that is never swept costs nothing.
func (c *DecodeCache) ensureIndexed() {
	if len(c.idxAt) != len(c.b) {
		c.index()
	}
}

// At returns the instruction at byte position pos, decoded at most
// once like every position Sweep visits (an undecodable byte is a
// single-byte BAD instruction). It belongs to the cache: read-only and
// valid until the next Reset.
func (c *DecodeCache) At(pos int) *Inst {
	c.ensureIndexed()
	return c.instAt(pos)
}

// instAt decodes the instruction at byte position pos, memoized. An
// undecodable byte has the same representation as in Sweep: a
// single-byte BAD instruction carrying the raw byte.
func (c *DecodeCache) instAt(pos int) *Inst {
	if idx := c.idxAt[pos]; idx > 0 {
		idx--
		return &c.store[idx>>storeShift][idx&(storeChunk-1)]
	}
	k := c.n >> storeShift
	if k == len(c.store) {
		c.store = append(c.store, make([]Inst, storeChunk))
	}
	in := &c.store[k][c.n&(storeChunk-1)]
	if err := DecodeInto(in, c.b, pos); err != nil {
		*in = badInst(pos, c.b[pos])
	}
	c.n++
	c.idxAt[pos] = int32(c.n)
	return in
}

// Sweep linearly disassembles the frame starting at offset start,
// instruction for instruction equal to the package-level Sweep but
// decoding each position at most once across all offsets. The
// returned slice and the instructions it points at are shared and
// read-only.
func (c *DecodeCache) Sweep(start int) []*Inst {
	if start >= len(c.b) {
		return nil
	}
	if s, ok := c.sweeps[start]; ok {
		return s
	}
	c.ensureIndexed()

	var out []*Inst
	if len(c.canon) == 0 {
		// First sweep: materialize the canonical chain and index it.
		for pos := start; pos < len(c.b); {
			in := c.instAt(pos)
			c.canon = append(c.canon, in)
			c.canonAt[pos] = int32(len(c.canon))
			if c.isConnector(in) {
				c.lastConn = int32(len(c.canon))
			}
			pos += int(in.Len)
		}
		out = c.canon
	} else if i := c.canonAt[start]; i > 0 {
		// The start itself is on the canonical chain: share its tail.
		out = c.canon[i-1:]
	} else {
		// Decode the divergent prefix, then append the shared tail
		// from the point of self-synchronization.
		if n := len(c.spare); n > 0 {
			out = c.spare[n-1][:0]
			c.spare = c.spare[:n-1]
		}
		pos := start
		for pos < len(c.b) {
			if i := c.canonAt[pos]; i > 0 {
				out = append(out, c.canon[i-1:]...)
				break
			}
			in := c.instAt(pos)
			out = append(out, in)
			pos += int(in.Len)
		}
		c.used = append(c.used, out)
	}
	if c.sweeps == nil {
		c.sweeps = make(map[int][]*Inst, 8)
	}
	c.sweeps[start] = out
	return out
}
