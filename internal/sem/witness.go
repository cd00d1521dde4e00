package sem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Byte witnesses. A statement of one of these kinds can match only an
// instruction whose bytes show its witness, so a frame that lacks one
// of a template's witnesses cannot match the template at any sweep
// offset, in either instruction order, and is not decoded for it.
// TestWitnessCoversShape derives the patterns from the decoder.
const (
	// witSyscall is CD 80: int 0x80 has no other encoding.
	witSyscall uint8 = 1 << iota
	// witIndirect is an FF byte: every call or jmp through a register
	// or memory operand is FF /2 to FF /5.
	witIndirect
	// witBackward is a relative transfer with a negative displacement:
	// a rel8 opcode (70–7F, E0–E3, EB) with a sign byte ≥ 80 at +1,
	// E8/E9 with one at +4 (+2 for a rel16 operand under 66), or
	// 0F 80–8F with one at +5 (+3 under 66). A back edge the matcher
	// takes is a backward conditional branch, or it closes a loop in a
	// threaded order that some backward jmp or call spliced:
	// ThreadOrderAppend visits addresses in increasing order unless a
	// jmp or call it follows goes backward.
	witBackward
)

// stmtWitness is the byte witness of a statement kind, 0 for a kind
// whose instructions leave none.
func stmtWitness(k StmtKind) uint8 {
	switch k {
	case SSyscall:
		return witSyscall
	case SIndirect:
		return witIndirect
	case SBackEdge:
		return witBackward
	}
	return 0
}

// signAt and jcc32 are the first-byte class tables of witBackward.
// Bit d of signAt[op] is set when a relative transfer opening with
// byte op can carry its displacement's sign byte d bytes after op; for
// 0F (d = 3, 5) it holds only when the next byte is a jcc's 80–8F,
// whose jcc32 entry keeps those bits. The decoder reads a rel32 operand
// under 66 as well; the rel16 positions keep the witness a superset of
// either reading, which costs nothing on text.
var signAt, jcc32 = func() (sign, jcc [256]uint8) {
	for op := 0x70; op <= 0x7f; op++ {
		sign[op] = 1 << 1
	}
	for op := 0xe0; op <= 0xe3; op++ {
		sign[op] = 1 << 1
	}
	sign[0xeb] = 1 << 1
	sign[0xe8], sign[0xe9] = 1<<2|1<<4, 1<<2|1<<4
	sign[0x0f] = 1<<3 | 1<<5
	for op := 0x80; op <= 0x8f; op++ {
		jcc[op] = 1<<3 | 1<<5
	}
	return sign, jcc
}()

// int80 is the encoding of int 0x80.
var int80 = []byte{0xcd, 0x80}

// scanWitness returns the byte witnesses present in frame. Two are
// fixed byte strings, found by the standard library's vectorized
// search; backwardTransfer finds the third.
func scanWitness(frame []byte) uint8 {
	var found uint8
	if bytes.IndexByte(frame, 0xff) >= 0 {
		found |= witIndirect
	}
	if bytes.Index(frame, int80) >= 0 {
		found |= witSyscall
	}
	if backwardTransfer(frame) {
		found |= witBackward
	}
	return found
}

// msb holds the top bit of each byte of a word.
const msb = 0x8080808080808080

// backwardTransfer reports whether frame holds a relative transfer
// with a negative displacement. The displacement's sign byte has its
// top bit set, so the scan reads eight bytes at a time, visits only
// those bytes and looks back from each to the opcode that would make
// it a sign byte. Protocol text has almost none of them. The scan runs
// from the frame's end: an exploit frame puts its sled first, and a
// sled's high bytes complete no transfer, while the decoder, the
// encoded body and the return-address region behind it hold one within
// a few words.
func backwardTransfer(frame []byte) bool {
	i := len(frame) - 8
	for ; i >= 0; i -= 8 {
		for m := binary.LittleEndian.Uint64(frame[i:]) & msb; m != 0; m &= m - 1 {
			if signByte(frame, i+bits.TrailingZeros64(m)>>3) {
				return true
			}
		}
	}
	for q := i + 7; q >= 0; q-- { // the len(frame)%8 bytes at the start
		if frame[q] >= 0x80 && signByte(frame, q) {
			return true
		}
	}
	return false
}

// signByte reports whether the byte at q is the sign byte of a
// relative transfer whose opcode sits 1 to 5 bytes before it. Bytes
// before the frame read as 0, which is in no class.
func signByte(frame []byte, q int) bool {
	var pad [5]byte
	w := frame[max(q-5, 0):q]
	if len(w) < 5 {
		copy(pad[5-len(w):], w)
		w = pad[:]
	}
	w = w[:5] // w[5-d] is the byte d before q
	return signAt[w[4]]&(1<<1)|signAt[w[3]]&(1<<2)|signAt[w[2]]&jcc32[w[3]]&(1<<3)|
		signAt[w[1]]&(1<<4)|signAt[w[0]]&jcc32[w[1]]&(1<<5) != 0
}

// witness is what a frame must show for a template to match anywhere
// in it: the byte witnesses of its mandatory statements and the byte
// strings of its mandatory SFrameData statements.
type witness struct {
	bytes uint8
	data  [][]byte
}

// heldBy reports whether frame, whose byte witnesses are found
// (scanWitness), shows all of w.
func (w *witness) heldBy(frame []byte, found uint8) bool {
	if w.bytes&^found != 0 {
		return false
	}
	for _, d := range w.data {
		if !bytes.Contains(frame, d) {
			return false
		}
	}
	return true
}
