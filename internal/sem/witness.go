package sem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Byte witnesses. A statement of one of these kinds can match only an
// instruction whose bytes, at its offset in the frame, show its
// witness, so a frame that lacks one of a template's witnesses cannot
// match the template at any sweep offset, in either instruction order,
// and is not decoded for it.
// TestWitnessCoversShape derives the patterns from the decoder.
const (
	// witSyscall is CD 80: int 0x80 has no other encoding.
	witSyscall uint8 = 1 << iota
	// witIndirect is an FF whose next byte, read as a ModRM, has reg
	// field 2 or 4: every call or jmp through a register or memory
	// operand is FF /2 or FF /4, and the decoder reads FF /3 and FF /5
	// (the far forms) as BAD.
	witIndirect
	// witBackward is a relative transfer with a negative displacement
	// and a target in the frame: a rel8 opcode (70–7F, E0–E3, EB) with
	// a sign byte ≥ 80 at +1, E8/E9 with one at +4, or 0F 80–8F with
	// one at +5, whose target q+1+disp (q the sign byte's offset, the
	// transfer's last byte) is ≥ 0. A back edge the matcher takes is a backward
	// conditional branch to an instruction of the frame, or it closes a
	// loop in a threaded order that some backward jmp or call spliced:
	// ThreadOrderAppend visits addresses in increasing order unless a
	// jmp or call it follows goes backward to an in-frame target. Under
	// 66, E8, E9 and 0F 8x carry a rel16 whose target the CPU truncates
	// to 16 bits; the decoder gives it no frame target, so it is never
	// backward.
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

// rel8 is witBackward's class of one-byte opcodes that carry a rel8.
var rel8 = func() (t [256]bool) {
	for op := 0x70; op <= 0x7f; op++ {
		t[op] = true
	}
	for op := 0xe0; op <= 0xe3; op++ {
		t[op] = true
	}
	t[0xeb] = true
	return t
}()

// int80 is the encoding of int 0x80.
var int80 = []byte{0xcd, 0x80}

// scanWitness returns the byte witnesses present in frame. The
// standard library's vectorized search finds CD 80 and each FF;
// backwardTransfer finds the third.
func scanWitness(frame []byte) uint8 {
	var found uint8
	if indirectTransfer(frame) {
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

// indirectTransfer reports whether frame holds an FF followed by a
// ModRM byte with reg field 2 or 4.
func indirectTransfer(frame []byte) bool {
	for i := 0; ; {
		j := bytes.IndexByte(frame[i:], 0xff)
		if j < 0 {
			return false
		}
		i += j + 1
		if i < len(frame) && 1<<(frame[i]>>3&7)&(1<<2|1<<4) != 0 {
			return true
		}
	}
}

// msb holds the top bit of each byte of a word.
const msb = 0x8080808080808080

// backwardTransfer reports whether frame holds a relative transfer
// with a negative displacement and an in-frame target. The
// displacement's sign byte has its top bit set, so the scan reads eight
// bytes at a time, visits only those bytes and looks back from each to
// the opcode that would make it a sign byte. Protocol text has almost none of them. The scan runs
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
// relative transfer whose opcode sits 1, 4 or 5 bytes before it and
// whose target, q+1 plus the displacement ending at q, is in the frame.
// Bytes before the frame read as 0, which is in no class.
func signByte(frame []byte, q int) bool {
	var pad [5]byte
	w := frame[max(q-5, 0):q]
	if len(w) < 5 {
		copy(pad[5-len(w):], w)
		w = pad[:]
	}
	w = w[:5] // w[5-d] is the byte d before q
	if rel8[w[4]] && q+1+int(int8(frame[q])) >= 0 {
		return true
	}
	return (w[1] == 0xe8 || w[1] == 0xe9 || w[0] == 0x0f && w[1]&0xf0 == 0x80) &&
		q+1+int(int32(binary.LittleEndian.Uint32(frame[q-3:]))) >= 0
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
