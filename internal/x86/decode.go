package x86

import (
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned when the byte stream ends in the middle of
// an instruction.
var ErrTruncated = errors.New("x86: truncated instruction")

// ErrBadOpcode is returned for byte sequences that this decoder does
// not recognize as an instruction.
var ErrBadOpcode = errors.New("x86: unrecognized opcode")

// Bad-opcode errors are precomputed: a linear sweep over junk-heavy
// frames hits undecodable bytes constantly and immediately converts
// the error into a BAD marker instruction, so allocating a fresh
// wrapped error per byte would put fmt.Errorf on the hottest path in
// the decoder.
var (
	badOpcodeErrs   [256]error // "unrecognized opcode: 0xNN"
	badOpcode0FErrs [256]error // "unrecognized opcode: 0x0f 0xNN"
	badOpcodeBAErrs [8]error   // "unrecognized opcode: 0x0f 0xba /N"
)

func init() {
	for i := range badOpcodeErrs {
		badOpcodeErrs[i] = fmt.Errorf("%w: 0x%02x", ErrBadOpcode, i)
		badOpcode0FErrs[i] = fmt.Errorf("%w: 0x0f 0x%02x", ErrBadOpcode, i)
	}
	for i := range badOpcodeBAErrs {
		badOpcodeBAErrs[i] = fmt.Errorf("%w: 0x0f 0xba /%d", ErrBadOpcode, i)
	}
}

// MaxInstLen is the longest instruction this decoder produces: 13
// prefix bytes (the 14th byte must be the opcode), then opcode, ModRM,
// SIB, disp32 and imm32. Nothing that starts more than MaxInstLen-1
// bytes before a position can contain it.
const MaxInstLen = 13 + 11

// decoder fills one Inst in place. The instruction under construction
// is written through in, so nothing larger than an Operand (16 bytes)
// is ever returned by value on the decode path.
type decoder struct {
	b   []byte
	pos int
	in  *Inst

	opSize   int // 4 or 2 (0x66 prefix)
	addrSize int // 4 or 2 (0x67 prefix)
	seg      Seg
}

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, ErrTruncated
	}
	v := d.b[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.b) {
		return 0, ErrTruncated
	}
	v := uint16(d.b[d.pos]) | uint16(d.b[d.pos+1])<<8
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.b) {
		return 0, ErrTruncated
	}
	v := uint32(d.b[d.pos]) | uint32(d.b[d.pos+1])<<8 |
		uint32(d.b[d.pos+2])<<16 | uint32(d.b[d.pos+3])<<24
	d.pos += 4
	return v, nil
}

// immBySize reads an immediate of the given size, sign-extending to
// 32 bits.
func (d *decoder) immBySize(size int) (int32, error) {
	switch size {
	case 1:
		v, err := d.u8()
		return int32(int8(v)), err
	case 2:
		v, err := d.u16()
		return int32(int16(v)), err
	default:
		v, err := d.u32()
		return int32(v), err
	}
}

// imm reads a sign-extended immediate of the given size into operand
// slot i.
func (d *decoder) imm(i, size int) error {
	v, err := d.immBySize(size)
	d.in.Args[i] = Operand{Kind: KindImm, Imm: v}
	return err
}

// immU8 reads a zero-extended byte immediate into operand slot 0.
func (d *decoder) immU8(op Opcode) error {
	v, err := d.u8()
	d.in.Op = op
	d.in.Args[0] = Operand{Kind: KindImm, Imm: int32(v)}
	return err
}

// modRM decodes a ModRM byte (plus SIB/displacement) into operand slot
// i as the r/m operand with the given access size, returning the `reg`
// field.
func (d *decoder) modRM(i, size int) (regField byte, err error) {
	m, err := d.u8()
	if err != nil {
		return 0, err
	}
	mod := m >> 6
	regField = (m >> 3) & 7
	rmBits := m & 7

	rm := &d.in.Args[i]
	if mod == 3 {
		*rm = RegOp(regBySize(rmBits, size))
		return regField, nil
	}
	*rm = Operand{Kind: KindMem, Seg: d.seg, Mem: MemRef{Size: uint8(size), Scale: 1}}
	mem := &rm.Mem
	if d.addrSize == 2 {
		return regField, d.modRM16(mod, rmBits, mem)
	}

	switch {
	case rmBits == 4: // SIB follows
		sib, err := d.u8()
		if err != nil {
			return 0, err
		}
		scale := sib >> 6
		index := (sib >> 3) & 7
		base := sib & 7
		if index != 4 {
			mem.Index = reg32(index)
			mem.Scale = 1 << scale
		}
		if base == 5 && mod == 0 {
			disp, err := d.u32()
			if err != nil {
				return 0, err
			}
			mem.Disp = int32(disp)
		} else {
			mem.Base = reg32(base)
		}
	case rmBits == 5 && mod == 0: // disp32 absolute
		disp, err := d.u32()
		if err != nil {
			return 0, err
		}
		mem.Disp = int32(disp)
	default:
		mem.Base = reg32(rmBits)
	}
	switch mod {
	case 1:
		v, err := d.u8()
		if err != nil {
			return 0, err
		}
		mem.Disp += int32(int8(v))
	case 2:
		v, err := d.u32()
		if err != nil {
			return 0, err
		}
		mem.Disp += int32(v)
	}
	return regField, nil
}

// pairs16 are the base/index pairs of the 16-bit addressing forms.
var pairs16 = [8][2]Reg{
	{BX, SI}, {BX, DI}, {BP, SI}, {BP, DI},
	{SI, RegNone}, {DI, RegNone}, {BP, RegNone}, {BX, RegNone},
}

// modRM16 decodes the 16-bit addressing forms selected by a 0x67 prefix.
func (d *decoder) modRM16(mod, rmBits byte, mem *MemRef) error {
	if mod == 0 && rmBits == 6 {
		v, err := d.u16()
		mem.Disp = int32(int16(v))
		return err
	}
	mem.Base = pairs16[rmBits][0]
	mem.Index = pairs16[rmBits][1]
	switch mod {
	case 1:
		v, err := d.u8()
		mem.Disp = int32(int8(v))
		return err
	case 2:
		v, err := d.u16()
		mem.Disp = int32(int16(v))
		return err
	}
	return nil
}

// Decode decodes the single instruction at b[offset:], where offset is
// also used as the instruction address for relative branch targets.
func Decode(b []byte, offset int) (Inst, error) {
	var in Inst
	if err := DecodeInto(&in, b, offset); err != nil {
		return Inst{}, err
	}
	return in, nil
}

// DecodeInto is Decode filling caller-owned storage: the instruction
// is built in *in, which is how DecodeCache decodes straight into its
// store and the emulator into its scratch instruction. On error *in is
// unspecified.
func DecodeInto(in *Inst, b []byte, offset int) error {
	if offset < 0 || offset >= len(b) {
		return ErrTruncated
	}
	*in = Inst{}
	d := decoder{b: b, pos: offset, in: in, opSize: 4, addrSize: 4}
	if err := d.decodeOne(); err != nil {
		return err
	}
	in.Addr = int32(offset)
	in.Len = uint8(d.pos - offset)
	return nil
}

// badInst is the representation of an undecodable byte: a single-byte
// BAD instruction carrying the raw byte.
func badInst(pos int, raw byte) Inst {
	return Inst{Addr: int32(pos), Len: 1, Op: BAD, Args: [3]Operand{{Kind: KindImm, Imm: int32(raw)}}}
}

func (d *decoder) decodeOne() error {
	in := d.in
	// Consume prefixes (bounded so a run of 0x66 bytes cannot loop forever).
	for i := 0; i < 14; i++ {
		op, err := d.u8()
		if err != nil {
			return err
		}
		switch op {
		case 0x66:
			d.opSize = 2
		case 0x67:
			d.addrSize = 2
		case 0xf0:
			in.Lock = true
		case 0xf2:
			in.Repne = true
		case 0xf3:
			in.Rep = true
		case 0x26:
			d.seg = SegES
		case 0x2e:
			d.seg = SegCS
		case 0x36:
			d.seg = SegSS
		case 0x3e:
			d.seg = SegDS
		case 0x64:
			d.seg = SegFS
		case 0x65:
			d.seg = SegGS
		default:
			in.OpSize = uint8(d.opSize)
			return d.opcode(op)
		}
	}
	return ErrBadOpcode
}

// The operand-shape helpers below each decode one of the recurring
// encodings into d.in. rm is always the ModRM r/m operand, reg the
// register named by the ModRM reg field.

// op0 is an instruction without operands.
func (d *decoder) op0(op Opcode) error {
	d.in.Op = op
	return nil
}

// opReg is op reg, with the register number in the opcode byte.
func (d *decoder) opReg(op Opcode, r Reg) error {
	d.in.Op = op
	d.in.Args[0] = RegOp(r)
	return nil
}

// opRM is op r/m.
func (d *decoder) opRM(op Opcode, size int) error {
	d.in.Op = op
	_, err := d.modRM(0, size)
	return err
}

// opRMReg is op r/m, reg with both at one size.
func (d *decoder) opRMReg(op Opcode, size int) error {
	d.in.Op = op
	reg, err := d.modRM(0, size)
	d.in.Args[1] = RegOp(regBySize(reg, size))
	return err
}

// opRegRM is op reg, r/m.
func (d *decoder) opRegRM(op Opcode, regSize, rmSize int) error {
	d.in.Op = op
	reg, err := d.modRM(1, rmSize)
	d.in.Args[0] = RegOp(regBySize(reg, regSize))
	return err
}

// opRegImm is op reg, imm.
func (d *decoder) opRegImm(op Opcode, r Reg, immSize int) error {
	d.in.Op = op
	d.in.Args[0] = RegOp(r)
	return d.imm(1, immSize)
}

// opRMImm is op r/m, imm.
func (d *decoder) opRMImm(op Opcode, rmSize, immSize int) error {
	d.in.Op = op
	if _, err := d.modRM(0, rmSize); err != nil {
		return err
	}
	return d.imm(1, immSize)
}

// opGrp1Imm is op r/m, imm with the ALU opcode selected by the ModRM
// reg field.
func (d *decoder) opGrp1Imm(rmSize, immSize int) error {
	reg, err := d.modRM(0, rmSize)
	if err != nil {
		return err
	}
	d.in.Op = aluOps[reg]
	return d.imm(1, immSize)
}

// rel is a relative branch with a displacement of the given size. The
// target is resolved against d.pos once the displacement has been read,
// i.e. against the next instruction. Under 66 a CPU truncates the new
// EIP to 16 bits, which names no frame offset, so the branch gets the
// saturated out-of-frame target a rel32 past the frame gets, whatever
// its displacement size.
func (d *decoder) rel(op Opcode, cond Cond, size int) error {
	disp, err := d.immBySize(size)
	if err != nil {
		return err
	}
	d.in.Op, d.in.Cond, d.in.HasTarget = op, cond, true
	d.in.Target = int32(min(d.pos+int(disp), math.MaxInt32))
	if d.opSize == 2 {
		d.in.Target = math.MaxInt32
	}
	return nil
}

// relV is a relative branch with an operand-size displacement: a rel32,
// or a rel16 under 66.
func (d *decoder) relV(op Opcode, cond Cond) error {
	return d.rel(op, cond, d.opSize)
}

// moffs is mov between the accumulator and an absolute address;
// memSlot is the operand slot of the memory side.
func (d *decoder) moffs(memSlot, size int) error {
	v, err := d.u32()
	d.in.Op = MOV
	d.in.Args[memSlot] = Operand{Kind: KindMem, Seg: d.seg,
		Mem: MemRef{Disp: int32(v), Size: uint8(size), Scale: 1}}
	d.in.Args[1-memSlot] = RegOp(regBySize(0, size))
	return err
}

// aluOps maps the one-byte ALU opcode block base (op>>3), and the
// grp1 ModRM reg field, to mnemonics.
var aluOps = [8]Opcode{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}

// shiftOps is the shift group, indexed by the ModRM reg field.
var shiftOps = [8]Opcode{ROL, ROR, RCL, RCR, SHL, SHR, SHL, SAR}

func (d *decoder) opcode(op byte) error {
	sz := d.opSize

	// One-byte ALU block: 00-3F except the gap opcodes handled below.
	if op < 0x40 {
		mn := aluOps[op>>3]
		switch op & 7 {
		case 0: // r/m8, r8
			return d.opRMReg(mn, 1)
		case 1: // r/m32, r32
			return d.opRMReg(mn, sz)
		case 2: // r8, r/m8
			return d.opRegRM(mn, 1, 1)
		case 3: // r32, r/m32
			return d.opRegRM(mn, sz, sz)
		case 4: // AL, imm8
			return d.opRegImm(mn, AL, 1)
		case 5: // eAX, imm32
			return d.opRegImm(mn, regBySize(0, sz), sz)
		}
		// 0x06/0x07 etc are push/pop segment registers, plus 0x0F
		// (two-byte escape), 0x27 DAA, 0x2F DAS, 0x37 AAA, 0x3F AAS.
		switch op {
		case 0x0f:
			return d.twoByte()
		case 0x27:
			return d.op0(DAA)
		case 0x2f:
			return d.op0(DAS)
		case 0x37:
			return d.op0(AAA)
		case 0x3f:
			return d.op0(AAS)
		case 0x06, 0x0e, 0x16, 0x1e: // push seg
			d.in.Op, d.in.Args[0] = PUSH, Operand{Kind: KindImm, Imm: int32(op)}
			return nil
		case 0x07, 0x17, 0x1f: // pop seg
			d.in.Op, d.in.Args[0] = POP, Operand{Kind: KindImm, Imm: int32(op)}
			return nil
		}
		return ErrBadOpcode
	}

	switch {
	case op <= 0x47:
		return d.opReg(INC, regBySize(op-0x40, sz))
	case op <= 0x4f:
		return d.opReg(DEC, regBySize(op-0x48, sz))
	case op <= 0x57:
		return d.opReg(PUSH, regBySize(op-0x50, sz))
	case op <= 0x5f:
		return d.opReg(POP, regBySize(op-0x58, sz))
	case op >= 0x70 && op <= 0x7f:
		return d.rel(JCC, Cond(op&0xf), 1)
	case op >= 0x91 && op <= 0x97:
		d.in.Args[1] = RegOp(regBySize(op-0x90, sz))
		return d.opReg(XCHG, regBySize(0, sz))
	case op >= 0xb0 && op <= 0xb7:
		return d.opRegImm(MOV, reg8(op-0xb0), 1)
	case op >= 0xb8 && op <= 0xbf:
		return d.opRegImm(MOV, regBySize(op-0xb8, sz), sz)
	}

	switch op {
	case 0x60:
		return d.op0(PUSHAD)
	case 0x61:
		return d.op0(POPAD)
	case 0x68:
		d.in.Op = PUSH
		return d.imm(0, sz)
	case 0x6a:
		d.in.Op = PUSH
		return d.imm(0, 1)
	case 0x69: // imul r32, r/m32, imm32
		if err := d.opRegRM(IMUL, sz, sz); err != nil {
			return err
		}
		return d.imm(2, sz)
	case 0x6b: // imul r32, r/m32, imm8
		if err := d.opRegRM(IMUL, sz, sz); err != nil {
			return err
		}
		return d.imm(2, 1)

	case 0x80, 0x82: // grp1 r/m8, imm8
		return d.opGrp1Imm(1, 1)
	case 0x81: // grp1 r/m32, imm32
		return d.opGrp1Imm(sz, sz)
	case 0x83: // grp1 r/m32, imm8 (sign-extended)
		return d.opGrp1Imm(sz, 1)

	case 0x84:
		return d.opRMReg(TEST, 1)
	case 0x85:
		return d.opRMReg(TEST, sz)
	case 0x86:
		return d.opRMReg(XCHG, 1)
	case 0x87:
		return d.opRMReg(XCHG, sz)
	case 0x88:
		return d.opRMReg(MOV, 1)
	case 0x89:
		return d.opRMReg(MOV, sz)
	case 0x8a:
		return d.opRegRM(MOV, 1, 1)
	case 0x8b:
		return d.opRegRM(MOV, sz, sz)
	case 0x8d:
		if err := d.opRegRM(LEA, sz, 0); err != nil {
			return err
		}
		if d.in.Args[1].Kind != KindMem {
			return ErrBadOpcode
		}
		return nil
	case 0x8f:
		return d.opRM(POP, sz)

	case 0x90:
		return d.op0(NOP)
	case 0x98:
		return d.op0(CWDE)
	case 0x99:
		return d.op0(CDQ)
	case 0x9b:
		return d.op0(WAIT)
	case 0x9c:
		return d.op0(PUSHFD)
	case 0x9d:
		return d.op0(POPFD)
	case 0x9e:
		return d.op0(SAHF)
	case 0x9f:
		return d.op0(LAHF)

	case 0xa0: // mov al, moffs8
		return d.moffs(1, 1)
	case 0xa1:
		return d.moffs(1, sz)
	case 0xa2:
		return d.moffs(0, 1)
	case 0xa3:
		return d.moffs(0, sz)

	case 0xa4:
		return d.op0(MOVSB)
	case 0xa5:
		return d.op0(MOVSD)
	case 0xa6:
		return d.op0(CMPSB)
	case 0xa7:
		return d.op0(CMPSD)
	case 0xa8:
		return d.opRegImm(TEST, AL, 1)
	case 0xa9:
		return d.opRegImm(TEST, regBySize(0, sz), sz)
	case 0xaa:
		return d.op0(STOSB)
	case 0xab:
		return d.op0(STOSD)
	case 0xac:
		return d.op0(LODSB)
	case 0xad:
		return d.op0(LODSD)
	case 0xae:
		return d.op0(SCASB)
	case 0xaf:
		return d.op0(SCASD)

	case 0xc0, 0xc1, 0xd0, 0xd1, 0xd2, 0xd3:
		size := 1
		if op&1 == 1 {
			size = sz
		}
		reg, err := d.modRM(0, size)
		if err != nil {
			return err
		}
		d.in.Op = shiftOps[reg]
		switch op {
		case 0xc0, 0xc1:
			return d.imm(1, 1)
		case 0xd0, 0xd1:
			d.in.Args[1] = Operand{Kind: KindImm, Imm: 1}
		default:
			d.in.Args[1] = RegOp(CL)
		}
		return nil

	case 0xc2:
		v, err := d.u16()
		d.in.Op, d.in.Args[0] = RET, Operand{Kind: KindImm, Imm: int32(v)}
		return err
	case 0xc3:
		return d.op0(RET)
	case 0xc6:
		return d.opRMImm(MOV, 1, 1)
	case 0xc7:
		return d.opRMImm(MOV, sz, sz)
	case 0xc9:
		return d.op0(LEAVE)
	case 0xcc:
		return d.op0(INT3)
	case 0xcd:
		return d.immU8(INT)
	case 0xce:
		return d.op0(INTO)

	case 0xd4:
		return d.immU8(AAM)
	case 0xd5:
		return d.immU8(AAD)
	case 0xd6:
		return d.op0(SALC)
	case 0xd7:
		return d.op0(XLAT)

	case 0xe0:
		return d.rel(LOOPNE, 0, 1)
	case 0xe1:
		return d.rel(LOOPE, 0, 1)
	case 0xe2:
		return d.rel(LOOP, 0, 1)
	case 0xe3:
		return d.rel(JECXZ, 0, 1)
	case 0xe8:
		return d.relV(CALL, 0)
	case 0xe9:
		return d.relV(JMP, 0)
	case 0xeb:
		return d.rel(JMP, 0, 1)

	case 0xf4:
		return d.op0(HLT)
	case 0xf5:
		return d.op0(CMC)
	case 0xf8:
		return d.op0(CLC)
	case 0xf9:
		return d.op0(STC)
	case 0xfa:
		return d.op0(CLI)
	case 0xfb:
		return d.op0(STI)
	case 0xfc:
		return d.op0(CLD)
	case 0xfd:
		return d.op0(STD)

	case 0xf6, 0xf7: // grp3
		size := 1
		if op == 0xf7 {
			size = sz
		}
		reg, err := d.modRM(0, size)
		if err != nil {
			return err
		}
		d.in.Op = grp3Ops[reg]
		if reg < 2 { // TEST r/m, imm
			return d.imm(1, size)
		}
		return nil

	case 0xfe: // grp4
		reg, err := d.modRM(0, 1)
		if err != nil {
			return err
		}
		if reg > 1 {
			return ErrBadOpcode
		}
		d.in.Op = grp5Ops[reg]
		return nil
	case 0xff: // grp5
		reg, err := d.modRM(0, sz)
		if err != nil {
			return err
		}
		if grp5Ops[reg] == BAD {
			return ErrBadOpcode
		}
		d.in.Op = grp5Ops[reg]
		return nil
	}

	return badOpcodeErrs[op]
}

// ModRM groups indexed by the reg field; BAD marks an unassigned grp5
// slot, and grp8 (0F BA) starts at reg field 4.
var (
	grp3Ops = [8]Opcode{TEST, TEST, NOT, NEG, MUL, IMUL, DIV, IDIV}
	grp5Ops = [8]Opcode{INC, DEC, CALL, BAD, JMP, BAD, PUSH, BAD}
	grp8Ops = [4]Opcode{BT, BTS, BTR, BTC}
)

func (d *decoder) twoByte() error {
	op, err := d.u8()
	if err != nil {
		return err
	}
	sz := d.opSize
	switch {
	case op >= 0x40 && op <= 0x4f: // cmovcc r32, r/m32
		d.in.Cond = Cond(op & 0xf)
		return d.opRegRM(CMOVCC, sz, sz)
	case op >= 0x80 && op <= 0x8f:
		return d.relV(JCC, Cond(op&0xf))
	case op >= 0x90 && op <= 0x9f:
		d.in.Cond = Cond(op & 0xf)
		return d.opRM(SETCC, 1)
	case op >= 0xc8 && op <= 0xcf:
		return d.opReg(BSWAP, reg32(op-0xc8))
	}
	switch op {
	case 0xa2:
		return d.op0(CPUID)
	case 0x31:
		return d.op0(RDTSC)
	case 0xaf: // imul r32, r/m32
		return d.opRegRM(IMUL, sz, sz)
	case 0xb6: // movzx r32, r/m8
		return d.opRegRM(MOVZX, sz, 1)
	case 0xb7: // movzx r32, r/m16
		return d.opRegRM(MOVZX, sz, 2)
	case 0xbe:
		return d.opRegRM(MOVSX, sz, 1)
	case 0xbf:
		return d.opRegRM(MOVSX, sz, 2)

	case 0xa3: // bt/bts/btr/btc r/m32, r32
		return d.opRMReg(BT, sz)
	case 0xab:
		return d.opRMReg(BTS, sz)
	case 0xb3:
		return d.opRMReg(BTR, sz)
	case 0xbb:
		return d.opRMReg(BTC, sz)
	case 0xba: // grp8: bt/bts/btr/btc r/m32, imm8
		reg, err := d.modRM(0, sz)
		if err != nil {
			return err
		}
		if reg < 4 {
			return badOpcodeBAErrs[reg]
		}
		d.in.Op = grp8Ops[reg-4]
		return d.imm(1, 1)

	case 0xa4: // shld/shrd r/m32, r32, imm8
		if err := d.opRMReg(SHLD, sz); err != nil {
			return err
		}
		return d.imm(2, 1)
	case 0xac:
		if err := d.opRMReg(SHRD, sz); err != nil {
			return err
		}
		return d.imm(2, 1)
	case 0xa5: // shld/shrd r/m32, r32, cl
		d.in.Args[2] = RegOp(CL)
		return d.opRMReg(SHLD, sz)
	case 0xad:
		d.in.Args[2] = RegOp(CL)
		return d.opRMReg(SHRD, sz)

	case 0xb0: // cmpxchg r/m8, r8
		return d.opRMReg(CMPXCHG, 1)
	case 0xb1: // cmpxchg r/m32, r32
		return d.opRMReg(CMPXCHG, sz)
	case 0xc0: // xadd r/m8, r8
		return d.opRMReg(XADD, 1)
	case 0xc1: // xadd r/m32, r32
		return d.opRMReg(XADD, sz)
	}
	return badOpcode0FErrs[op]
}
