package x86

// Opcode is a decoded instruction mnemonic. Condition codes for Jcc and
// SETcc are carried separately in Inst.Cond.
type Opcode uint8

const (
	BAD Opcode = iota // undecodable byte; Inst.Args[0] holds the raw byte as Imm

	MOV
	MOVZX
	MOVSX
	LEA
	XCHG
	PUSH
	POP
	PUSHAD
	POPAD
	PUSHFD
	POPFD

	ADD
	ADC
	SUB
	SBB
	AND
	OR
	XOR
	CMP
	TEST
	NOT
	NEG
	INC
	DEC
	MUL
	IMUL
	DIV
	IDIV
	SHL
	SHR
	SAR
	ROL
	ROR
	RCL
	RCR
	BSWAP

	NOP
	INT
	INT3
	INTO
	JMP
	JCC
	CALL
	RET
	LEAVE
	LOOP
	LOOPE
	LOOPNE
	JECXZ

	CLD
	STD
	CLC
	STC
	CMC
	CLI
	STI
	SAHF
	LAHF
	SETCC

	CWDE
	CDQ
	XLAT
	SALC
	HLT
	WAIT
	DAA
	DAS
	AAA
	AAS
	AAM
	AAD

	MOVSB
	MOVSD
	CMPSB
	CMPSD
	STOSB
	STOSD
	LODSB
	LODSD
	SCASB
	SCASD

	CPUID
	RDTSC

	CMOVCC
	BT
	BTS
	BTR
	BTC
	SHLD
	SHRD
	CMPXCHG
	XADD

	numOpcodes
)

var opNames = [...]string{
	BAD: "(bad)",
	MOV: "mov", MOVZX: "movzx", MOVSX: "movsx", LEA: "lea", XCHG: "xchg",
	PUSH: "push", POP: "pop", PUSHAD: "pushad", POPAD: "popad",
	PUSHFD: "pushfd", POPFD: "popfd",
	ADD: "add", ADC: "adc", SUB: "sub", SBB: "sbb", AND: "and", OR: "or",
	XOR: "xor", CMP: "cmp", TEST: "test", NOT: "not", NEG: "neg",
	INC: "inc", DEC: "dec", MUL: "mul", IMUL: "imul", DIV: "div", IDIV: "idiv",
	SHL: "shl", SHR: "shr", SAR: "sar", ROL: "rol", ROR: "ror",
	RCL: "rcl", RCR: "rcr", BSWAP: "bswap",
	NOP: "nop", INT: "int", INT3: "int3", INTO: "into",
	JMP: "jmp", JCC: "j", CALL: "call", RET: "ret", LEAVE: "leave",
	LOOP: "loop", LOOPE: "loope", LOOPNE: "loopne", JECXZ: "jecxz",
	CLD: "cld", STD: "std", CLC: "clc", STC: "stc", CMC: "cmc",
	CLI: "cli", STI: "sti", SAHF: "sahf", LAHF: "lahf", SETCC: "set",
	CWDE: "cwde", CDQ: "cdq", XLAT: "xlat", SALC: "salc", HLT: "hlt",
	WAIT: "wait", DAA: "daa", DAS: "das", AAA: "aaa", AAS: "aas",
	AAM: "aam", AAD: "aad",
	MOVSB: "movsb", MOVSD: "movsd", CMPSB: "cmpsb", CMPSD: "cmpsd",
	STOSB: "stosb", STOSD: "stosd", LODSB: "lodsb", LODSD: "lodsd",
	SCASB: "scasb", SCASD: "scasd",
	CPUID: "cpuid", RDTSC: "rdtsc",
	CMOVCC: "cmov", BT: "bt", BTS: "bts", BTR: "btr", BTC: "btc",
	SHLD: "shld", SHRD: "shrd", CMPXCHG: "cmpxchg", XADD: "xadd",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// Cond is an x86 condition code (the low nibble of a Jcc opcode byte).
type Cond uint8

const (
	CondO  Cond = 0x0
	CondNO Cond = 0x1
	CondB  Cond = 0x2
	CondAE Cond = 0x3
	CondE  Cond = 0x4
	CondNE Cond = 0x5
	CondBE Cond = 0x6
	CondA  Cond = 0x7
	CondS  Cond = 0x8
	CondNS Cond = 0x9
	CondP  Cond = 0xa
	CondNP Cond = 0xb
	CondL  Cond = 0xc
	CondGE Cond = 0xd
	CondLE Cond = 0xe
	CondG  Cond = 0xf
)

var condNames = [...]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return "?"
}

// IsCondBranch reports whether the opcode is a conditional control
// transfer (the fall-through path also remains live).
func (op Opcode) IsCondBranch() bool {
	switch op {
	case JCC, LOOP, LOOPE, LOOPNE, JECXZ:
		return true
	}
	return false
}

// IsString reports whether the opcode is a string instruction (movs,
// cmps, stos, lods, scas; one contiguous block above), which a rep or
// repne prefix repeats ECX times.
func (op Opcode) IsString() bool { return op >= MOVSB && op <= SCASD }

// BreaksRun reports whether the opcode ends a flow-unbroken run: an
// undecodable byte (BAD), ret or hlt, past which execution never
// reaches the next instruction of either order. The matcher accepts
// no template whose statements, or whose loop, span one, and the
// sweep-start viability check splits its runs at the same opcodes.
func (op Opcode) BreaksRun() bool { return op == BAD || op == RET || op == HLT }
