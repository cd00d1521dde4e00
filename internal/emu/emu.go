// Package emu is a concrete IA-32 emulator for self-contained code
// frames: registers, arithmetic flags, a flat memory image, and a
// stack. It executes the instruction subset our shellcode corpus and
// polymorphic engines emit, and stops at system calls.
//
// What an instruction does to registers, flags, memory and the stack
// is the lifter's transfer function, ir.State.Step, run on a concrete
// state: the lifter and the emulator read IA-32 one way (DESIGN 3).
// This package owns control flow: fetching from the loaded image,
// jump and call targets, loop decisions, where execution stops (Stop,
// the errors) and Explore's merging of attempts.
//
// It has two roles. On the lineage hot path, sem.Sketch runs every
// detected frame from several entry points (Load, Explore) to recover
// the decoded tail a self-decrypting payload writes into itself — the
// symbol lineage tracing keys on. In the test suite it is dynamic
// validation: tests *execute* generated exploit samples — the sled,
// the getpc idiom, the obfuscated decoder loop — and verify that the
// decoded payload bytes materialize in memory and that execution
// reaches execve("/bin/sh") with the right register state, proving
// the workloads are real attacks, not byte soup that happens to match
// the templates.
package emu

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"semnids/internal/ir"
	"semnids/internal/x86"
)

// Errors reported by Explore and ResumeAfterSyscall. The last three
// come from the transfer function.
var (
	ErrStepLimit   = errors.New("emu: step limit exceeded")
	ErrBadFetch    = errors.New("emu: execution left the code image")
	ErrDecode      = errors.New("emu: undecodable instruction")
	ErrUnsupported = ir.ErrUnsupported
	ErrMemFault    = ir.ErrMemFault
	ErrStack       = ir.ErrStack

	// ErrMerged ends an Explore attempt that reached a state an
	// earlier attempt over the same image had already passed through
	// (see Explore); it ran no further.
	ErrMerged = errors.New("emu: attempt merged into an earlier one")
)

// StopKind says why execution stopped.
type StopKind int

const (
	StopSyscall StopKind = iota // int 0x80 reached
	StopRet                     // ret with an empty call stack... (ret to sentinel)
	StopEnd                     // execution ran past the end of the image
)

// Machine is one emulator instance. The code/data image occupies
// addresses [0, len(Mem)); the stack is a separate region growing down
// from StackBase. Mem is for reading: the machine fetches instructions
// from a decode of the loaded image wherever memory still holds the
// image's bytes, so memory is rewritten only by the running program or
// by Load and Explore.
type Machine struct {
	Mem   []byte // st.Mem
	EIP   int
	Steps int

	// MaxSteps bounds execution (default 1 << 20).
	MaxSteps int

	// st is the concrete state the transfer function steps: registers,
	// flags, memory and the stack, a list apart from Mem. st.Lo and
	// st.Hi bound the bytes stores have written since memory was last
	// made the image (Load, Explore).
	st ir.State

	// image is the copy Load took, which Explore restores and
	// AppendChanged compares against.
	image []byte

	// code decodes the image, each position at most once per Load;
	// fetch serves its instruction while memory under it is still the
	// image's, and decodes anything else into scratch (see fetch).
	code    x86.DecodeCache
	scratch x86.Inst

	// ex remembers the attempts Explore ran over the image, and
	// exploring says the running attempt still checks its states
	// against theirs (until its first store, see runFrom).
	ex        *explored
	exploring bool
}

// stackBase is the virtual ESP start; only relative motion matters.
const stackBase = 0x7fff0000

// New returns a machine loaded with a copy of image (see Load).
func New(image []byte) *Machine {
	m := &Machine{MaxSteps: 1 << 20}
	m.Load(image)
	return m
}

// restart puts registers, flags, stack and step count in the state
// Load leaves them in.
func (m *Machine) restart() {
	m.st.Reset(true)
	m.st.SetReg(x86.ESP, stackBase)
	m.EIP, m.Steps = 0, 0
}

// Load binds the machine to a copy of image for Explore, reusing its
// storage: registers, flags and stack cleared, step count zero,
// MaxSteps kept, no attempts explored yet, and a decode of the new
// image only — a recycled machine never serves an instruction decoded
// from an earlier image.
func (m *Machine) Load(image []byte) {
	m.st.Mem = append(m.st.Mem[:0], image...)
	m.Mem = m.st.Mem
	m.image = append(m.image[:0], image...)
	m.code.Reset(m.image)
	m.st.Lo, m.st.Hi = len(m.Mem), 0
	m.restart()
	if m.ex == nil {
		m.ex = new(explored)
	}
	m.ex.reset()
}

// Explore runs one attempt over the image Load bound: it restores
// memory, registers, flags, stack and step count to what Load left
// and executes from entry until a syscall, a terminal ret, the end of
// the image, or an error. Every attempt fetches from the same decode
// of the image.
//
// Attempts that reach the same state share their work. Until its
// first store, an attempt records each state it steps from — EIP, the
// eight registers, the five flags and the whole modeled stack; memory
// is the loaded image by construction. A later attempt that steps from
// a recorded state stops there with ErrMerged, provided the recording
// attempt ended without ErrStepLimit and the step budget left covers
// the steps it took from that state: execution is deterministic, so
// the merged attempt would have ended in the same stop, registers and
// memory as that attempt. Any other match to a recorded state (a
// store-free cycle, an attempt that hit the step limit, too little
// budget) only ends the checking for the rest of the attempt.
func (m *Machine) Explore(entry int) (Stop, error) {
	if m.ex == nil {
		panic("emu: Explore without Load")
	}
	if lo, hi := m.st.Lo, m.st.Hi; lo < hi {
		copy(m.Mem[lo:hi], m.image[lo:hi])
	}
	m.st.Lo, m.st.Hi = len(m.Mem), 0
	m.restart()
	x := m.ex
	x.cur, x.window = int32(len(x.ends)), exploreWindow
	m.exploring = true
	stop, err := m.runFrom(entry)
	m.exploring = false
	end := attemptEnd{steps: m.Steps, finished: !errors.Is(err, ErrStepLimit)}
	if err == ErrMerged {
		end.steps = x.mergedSteps
	}
	x.ends = append(x.ends, end)
	return stop, err
}

// AppendChanged appends to dst, in address order, every byte of memory
// that differs from the image Load bound: what the last Explore
// attempt rewrote in itself.
func (m *Machine) AppendChanged(dst []byte) []byte {
	for i := m.st.Lo; i < m.st.Hi; i++ {
		if c := m.Mem[i]; c != m.image[i] {
			dst = append(dst, c)
		}
	}
	return dst
}

// Bounds on what Explore records per loaded image: the state table's
// slots (a second state hashing to a taken slot is not recorded), the
// pre-store steps one attempt checks, and the stack words the recorded
// states hold together. Recording less only merges less.
const (
	exploreBits     = 12
	exploreWindow   = 1 << 12
	exploreMaxStack = 1 << 15
)

// explored is what Explore remembers about the attempts it ran over
// one loaded image.
type explored struct {
	gen    uint32                   // the current image's stamp in slots
	slots  [1 << exploreBits]uint64 // gen<<32 | 1+index into states, by state hash
	states []exploreState
	stack  []uint32 // the recorded states' stacks, back to back
	ends   []attemptEnd

	cur         int32 // the running attempt's index into ends
	window      int   // pre-store steps the running attempt may still check
	mergedSteps int   // the step count a merged attempt would have ended at
}

// exploreState is one recorded pre-store state and the attempt and
// step count that reached it.
type exploreState struct {
	eip, steps       int
	regs             [8]uint32
	flags            uint8
	attempt          int32
	stackAt, stackTo int32
}

// attemptEnd is how an Explore attempt ended: its final step count and
// whether it ended without ErrStepLimit.
type attemptEnd struct {
	steps    int
	finished bool
}

func (x *explored) reset() {
	if x.gen++; x.gen == 0 {
		clear(x.slots[:])
		x.gen = 1
	}
	x.states, x.stack, x.ends = x.states[:0], x.stack[:0], x.ends[:0]
}

// flagBits packs ZF, SF, CF, OF and DF.
func (m *Machine) flagBits() uint8 {
	var f uint8
	for i, b := range [5]bool{m.st.ZF, m.st.SF, m.st.CF, m.st.OF, m.st.DF} {
		if b {
			f |= 1 << i
		}
	}
	return f
}

// converged checks the state the running attempt is about to step
// from against the recorded ones and records it when its slot is free
// (Explore). It reports whether the attempt can stop, having set
// mergedSteps to the step count it would have ended at.
func (m *Machine) converged() bool {
	x := m.ex
	if x.window == 0 {
		m.exploring = false
		return false
	}
	x.window--
	flags := m.flagBits()
	h := uint64(uint32(m.EIP)) | uint64(flags)<<32
	regs := m.st.Regs.Values()
	for _, r := range regs {
		h = (h ^ uint64(r)) * 0x9e3779b97f4a7c15
	}
	slot := &x.slots[h>>(64-exploreBits)]
	if uint32(*slot>>32) != x.gen {
		if len(x.stack)+len(m.st.Stack) <= exploreMaxStack {
			at := len(x.stack)
			x.stack = append(x.stack, m.st.Stack...)
			x.states = append(x.states, exploreState{
				eip: m.EIP, steps: m.Steps, regs: *regs, flags: flags,
				attempt: x.cur, stackAt: int32(at), stackTo: int32(len(x.stack)),
			})
			*slot = uint64(x.gen)<<32 | uint64(len(x.states))
		}
		return false
	}
	st := &x.states[uint32(*slot)-1]
	if st.eip != m.EIP || st.regs != *regs || st.flags != flags ||
		!slices.Equal(x.stack[st.stackAt:st.stackTo], m.st.Stack) {
		return false // another state took the slot
	}
	// From here this attempt repeats the recorded one; whatever
	// decides below decides for every later step as well.
	m.exploring = false
	if st.attempt == x.cur {
		return false // a store-free cycle: it spins to the step limit
	}
	end := x.ends[st.attempt]
	if !end.finished {
		return false
	}
	steps := m.Steps + end.steps - st.steps
	if steps > m.MaxSteps {
		return false
	}
	x.mergedSteps = steps
	return true
}

// errImageBad is the fetch error for a position whose bytes are the
// image's and do not decode there.
var errImageBad = errors.New("the loaded image does not decode here")

// fetch returns the instruction at pos. It is the decode of the image
// exactly when memory under it still holds the image's bytes: the
// instruction's own bytes, or for an undecodable one every byte a
// decode may read. Only bytes inside the write hull [lo, hi) are
// compared, and a changed first byte rules the image's instruction out
// before the cache is asked (and decodes it). Anything else is decoded
// from memory into scratch, valid until the next fetch.
func (m *Machine) fetch(pos int) (*x86.Inst, error) {
	lo, hi := m.st.Lo, m.st.Hi
	if pos < lo || pos >= hi || m.Mem[pos] == m.image[pos] {
		in := m.code.At(pos)
		end := pos + int(in.Len)
		if in.Op == x86.BAD {
			end = min(pos+x86.MaxInstLen, len(m.Mem))
		}
		if from, to := max(pos, lo), min(end, hi); from >= to || bytes.Equal(m.Mem[from:to], m.image[from:to]) {
			if in.Op == x86.BAD {
				return nil, errImageBad
			}
			return in, nil
		}
	}
	if err := x86.DecodeInto(&m.scratch, m.Mem, pos); err != nil {
		return nil, err
	}
	return &m.scratch, nil
}

// Reg returns a register value (any width).
func (m *Machine) Reg(r x86.Reg) uint32 { return m.st.Reg(r) }

// SetReg writes a register at its width.
func (m *Machine) SetReg(r x86.Reg, v uint32) { m.st.SetReg(r, v) }

// StackTop returns the i-th dword from the top of the stack (0 = top).
func (m *Machine) StackTop(i int) (uint32, bool) { return m.st.StackTop(i) }

// Stop describes why an attempt returned.
type Stop struct {
	Kind   StopKind
	Sysnum uint32 // EAX at the syscall for StopSyscall
	EIP    int
}

// ResumeAfterSyscall continues past an int 0x80 stop, installing ret
// as the syscall's return value in EAX. This lets tests drive
// multi-syscall payloads (bind shells) with a faked kernel.
func (m *Machine) ResumeAfterSyscall(ret uint32) (Stop, error) {
	m.SetReg(x86.EAX, ret)
	return m.runFrom(m.EIP + 2) // int 0x80 is two bytes
}

func (m *Machine) runFrom(entry int) (Stop, error) {
	m.EIP = entry
	for {
		if m.exploring {
			if m.st.Lo < m.st.Hi {
				m.exploring = false // the attempt has stored
			} else if m.converged() {
				return Stop{}, ErrMerged
			}
		}
		if stop, done, err := m.beginStep(); done {
			return stop, err
		}
		in, err := m.fetch(m.EIP)
		if err != nil {
			return Stop{}, fmt.Errorf("%w at %#x: %v", ErrDecode, m.EIP, err)
		}
		if stop, done, err := m.execute(in); done {
			return stop, err
		}
	}
}

// beginStep counts a step and checks that EIP can be fetched from;
// done reports that the run is over before this step.
func (m *Machine) beginStep() (stop Stop, done bool, err error) {
	if m.Steps++; m.Steps > m.MaxSteps {
		return Stop{}, true, ErrStepLimit
	}
	if m.EIP == len(m.Mem) {
		return Stop{Kind: StopEnd, EIP: m.EIP}, true, nil
	}
	if m.EIP < 0 || m.EIP > len(m.Mem) {
		return Stop{}, true, fmt.Errorf("%w: eip=%#x", ErrBadFetch, m.EIP)
	}
	return Stop{}, false, nil
}

// execute runs the instruction fetched at EIP and moves EIP past it or
// to its jump target; done reports that the run ended on it.
func (m *Machine) execute(in *x86.Inst) (Stop, bool, error) {
	next := m.EIP + int(in.Len)
	stop, jump, err := m.exec(in)
	if err != nil {
		return Stop{}, true, fmt.Errorf("at %#x (%v): %w", m.EIP, in, err)
	}
	if stop != nil {
		stop.EIP = m.EIP
		return *stop, true, nil
	}
	if jump >= 0 {
		m.EIP = jump
	} else {
		m.EIP = next
	}
	return Stop{}, false, nil
}

// exec performs one instruction: its data effects through the
// transfer function, then its control flow. jump < 0 means fall
// through.
func (m *Machine) exec(in *x86.Inst) (stop *Stop, jump int, err error) {
	jump = -1
	switch in.Op {
	case x86.INT:
		if imm := in.Args[0].Imm; imm != 0x80 {
			return nil, -1, fmt.Errorf("%w: int %#x", ErrUnsupported, imm)
		}
		return &Stop{Kind: StopSyscall, Sysnum: m.Reg(x86.EAX)}, -1, nil
	case x86.INT3, x86.INTO, x86.HLT:
		return &Stop{Kind: StopRet}, -1, nil
	case x86.RET:
		ret, ok := m.st.StackTop(0)
		if !ok {
			return &Stop{Kind: StopRet}, -1, nil
		}
		jump = int(ret)
	}
	if err := m.st.Step(in); err != nil {
		return nil, -1, err
	}
	switch in.Op {
	case x86.JMP, x86.CALL:
		if in.HasTarget {
			return nil, int(in.Target), nil
		}
		v, err := m.st.Value(&in.Args[0])
		return nil, int(v), err
	case x86.JCC:
		if m.st.Cond(in.Cond) {
			jump = int(in.Target)
		}
	case x86.LOOP, x86.LOOPE, x86.LOOPNE:
		if m.Reg(x86.ECX) != 0 && (in.Op == x86.LOOP || m.st.ZF == (in.Op == x86.LOOPE)) {
			jump = int(in.Target)
		}
	case x86.JECXZ:
		if m.Reg(x86.ECX) == 0 {
			jump = int(in.Target)
		}
	}
	return nil, jump, nil
}
