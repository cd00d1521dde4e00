package emu

import (
	"bytes"
	"errors"
	"testing"

	"semnids/internal/polymorph"
	"semnids/internal/shellcode"
	"semnids/internal/x86"
)

// refRun is the reference the fetch memo is held to: the same step
// loop as runFrom, decoding the instruction at EIP from memory on every
// step, as the emulator did before it memoized.
func refRun(m *Machine, entry int) (Stop, error) {
	m.EIP = entry
	for {
		if stop, done, err := m.beginStep(); done {
			return stop, err
		}
		in, err := x86.Decode(m.Mem, m.EIP)
		if err != nil {
			return Stop{}, ErrDecode
		}
		if stop, done, err := m.execute(&in); done {
			return stop, err
		}
	}
}

// errClass maps a run error onto the package's sentinel it wraps.
func errClass(err error) error {
	for _, class := range []error{ErrStepLimit, ErrBadFetch, ErrDecode, ErrUnsupported, ErrMemFault, ErrStack} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// sameOutcome compares everything a run leaves behind.
func sameOutcome(t *testing.T, what string, got, want *Machine, gs, ws Stop, ge, we error) {
	t.Helper()
	if errClass(ge) != errClass(we) {
		t.Fatalf("%s: error %v, reference %v", what, ge, we)
	}
	if gs != ws {
		t.Fatalf("%s: stop %+v, reference %+v", what, gs, ws)
	}
	if got.Steps != want.Steps || got.EIP != want.EIP {
		t.Fatalf("%s: steps/eip %d/%#x, reference %d/%#x", what, got.Steps, got.EIP, want.Steps, want.EIP)
	}
	if got.Regs != want.Regs {
		t.Fatalf("%s: regs %x, reference %x", what, got.Regs, want.Regs)
	}
	gf := [5]bool{got.ZF, got.SF, got.CF, got.OF, got.DF}
	wf := [5]bool{want.ZF, want.SF, want.CF, want.OF, want.DF}
	if gf != wf {
		t.Fatalf("%s: flags %v, reference %v", what, gf, wf)
	}
	if !bytes.Equal(got.Mem, want.Mem) {
		t.Fatalf("%s: memory differs from the reference", what)
	}
	if len(got.stack) != len(want.stack) {
		t.Fatalf("%s: stack depth %d, reference %d", what, len(got.stack), len(want.stack))
	}
	for i := range got.stack {
		if got.stack[i] != want.stack[i] {
			t.Fatalf("%s: stack[%d] %#x, reference %#x", what, i, got.stack[i], want.stack[i])
		}
	}
}

// diffRun executes image from entry three ways — through the fetch
// memo on a fresh machine, through the memo on a machine Reset after a
// run from another entry (the way sem.Sketch reuses one machine), and
// through refRun — and requires identical memory, registers, flags,
// step count and stop or error class, continuing through up to eight
// faked system calls.
func diffRun(t *testing.T, image []byte, entry, maxSteps int) {
	t.Helper()
	ref := New(image)
	fresh := New(image)
	reused := New(image)
	ref.MaxSteps, fresh.MaxSteps, reused.MaxSteps = maxSteps, maxSteps, maxSteps
	reused.Run(entry + 1)
	reused.Reset(image)

	ws, we := refRun(ref, entry)
	fs, fe := fresh.Run(entry)
	rs, re := reused.Run(entry)
	for sys := 0; ; sys++ {
		sameOutcome(t, "fresh machine", fresh, ref, fs, ws, fe, we)
		sameOutcome(t, "reset machine", reused, ref, rs, ws, re, we)
		if we != nil || ws.Kind != StopSyscall || sys == 8 {
			return
		}
		ref.SetReg(x86.EAX, 5)
		ws, we = refRun(ref, ref.EIP+2)
		fs, fe = fresh.ResumeAfterSyscall(5)
		rs, re = reused.ResumeAfterSyscall(5)
	}
}

// newChecked is New for the package's tests: before handing out the
// machine it holds the image to the memo differential from entry 0, so
// every program any test executes is also a differential case.
func newChecked(t *testing.T, image []byte) *Machine {
	t.Helper()
	diffRun(t, image, 0, 1<<16)
	return New(image)
}

// selfModifying are hand-built programs that write into code the run
// has already executed, with the register state a correct emulator
// must end in. Each would end differently on a memo that missed the
// invalidation.
var selfModifying = []struct {
	name  string
	build func() []byte
	want  map[x86.Reg]uint32
}{
	{
		// The loop body's `inc eax` is patched into `inc ebx` by the
		// first iteration, after it has executed once.
		name: "store into a loop body already executed",
		build: func() []byte {
			a := x86.NewAsm().XorRR(x86.EAX, x86.EAX).XorRR(x86.EBX, x86.EBX).MovRI(x86.ECX, 3)
			top := a.Len()
			a.Label("top").IncR(x86.EAX).
				I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(top), Size: 1, Scale: 1}), x86.ImmOp(0x43)).
				Loop("top").I(x86.HLT)
			return a.MustBytes()
		},
		want: map[x86.Reg]uint32{x86.EAX: 1, x86.EBX: 2, x86.ECX: 0},
	},
	{
		// One 16-bit store covers the last byte of `mov al, 1` and the
		// first byte of `mov bl, 2`, turning them into `mov al, 5` and
		// `mov bh, 2`; both have executed before the store.
		name: "store straddling an instruction boundary",
		build: func() []byte {
			a := x86.NewAsm().XorRR(x86.EAX, x86.EAX).XorRR(x86.EBX, x86.EBX).MovRI(x86.ECX, 2)
			top := a.Len()
			a.Label("top").MovRI(x86.AL, 1).MovRI(x86.BL, 2).
				I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(top + 1), Size: 2, Scale: 1}), x86.ImmOp(0xb705)).
				Loop("top").I(x86.HLT)
			return a.MustBytes()
		},
		want: map[x86.Reg]uint32{x86.EAX: 5, x86.EBX: 0x0202, x86.ECX: 0},
	},
	{
		// `66 40` (inc ax) executes, then loses its operand-size prefix
		// to a nop, so the second iteration runs `nop; inc eax` from
		// the same bytes.
		name: "store into the next instruction's prefix bytes",
		build: func() []byte {
			a := x86.NewAsm().MovRI(x86.ECX, 2)
			a.Label("top").MovRI(x86.EAX, 0xffff)
			pfx := a.Len()
			return a.IncR(x86.AX).
				I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(pfx), Size: 1, Scale: 1}), x86.ImmOp(0x90)).
				Loop("top").I(x86.HLT).MustBytes()
		},
		want: map[x86.Reg]uint32{x86.EAX: 0x10000, x86.ECX: 0},
	},
}

func TestMemoSelfModifyingCode(t *testing.T) {
	for _, c := range selfModifying {
		t.Run(c.name, func(t *testing.T) {
			image := c.build()
			m := New(image)
			if _, err := m.Run(0); err != nil {
				t.Fatalf("run: %v", err)
			}
			for r, v := range c.want {
				if got := m.Reg(r); got != v {
					t.Errorf("%v = %#x, want %#x", r, got, v)
				}
			}
			for entry := 0; entry < 4; entry++ {
				diffRun(t, image, entry, 1<<12)
			}
		})
	}
}

// TestMemoPrefixStoreFirstPass is the prefix case without the warm
// memo: the store lands on the prefix before the instruction has ever
// been fetched, and the first fetch must already see the new bytes.
func TestMemoPrefixStoreFirstPass(t *testing.T) {
	a := x86.NewAsm().MovRI(x86.EAX, 0xffff)
	pfx := a.Len() + 7
	code := a.I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(pfx), Size: 1, Scale: 1}), x86.ImmOp(0x90)).
		IncR(x86.AX).I(x86.HLT).MustBytes()
	if code[pfx] != 0x66 {
		t.Fatalf("byte at %d is %#x, not the 0x66 prefix the case patches", pfx, code[pfx])
	}
	m := newChecked(t, code)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(x86.EAX); got != 0x10000 {
		t.Fatalf("eax = %#x, want 0x10000", got)
	}
}

// TestResetRestoresRewrittenCode: a run patches an instruction and then
// executes (and memoizes) the patched bytes; after Reset to the same
// image a run that skips the patch must execute the original
// instruction, while the untouched ones are still fetched from the memo.
func TestResetRestoresRewrittenCode(t *testing.T) {
	a := x86.NewAsm()
	patched := a.Len() + 7
	image := a.I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(patched), Size: 1, Scale: 1}), x86.ImmOp(0x43)).
		IncR(x86.EAX).I(x86.HLT).MustBytes()
	m := New(image)
	if _, err := m.Run(0); err != nil || m.Reg(x86.EBX) != 1 || m.Reg(x86.EAX) != 0 {
		t.Fatalf("patched run: err=%v eax=%d ebx=%d, want inc ebx to have run", err, m.Reg(x86.EAX), m.Reg(x86.EBX))
	}
	slots := len(m.memo)
	m.Reset(image)
	if _, err := m.Run(patched); err != nil || m.Reg(x86.EAX) != 1 || m.Reg(x86.EBX) != 0 {
		t.Fatalf("run after Reset: err=%v eax=%d ebx=%d, want the original inc eax", err, m.Reg(x86.EAX), m.Reg(x86.EBX))
	}
	if len(m.memo) != slots {
		t.Fatalf("memo grew from %d to %d slots re-running positions it had seen", slots, len(m.memo))
	}
	// A different image of another length starts from an empty memo.
	m.Reset([]byte{0x40, 0xf4})
	if _, err := m.Run(0); err != nil || m.Reg(x86.EAX) != 1 || len(m.memo) != 2 {
		t.Fatalf("run after Reset to a new image: err=%v eax=%d memo=%d", err, m.Reg(x86.EAX), len(m.memo))
	}
}

// TestMemoDifferentialGeneratedDecoders runs the polymorphic engines'
// decoders from every entry point sem.Sketch tries.
func TestMemoDifferentialGeneratedDecoders(t *testing.T) {
	payload := shellcode.Dup2Shell().Bytes
	for seed := int64(1); seed <= 12; seed++ {
		for _, eng := range []interface {
			Encode([]byte) ([]byte, polymorph.Meta, error)
		}{polymorph.NewClet(seed), polymorph.NewADMmutate(seed)} {
			sample, _, err := eng.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			for entry := 0; entry < 4; entry++ {
				diffRun(t, sample, entry, 1<<16)
			}
		}
	}
}

// TestMemoBounded pins the memo's size to what the run executed: a
// 64 KiB image whose run touches a dozen positions memoizes a dozen
// instructions, and a loop that rewrites its own body every iteration
// reuses its slots instead of growing.
func TestMemoBounded(t *testing.T) {
	image := make([]byte, 64<<10)
	copy(image, selfModifying[0].build())
	m := New(image)
	m.Run(0)
	if len(m.memo) > 16 {
		t.Fatalf("memo holds %d instructions after a run that executed fewer than 16 positions", len(m.memo))
	}
	a := x86.NewAsm().MovRI(x86.ECX, 1000)
	top := a.Len()
	code := a.Label("top").IncR(x86.EAX).
		I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(top), Size: 1, Scale: 1}), x86.ImmOp(0x40)).
		Loop("top").I(x86.HLT).MustBytes()
	m = New(code)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.Reg(x86.EAX) != 1000 || len(m.memo) > 5 {
		t.Fatalf("eax=%d memo=%d after 1000 self-rewriting iterations, want 1000 and at most 5", m.Reg(x86.EAX), len(m.memo))
	}
}

// TestStepAllocs pins the fetch path: executing a long loop on a
// warmed machine allocates nothing per step (the stop itself may).
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	sample, _, err := polymorph.NewClet(3).Encode(bytes.Repeat(shellcode.ClassicPush().Bytes, 40))
	if err != nil {
		t.Fatal(err)
	}
	m := New(sample)
	m.Run(0)
	steps := m.Steps
	if steps < 2000 {
		t.Fatalf("decoder ran only %d steps", steps)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Reset(sample)
		m.Run(0)
	})
	if allocs > 2 {
		t.Errorf("%.1f allocations over a %d-step run, want at most 2 (0 per step)", allocs, steps)
	}
}

func FuzzEmuMemo(f *testing.F) {
	for _, c := range selfModifying {
		f.Add(c.build(), uint16(0))
	}
	for seed := int64(1); seed <= 3; seed++ {
		if sample, _, err := polymorph.NewADMmutate(seed).Encode(shellcode.ClassicPush().Bytes); err == nil {
			f.Add(sample, uint16(seed))
		}
	}
	f.Add([]byte{0xeb, 0xfe}, uint16(0))
	f.Fuzz(func(t *testing.T, image []byte, entry uint16) {
		if len(image) > 4096 {
			image = image[:4096]
		}
		diffRun(t, image, int(entry)%(len(image)+2), 2048)
	})
}
