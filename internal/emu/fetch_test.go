package emu

import (
	"bytes"
	"errors"
	"testing"

	"semnids/internal/polymorph"
	"semnids/internal/shellcode"
	"semnids/internal/x86"
)

// refRun is the reference the fetch rule is held to: the same step
// loop as runFrom, decoding the instruction at EIP from memory on every
// step.
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

// diffRun executes image from entry four ways — through refRun, on a
// fresh machine, on a machine whose previous attempt ran from entry+1
// (the way sem.Sketch runs its entries on one machine), and on a
// machine loaded with image after running another image of the same
// length — and requires identical memory, registers, flags, step count
// and stop or error class, continuing through up to eight faked system
// calls.
func diffRun(t *testing.T, image []byte, entry, maxSteps int) {
	t.Helper()
	ref := New(image)
	fresh := New(image)
	again := New(image)
	other := bytes.Clone(image)
	for i := range other {
		other[i] ^= 0xa5
	}
	reloaded := New(other)
	ref.MaxSteps, fresh.MaxSteps, again.MaxSteps, reloaded.MaxSteps = maxSteps, maxSteps, maxSteps, maxSteps
	again.Explore(entry + 1)
	again.ex.reset() // nothing to merge into: the attempt runs to its end
	reloaded.Explore(entry)
	reloaded.Load(image)

	ws, we := refRun(ref, entry)
	fs, fe := fresh.Explore(entry)
	as, ae := again.Explore(entry)
	ls, le := reloaded.Explore(entry)
	for sys := 0; ; sys++ {
		sameOutcome(t, "fresh machine", fresh, ref, fs, ws, fe, we)
		sameOutcome(t, "machine explored from entry+1 first", again, ref, as, ws, ae, we)
		sameOutcome(t, "reloaded machine", reloaded, ref, ls, ws, le, we)
		if we != nil || ws.Kind != StopSyscall || sys == 8 {
			return
		}
		ref.SetReg(x86.EAX, 5)
		ws, we = refRun(ref, ref.EIP+2)
		fs, fe = fresh.ResumeAfterSyscall(5)
		as, ae = again.ResumeAfterSyscall(5)
		ls, le = reloaded.ResumeAfterSyscall(5)
	}
}

// checkFetchRule holds fetch to its rule at every position of m's
// memory: what decoding memory there gives, served from the image's
// decode exactly where the bytes under the instruction are still the
// image's.
func checkFetchRule(t *testing.T, m *Machine) {
	t.Helper()
	for p := range m.Mem {
		in, err := m.fetch(p)
		want, werr := x86.Decode(m.Mem, p)
		if (err != nil) != (werr != nil) || err == nil && *in != want {
			t.Fatalf("fetch(%d) = %v, %v; decoding memory gives %v, %v", p, in, err, want, werr)
		}
		c := m.code.At(p)
		if err != nil || c.Op == x86.BAD {
			continue
		}
		n := p + int(c.Len)
		if pristine := bytes.Equal(m.Mem[p:n], m.image[p:n]); (in == c) != pristine {
			t.Fatalf("fetch(%d): served from the image's decode %v, bytes still the image's %v", p, in == c, pristine)
		}
	}
}

// newChecked is New for the package's tests: before handing out the
// machine it holds the image to the fetch differential from entry 0,
// so every program any test executes is also a differential case.
func newChecked(t *testing.T, image []byte) *Machine {
	t.Helper()
	diffRun(t, image, 0, 1<<16)
	return New(image)
}

// selfModifying are hand-built programs that write into their own
// code, with the register state a correct emulator must end in after
// running from entry 0. diffRun also runs each from entry 0 after an
// attempt from entry 1.
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
	{
		// Every iteration stores `inc eax`'s own byte over it: the
		// bytes are still the image's, so the fetch is served from the
		// image's decode although the store lies in the write hull.
		name: "store of a byte's own value into an executed instruction",
		build: func() []byte {
			a := x86.NewAsm().MovRI(x86.ECX, 3)
			top := a.Len()
			a.Label("top").IncR(x86.EAX).
				I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(top), Size: 1, Scale: 1}), x86.ImmOp(0x40)).
				Loop("top").I(x86.HLT)
			return a.MustBytes()
		},
		want: map[x86.Reg]uint32{x86.EAX: 3, x86.ECX: 0},
	},
	{
		// The store rewrites the top byte of the next instruction's
		// immediate (`b8 44 33 22 11`, mov eax, 0x11223344), before its
		// first fetch.
		name: "store into the last byte of the next instruction",
		build: func() []byte {
			last := 7 + 4 // past the 7-byte store, the immediate's top byte
			return x86.NewAsm().
				I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(last), Size: 1, Scale: 1}), x86.ImmOp(0x12)).
				Raw(0xb8, 0x44, 0x33, 0x22, 0x11).I(x86.HLT).MustBytes()
		},
		want: map[x86.Reg]uint32{x86.EAX: 0x12223344},
	},
	{
		// From entry 1 (eax = 0) the program rewrites the entry
		// instruction `inc eax` into `dec eax` and jumps to it; from
		// entry 0 it runs `inc eax` and stops. The attempt from entry 0
		// that follows one from entry 1 must find the entry
		// instruction restored.
		name: "attempt from entry 1 rewrites the entry instruction",
		build: func() []byte {
			return x86.NewAsm().Label("entry").IncR(x86.EAX).
				I(x86.TEST, x86.RegOp(x86.EAX), x86.RegOp(x86.EAX)).JccShort(x86.CondNE, "done").
				I(x86.MOV, x86.MemOp(x86.MemRef{Disp: 0, Size: 1, Scale: 1}), x86.ImmOp(0x48)).
				JmpShort("entry").
				Label("done").I(x86.HLT).MustBytes()
		},
		want: map[x86.Reg]uint32{x86.EAX: 1},
	},
	{
		// `0f 05` does not decode; the store turns it into `0f b6 c0`
		// (movzx eax, al) by rewriting the byte after the one the
		// image's decode marked undecodable.
		name: "store that makes an undecodable instruction decodable",
		build: func() []byte {
			return x86.NewAsm().MovRI(x86.EAX, 0x1234).
				// 5-byte mov and 7-byte store, then the 0x05 after 0x0f.
				I(x86.MOV, x86.MemOp(x86.MemRef{Disp: 5 + 7 + 1, Size: 1, Scale: 1}), x86.ImmOp(0xb6)).
				Raw(0x0f, 0x05, 0xc0).I(x86.HLT).MustBytes()
		},
		want: map[x86.Reg]uint32{x86.EAX: 0x34},
	},
}

func TestMemoSelfModifyingCode(t *testing.T) {
	for _, c := range selfModifying {
		t.Run(c.name, func(t *testing.T) {
			image := c.build()
			m := New(image)
			if _, err := m.Explore(0); err != nil {
				t.Fatalf("run: %v", err)
			}
			for r, v := range c.want {
				if got := m.Reg(r); got != v {
					t.Errorf("%v = %#x, want %#x", r, got, v)
				}
			}
			checkFetchRule(t, m)
			for entry := 0; entry < 4; entry++ {
				diffRun(t, image, entry, 1<<12)
			}
		})
	}
}

// TestMemoPrefixStoreFirstPass is the prefix case on the first pass:
// the store lands on the prefix before the instruction has ever been
// fetched, and the first fetch must already see the new bytes.
func TestMemoPrefixStoreFirstPass(t *testing.T) {
	a := x86.NewAsm().MovRI(x86.EAX, 0xffff)
	pfx := a.Len() + 7
	code := a.I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(pfx), Size: 1, Scale: 1}), x86.ImmOp(0x90)).
		IncR(x86.AX).I(x86.HLT).MustBytes()
	if code[pfx] != 0x66 {
		t.Fatalf("byte at %d is %#x, not the 0x66 prefix the case patches", pfx, code[pfx])
	}
	m := newChecked(t, code)
	if _, err := m.Explore(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(x86.EAX); got != 0x10000 {
		t.Fatalf("eax = %#x, want 0x10000", got)
	}
}

// TestResetRestoresRewrittenCode: an attempt patches an instruction
// and then executes the patched bytes, decoded from memory; the next
// attempt, from an entry that skips the patch, must execute the
// original instruction, served from the image's decode again. Loading
// another image drops that decode.
func TestResetRestoresRewrittenCode(t *testing.T) {
	a := x86.NewAsm()
	patched := a.Len() + 7
	image := a.I(x86.MOV, x86.MemOp(x86.MemRef{Disp: int32(patched), Size: 1, Scale: 1}), x86.ImmOp(0x43)).
		IncR(x86.EAX).I(x86.HLT).MustBytes()
	m := New(image)
	if _, err := m.Explore(0); err != nil || m.Reg(x86.EBX) != 1 || m.Reg(x86.EAX) != 0 {
		t.Fatalf("patched attempt: err=%v eax=%d ebx=%d, want inc ebx to have run", err, m.Reg(x86.EAX), m.Reg(x86.EBX))
	}
	if in, _ := m.fetch(patched); in != &m.scratch {
		t.Fatal("the patched instruction was served from the image's decode")
	}
	if _, err := m.Explore(patched); err != nil || m.Reg(x86.EAX) != 1 || m.Reg(x86.EBX) != 0 {
		t.Fatalf("next attempt: err=%v eax=%d ebx=%d, want the original inc eax", err, m.Reg(x86.EAX), m.Reg(x86.EBX))
	}
	if in, _ := m.fetch(patched); in != m.code.At(patched) {
		t.Fatal("the restored instruction was not served from the image's decode")
	}
	m.Load([]byte{0x40, 0xf4})
	if _, err := m.Explore(0); err != nil || m.Reg(x86.EAX) != 1 {
		t.Fatalf("attempt after Load of a new image: err=%v eax=%d", err, m.Reg(x86.EAX))
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

// TestStepAllocs pins the fetch path: loading and executing a long
// loop on a warmed machine allocates nothing per step (the stop itself
// may).
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	sample, _, err := polymorph.NewClet(3).Encode(bytes.Repeat(shellcode.ClassicPush().Bytes, 40))
	if err != nil {
		t.Fatal(err)
	}
	m := New(sample)
	m.Explore(0)
	steps := m.Steps
	if steps < 2000 {
		t.Fatalf("decoder ran only %d steps", steps)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Load(sample)
		m.Explore(0)
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
