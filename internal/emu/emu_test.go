package emu

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"semnids/internal/ir"
	"semnids/internal/morph"
	"semnids/internal/polymorph"
	"semnids/internal/shellcode"
	"semnids/internal/x86"
)

// runToExecve executes an image and drives faked syscalls until
// execve (eax=0xb), returning the machine and the syscall trace.
func runToExecve(t *testing.T, image []byte) (*Machine, []uint32) {
	t.Helper()
	m := newChecked(t, image)
	var sysnums []uint32
	stop, err := m.Explore(0)
	for {
		if err != nil {
			t.Fatalf("run: %v (trace %v)", err, sysnums)
		}
		if stop.Kind != StopSyscall {
			t.Fatalf("stopped without execve: %+v (trace %v)", stop, sysnums)
		}
		sysnums = append(sysnums, stop.Sysnum)
		if stop.Sysnum == 0xb {
			return m, sysnums
		}
		// Fake kernel: sockets get fd 5, everything else succeeds.
		ret := uint32(0)
		if stop.Sysnum == 0x66 && m.Reg(x86.EBX) == 1 {
			ret = 5
		}
		if stop.Sysnum == 0x66 && m.Reg(x86.EBX) == 5 {
			ret = 6 // accepted connection
		}
		stop, err = m.ResumeAfterSyscall(ret)
	}
}

func TestExecuteClassicPush(t *testing.T) {
	m, trace := runToExecve(t, shellcode.ClassicPush().Bytes)
	if len(trace) != 1 {
		t.Fatalf("syscall trace %v, want just execve", trace)
	}
	// The stack must hold "/bin" and "//sh" pushed for execve.
	var sawBin, sawSh bool
	for i := 0; ; i++ {
		v, ok := m.StackTop(i)
		if !ok {
			break
		}
		if v == 0x6e69622f {
			sawBin = true
		}
		if v == 0x68732f2f {
			sawSh = true
		}
	}
	if !sawBin || !sawSh {
		t.Error("execve argument string not on the stack")
	}
}

func TestExecuteWholeCorpus(t *testing.T) {
	for _, sc := range shellcode.Corpus() {
		m, trace := runToExecve(t, sc.Bytes)
		_ = m
		if sc.BindsPort {
			// Bind shells must issue socketcalls before the spawn.
			socketcalls := 0
			for _, s := range trace {
				if s == 0x66 {
					socketcalls++
				}
			}
			if socketcalls < 3 {
				t.Errorf("%s: only %d socketcalls before execve (trace %v)",
					sc.Name, socketcalls, trace)
			}
		}
		if trace[len(trace)-1] != 0xb {
			t.Errorf("%s: no execve", sc.Name)
		}
	}
}

// TestExecuteADMmutateSamples is the dynamic validation of the
// polymorphic engine: the generated sled + obfuscated decoder must
// actually run, decode the payload in memory, and spawn the shell.
func TestExecuteADMmutateSamples(t *testing.T) {
	payload := shellcode.ClassicPush().Bytes
	eng := polymorph.NewADMmutate(606)
	for i := 0; i < 60; i++ {
		sample, meta, err := eng.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		m := newChecked(t, sample)
		stop, err := m.Explore(0)
		if err != nil {
			t.Fatalf("sample %d (%s/%s): %v", i, meta.Scheme, meta.Transform, err)
		}
		if stop.Kind != StopSyscall || stop.Sysnum != 0xb {
			t.Fatalf("sample %d (%s/%s): stopped %+v, want execve",
				i, meta.Scheme, meta.Transform, stop)
		}
		// The decoder must have reconstructed the payload in place.
		got := m.Mem[meta.PayloadOff : meta.PayloadOff+meta.PayloadLen]
		if !bytes.Equal(got, payload) {
			t.Fatalf("sample %d (%s/%s): decoded payload differs",
				i, meta.Scheme, meta.Transform)
		}
	}
}

func TestExecuteCletSamples(t *testing.T) {
	payload := shellcode.ClassicPush().Bytes
	eng := polymorph.NewClet(707)
	for i := 0; i < 60; i++ {
		sample, meta, err := eng.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		m := newChecked(t, sample)
		stop, err := m.Explore(0)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if stop.Kind != StopSyscall || stop.Sysnum != 0xb {
			t.Fatalf("sample %d: stopped %+v", i, stop)
		}
		got := m.Mem[meta.PayloadOff : meta.PayloadOff+meta.PayloadLen]
		if !bytes.Equal(got, payload) {
			t.Fatalf("sample %d: decoded payload differs", i)
		}
	}
}

// TestExecuteMorphedSamples: metamorphic variants still execute to the
// same system call with the same stack-built argument.
func TestExecuteMorphedSamples(t *testing.T) {
	mut := morph.New(808)
	payload := shellcode.ClassicPush().Bytes
	for i := 0; i < 30; i++ {
		variant, err := mut.Mutate(payload)
		if err != nil {
			t.Fatal(err)
		}
		m := newChecked(t, variant)
		stop, err := m.Explore(0)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if stop.Kind != StopSyscall || stop.Sysnum != 0xb {
			t.Fatalf("variant %d: stopped %+v", i, stop)
		}
	}
}

func TestFlagSemantics(t *testing.T) {
	// dec to zero sets ZF; jnz falls through; loop repeats n times.
	code := x86.NewAsm().
		MovRI(x86.ECX, 5).
		MovRI(x86.EAX, 0).
		Label("top").
		I(x86.ADD, x86.RegOp(x86.EAX), x86.ImmOp(3)).
		Loop("top").
		IntN(0x80).
		MustBytes()
	m := newChecked(t, code)
	stop, err := m.Explore(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Sysnum != 15 {
		t.Errorf("eax = %d, want 15", stop.Sysnum)
	}

	// Signed comparisons: 2 < 3 via jl.
	code = x86.NewAsm().
		MovRI(x86.EAX, 2).
		I(x86.CMP, x86.RegOp(x86.EAX), x86.ImmOp(3)).
		JccShort(x86.CondL, "less").
		MovRI(x86.EAX, 100).
		IntN(0x80).
		Label("less").
		MovRI(x86.EAX, 200).
		IntN(0x80).
		MustBytes()
	m = newChecked(t, code)
	stop, err = m.Explore(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Sysnum != 200 {
		t.Errorf("jl path: eax = %d, want 200", stop.Sysnum)
	}

	// Unsigned: 0xFFFFFFFF > 1 via ja.
	code = x86.NewAsm().
		MovRI(x86.EAX, -1).
		I(x86.CMP, x86.RegOp(x86.EAX), x86.ImmOp(1)).
		JccShort(x86.CondA, "above").
		MovRI(x86.EBX, 0).
		IntN(0x80).
		Label("above").
		MovRI(x86.EBX, 1).
		IntN(0x80).
		MustBytes()
	m = newChecked(t, code)
	if _, err := m.Explore(0); err != nil {
		t.Fatal(err)
	}
	if m.Reg(x86.EBX) != 1 {
		t.Errorf("ja path not taken")
	}
}

// TestRepStringOp: rep stosb stores ECX bytes and counts ECX down to
// 0, one step per byte; with ECX = 0 it stores nothing. The lifter,
// which sees the instruction once, claims nothing of ECX after it.
func TestRepStringOp(t *testing.T) {
	prog := func(data, n int) []byte {
		return x86.NewAsm().
			MovRI(x86.EDI, int64(data)).
			MovRI(x86.EAX, 0xaa).
			MovRI(x86.ECX, int64(n)).
			Raw(0xf3, 0xaa). // rep stosb
			IntN(0x80).
			MustBytes()
	}
	data := len(prog(0, 0))
	for _, n := range []int{0, 1, 5} {
		code := append(prog(data, n), make([]byte, 8)...)
		m := newChecked(t, code)
		stop, err := m.Explore(0)
		if err != nil || stop.Kind != StopSyscall {
			t.Fatalf("ecx=%d: stop %+v, %v", n, stop, err)
		}
		want := append(bytes.Repeat([]byte{0xaa}, n), make([]byte, 8-n)...)
		if got := m.Mem[data:]; !bytes.Equal(got, want) {
			t.Errorf("ecx=%d: data % x, want % x", n, got, want)
		}
		if ecx, edi := m.Reg(x86.ECX), m.Reg(x86.EDI); ecx != 0 || edi != uint32(data+n) {
			t.Errorf("ecx=%d: ends with ecx=%d edi=%#x, want 0 and %#x", n, ecx, edi, data+n)
		}
		steps := 3 + max(n, 1) + 1
		if m.Steps != steps {
			t.Errorf("ecx=%d: %d steps, want %d", n, m.Steps, steps)
		}
		m.MaxSteps = steps - 1
		if _, err := m.Explore(0); err != ErrStepLimit {
			t.Errorf("ecx=%d: %v under a limit one short, want the step limit", n, err)
		}

		p := ir.Lift(x86.SweepAll(code[:data]))
		if v, ok := p.Raw[len(p.Raw)-1].ConstBefore(x86.ECX); ok {
			t.Errorf("ecx=%d: the lifter claims ecx=%d after rep stosb", n, v)
		}
	}
}

func TestSubregisterWrites(t *testing.T) {
	code := x86.NewAsm().
		MovRI(x86.EAX, 0x11223344).
		I(x86.MOV, x86.RegOp(x86.AH), x86.ImmOp(0x55)).
		I(x86.MOV, x86.RegOp(x86.AL), x86.ImmOp(0x66)).
		IntN(0x80).
		MustBytes()
	m := newChecked(t, code)
	stop, err := m.Explore(0)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Sysnum != 0x11225566 {
		t.Errorf("eax = %#x, want 0x11225566", stop.Sysnum)
	}
}

func TestMemoryFaults(t *testing.T) {
	// An access far outside the image faults rather than corrupting,
	// and the error names the access.
	for _, c := range []struct {
		dst, src x86.Operand
		want     string
	}{
		{x86.MemOp(x86.MemRef{Base: x86.EAX, Size: 1, Scale: 1}), x86.ImmOp(1), "write 1@0x40000000"},
		{x86.RegOp(x86.EBX), x86.MemOp(x86.MemRef{Base: x86.EAX, Size: 4, Scale: 1}), "read 4@0x40000000"},
	} {
		code := x86.NewAsm().
			MovRI(x86.EAX, 0x40000000).
			I(x86.MOV, c.dst, c.src).
			MustBytes()
		m := newChecked(t, code)
		if _, err := m.Explore(0); !errors.Is(err, ErrMemFault) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("out-of-image access: %v, want a fault naming %s", err, c.want)
		}
	}
}

func TestStepLimit(t *testing.T) {
	code := x86.NewAsm().
		Label("spin").
		JmpShort("spin").
		MustBytes()
	m := newChecked(t, code)
	m.MaxSteps = 1000
	if _, err := m.Explore(0); err != ErrStepLimit {
		t.Errorf("infinite loop: %v, want step limit", err)
	}
}

func TestRunOffEnd(t *testing.T) {
	m := newChecked(t, []byte{0x90, 0x90})
	stop, err := m.Explore(0)
	if err != nil || stop.Kind != StopEnd {
		t.Errorf("stop=%+v err=%v", stop, err)
	}
}

func TestStackUnderflow(t *testing.T) {
	m := newChecked(t, []byte{0x58}) // pop eax with empty stack
	if _, err := m.Explore(0); err == nil {
		t.Error("stack underflow not reported")
	}
}
