package emu

import (
	"bytes"
	"testing"

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
	// A write far outside the image faults rather than corrupting.
	code := x86.NewAsm().
		MovRI(x86.EAX, 0x40000000).
		I(x86.MOV, x86.MemOp(x86.MemRef{Base: x86.EAX, Size: 1, Scale: 1}), x86.ImmOp(1)).
		MustBytes()
	m := newChecked(t, code)
	if _, err := m.Explore(0); err == nil {
		t.Error("out-of-image write did not fault")
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
