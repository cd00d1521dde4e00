package ir

import (
	"testing"

	"semnids/internal/x86"
)

func TestCdqFolding(t *testing.T) {
	// Positive EAX -> EDX = 0 (the common edx-zeroing idiom).
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EAX, 5).I(x86.CDQ).Nop()
	})
	v, known := last(p).ConstBefore(x86.EDX)
	if !known || v != 0 {
		t.Errorf("EDX = (%#x,%v), want (0,true)", v, known)
	}
	// Negative EAX -> EDX = -1.
	p = liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EAX, -5).I(x86.CDQ).Nop()
	})
	v, known = last(p).ConstBefore(x86.EDX)
	if !known || v != 0xffffffff {
		t.Errorf("EDX = (%#x,%v), want (0xffffffff,true)", v, known)
	}
}

func TestLeaFolding(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EBX, 0x100).
			MovRI(x86.ECX, 4).
			I(x86.LEA, x86.RegOp(x86.EAX),
				x86.MemOp(x86.MemRef{Base: x86.EBX, Index: x86.ECX, Scale: 4, Disp: 8})).
			Nop()
	})
	v, known := last(p).ConstBefore(x86.EAX)
	if !known || v != 0x100+16+8 {
		t.Errorf("EAX = (%#x,%v), want 0x118", v, known)
	}
}

func TestStringOpsClobber(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.ESI, 0x10).
			MovRI(x86.EAX, 0x22).
			I(x86.LODSB).
			Nop()
	})
	n := last(p)
	if _, known := n.ConstBefore(x86.ESI); known {
		t.Error("ESI should be unknown after lodsb")
	}
	if _, known := n.ConstBefore(x86.AL); known {
		t.Error("AL should be unknown after lodsb")
	}
	// The untouched high bytes of EAX remain known.
	if v, known := n.ConstBefore(x86.AH); !known || v != 0 {
		t.Errorf("AH = (%#x,%v), want (0,true)", v, known)
	}
}

func TestPushadPopadRestores(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EBX, 7).
			I(x86.PUSHAD).
			MovRI(x86.EBX, 9).
			XorRR(x86.ECX, x86.ECX).
			I(x86.POPAD).
			Nop()
	})
	// The symbolic stack holds the 8-slot block: popad restores what
	// pushad saved, known or not (ECX was never known).
	n := last(p)
	if v, known := n.ConstBefore(x86.EBX); !known || v != 7 {
		t.Errorf("EBX = (%#x,%v) after pushad/popad round trip, want (7,true)", v, known)
	}
	if _, known := n.ConstBefore(x86.ECX); known {
		t.Error("ECX should be unknown: pushad saved an unknown ECX")
	}
}

func TestStackBreakOnEspArithmetic(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.PushI(0x42).
			SubRI(x86.ESP, 8). // breaks the symbolic stack model
			PopR(x86.EAX).
			Nop()
	})
	if _, known := last(p).ConstBefore(x86.EAX); known {
		t.Error("EAX should be unknown after esp arithmetic broke the stack")
	}
}

func TestStackDepthCap(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		for i := 0; i < maxTrackedStack+8; i++ {
			a.PushI(int64(i))
		}
		a.PopR(x86.EAX).Nop()
	})
	if _, known := last(p).ConstBefore(x86.EAX); known {
		t.Error("stack deeper than the cap should stop tracking")
	}
}

func TestMovzxFolding(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EBX, 0x1234).
			I(x86.MOVZX, x86.RegOp(x86.EAX), x86.RegOp(x86.BL)).
			Nop()
	})
	v, known := last(p).ConstBefore(x86.EAX)
	if !known || v != 0x34 {
		t.Errorf("EAX = (%#x,%v), want (0x34,true)", v, known)
	}
}

func TestShiftFolding(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EAX, 1).
			I(x86.SHL, x86.RegOp(x86.EAX), x86.ImmOp(4)).
			Nop()
	})
	if v, known := last(p).ConstBefore(x86.EAX); !known || v != 16 {
		t.Errorf("EAX = (%#x,%v), want 16", v, known)
	}
	// Rotate folds only at 32-bit width.
	p = liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EAX, 0x80000001).
			I(x86.ROL, x86.RegOp(x86.EAX), x86.ImmOp(1)).
			Nop()
	})
	if v, known := last(p).ConstBefore(x86.EAX); !known || v != 3 {
		t.Errorf("rol EAX = (%#x,%v), want 3", v, known)
	}
}

func TestLoopDecrementsCounter(t *testing.T) {
	// The loop instruction's decrement is modeled, so a known counter
	// stays known across an iteration boundary in threaded order.
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.ECX, 3).
			Label("top").
			Nop().
			Loop("top").
			Nop()
	})
	// After one pass over the loop instruction the counter is 2.
	if v, known := last(p).ConstBefore(x86.ECX); !known || v != 2 {
		t.Errorf("ECX = (%#x,%v), want 2", v, known)
	}
}

func TestNewOpcodeDefs(t *testing.T) {
	// cmpxchg clobbers EAX; xadd defs both operands.
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EAX, 1).
			MovRI(x86.EBX, 2).
			MovRI(x86.ECX, 3).
			I(x86.CMPXCHG, x86.RegOp(x86.EBX), x86.RegOp(x86.ECX)).
			Nop()
	})
	n := last(p)
	if _, known := n.ConstBefore(x86.EAX); known {
		t.Error("EAX should be unknown after cmpxchg")
	}
	if _, known := n.ConstBefore(x86.EBX); known {
		t.Error("EBX should be unknown after cmpxchg")
	}

	p = liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EBX, 2).
			MovRI(x86.ECX, 3).
			I(x86.XADD, x86.RegOp(x86.EBX), x86.RegOp(x86.ECX)).
			Nop()
	})
	n = last(p)
	if _, known := n.ConstBefore(x86.EBX); known {
		t.Error("EBX should be unknown after xadd")
	}
	if _, known := n.ConstBefore(x86.ECX); known {
		t.Error("ECX should be unknown after xadd")
	}
}
