package x86

import (
	"math/rand"
	"testing"
)

// naiveViable recomputes DecodeCache.Viable the obvious way: walk the
// sweep from start, split it into flow-unbroken runs, and report
// whether any run covers a wanted template's requirements. An
// instruction's statement bits are its opcode's, narrowed by the
// table's shape function if it has one.
func naiveViable(b []byte, start int, t *ViabilityTable, want uint64) bool {
	return naiveRuns(Refs(Sweep(b, start)), t, want)
}

// naiveThreaded is the same question for the threaded order: thread
// the sweep from start, then split that order into runs.
func naiveThreaded(b []byte, start int, t *ViabilityTable, want uint64) bool {
	return naiveRuns(ThreadOrderAppend(nil, Refs(Sweep(b, start))), t, want)
}

// naiveRuns reports whether a flow-unbroken run of order covers a
// wanted template's requirements.
func naiveRuns(order []*Inst, t *ViabilityTable, want uint64) bool {
	var seg uint64
	for _, in := range order {
		if in.Op == BAD || in.Op == RET || in.Op == HLT {
			seg = 0
		} else if bits := t.ops[in.Op]; bits != 0 && t.shape != nil {
			seg |= t.shape(in, bits)
		} else {
			seg |= bits
		}
		if t.covered(seg)&want != 0 {
			return true
		}
	}
	return false
}

// naiveSplices reports whether the sweep from start holds an in-frame
// jmp or call.
func naiveSplices(b []byte, start int) bool {
	for _, in := range Sweep(b, start) {
		if (in.Op == JMP || in.Op == CALL) && in.HasTarget && in.Target >= 0 && int(in.Target) < len(b) {
			return true
		}
	}
	return false
}

func testViabilityTable() *ViabilityTable {
	var xorMask, advMask, branchMask, intMask OpSet
	xorMask.Add(XOR)
	xorMask.Add(ADD)
	xorMask.Add(SUB)
	advMask.Add(INC)
	advMask.Add(DEC)
	advMask.Add(ADD)
	advMask.Add(SUB)
	advMask.Add(LEA)
	branchMask.Add(JCC)
	branchMask.Add(LOOP)
	branchMask.Add(JECXZ)
	intMask.Add(INT)
	return NewViabilityTable(
		[]OpSet{xorMask, advMask, branchMask, intMask},
		// Template 0: xor ∧ advance ∧ back edge. Template 1: syscall.
		[]uint64{0b0111, 0b1000},
	)
}

// testShapeTable is testViabilityTable with a second level in the
// style of sem's: the transform bit needs a byte-sized memory
// destination, the branch bit a backward target.
func testShapeTable(t *testing.T) *ViabilityTable {
	table := testViabilityTable()
	table.SetShape(func(in *Inst, bits uint64) uint64 {
		if bits == 0 {
			t.Errorf("shape called for %v, whose opcode earned no bit", in)
		}
		if a0 := in.Args[0]; a0.Kind != KindMem || a0.Mem.Size != 1 {
			bits &^= 0b0001
		}
		if !in.HasTarget || in.Target >= in.Addr {
			bits &^= 0b0100
		}
		return bits
	})
	return table
}

func viabilityCorpora() map[string][]byte {
	junk := make([]byte, 1024)
	rand.New(rand.NewSource(7)).Read(junk)
	text := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: text/plain\r\n\r\n")
	smtp := []byte("220 mail.example.com ESMTP Postfix\r\nEHLO client.example.org\r\n250-SIZE 10240000\r\n")
	code := []byte{
		0xb9, 0x10, 0x00, 0x00, 0x00, // mov ecx, 0x10
		0x80, 0x36, 0x55, // xor byte [esi], 0x55
		0x46,       // inc esi
		0xe2, 0xfa, // loop -6
		0xc3,       // ret (breaks the run)
		0xcd, 0x80, // int 0x80
	}
	jumpy := []byte{
		0xeb, 0x02, // jmp +2 (a connector, and still no loop)
		0xc3, 0x90, // ret; nop
		0x80, 0x36, 0x55, // xor byte [esi], 0x55
	}
	return map[string][]byte{
		"junk":    junk,
		"text":    text,
		"smtp":    smtp,
		"code":    code,
		"jumpy":   jumpy,
		"spliced": splicedLoop(),
		"getpc":   getpcNoLoop(),
		"tiny":    {0x90},
	}
}

// splicedLoop is a decryption loop whose two halves are separate runs
// in address order — a ret sits between them — joined by a jmp: the
// first run has the transform, the second the advance and the back
// edge. Only the threaded order holds the whole loop in one run.
func splicedLoop() []byte {
	return NewAsm().
		Label("top").I(XOR, MemOp(MemRef{Base: ESI, Size: 1, Scale: 1}), ImmOp(0x55)).
		JmpShort("next").
		Raw(0xc3). // ret
		Label("next").IncR(ESI).
		JccShort(CondNE, "top").
		MustBytes()
}

// getpcNoLoop is the jmp/call/pop getpc idiom in front of a transform
// with no advance and no back edge: it splices, and neither order
// holds the loop template.
func getpcNoLoop() []byte {
	return NewAsm().
		JmpShort("getpc").
		Label("decoder").PopR(ESI).
		I(XOR, MemOp(MemRef{Base: ESI, Size: 1, Scale: 1}), ImmOp(0x55)).
		Raw(0xc3). // ret
		Label("getpc").Call("decoder").
		Raw(0x41, 0x42, 0x43, 0x44).
		MustBytes()
}

// TestCacheViableDifferential proves the memoized chain-sharing form
// (DecodeCache.Viable) agrees with the same reference at every offset,
// in several sweep/viability interleavings: viability asked cold,
// after the analyzer-style offset-0 sweep, and after sweeping all
// offsets first — for the opcode-only table and for one with a shape
// function.
func TestCacheViableDifferential(t *testing.T) {
	t.Run("opcode-only", func(t *testing.T) { cacheViableDifferential(t, testViabilityTable()) })
	t.Run("shape", func(t *testing.T) { cacheViableDifferential(t, testShapeTable(t)) })
}

func cacheViableDifferential(t *testing.T, table *ViabilityTable) {
	wants := []uint64{0b01, 0b10, 0b11}
	orders := map[string]func(c *DecodeCache, n int){
		"cold":        func(c *DecodeCache, n int) {},
		"after-sweep": func(c *DecodeCache, n int) { c.Sweep(0) },
		"after-all": func(c *DecodeCache, n int) {
			for off := 0; off < n && off < 8; off++ {
				c.Sweep(off)
			}
		},
	}
	for name, b := range viabilityCorpora() {
		for oname, prep := range orders {
			c := NewDecodeCache(b)
			prep(c, len(b))
			for start := range b {
				for _, want := range wants {
					got := c.Viable(start, table, want)
					ref := naiveViable(b, start, table, want)
					if got != ref {
						t.Errorf("%s/%s: Viable(start=%d, want=%#x) = %v, reference %v",
							name, oname, start, want, got, ref)
					}
				}
			}
			// Sweeps after viability must still be byte-identical to
			// the naive decoder (the viability pass must not corrupt
			// the memo).
			for start := 0; start < len(b) && start < 6; start++ {
				got := c.Sweep(start)
				want := Sweep(b, start)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: sweep %d length %d, want %d", name, oname, start, len(got), len(want))
				}
				for i := range want {
					if *got[i] != want[i] {
						t.Fatalf("%s/%s: sweep %d inst %d differs", name, oname, start, i)
					}
				}
			}
		}
	}
}

// TestThreadedViableDifferential holds the threaded-order check the
// analyzer makes — Splices, then ViableOrder over ThreadOrderAppend's
// order — to naiveThreaded at every offset: exact on a sweep that
// splices, and implied by the linear answer on one that does not (its
// threaded order is a prefix of the sweep, in address order).
func TestThreadedViableDifferential(t *testing.T) {
	for tname, table := range map[string]*ViabilityTable{"opcode-only": testViabilityTable(), "shape": testShapeTable(t)} {
		for name, b := range viabilityCorpora() {
			c := NewDecodeCache(b)
			for start := range b {
				splices := c.Splices(start)
				if ref := naiveSplices(b, start); splices != ref {
					t.Errorf("%s/%s: Splices(%d) = %v, reference %v", tname, name, start, splices, ref)
				}
				order := ThreadOrderAppend(nil, c.Sweep(start))
				for _, want := range []uint64{0b01, 0b10, 0b11} {
					ref := naiveThreaded(b, start, table, want)
					if splices {
						if got := table.ViableOrder(order, want); got != ref {
							t.Errorf("%s/%s: threaded ViableOrder(start=%d, want=%#x) = %v, reference %v",
								tname, name, start, want, got, ref)
						}
					} else if ref && !c.Viable(start, table, want) {
						t.Errorf("%s/%s: start %d does not splice and its threaded order is viable for %#x, the linear order not",
							tname, name, start, want)
					}
				}
			}
		}
	}
}

// TestViablePerOrder pins the two cases that tell a per-order answer
// from an either-order one on frames x86.Asm builds: a jmp that joins
// two runs each lacking a statement (linear not viable, threaded
// viable), and a getpc frame where a connector is present but neither
// order holds the template (both not viable — an answer that poisons
// runs with connectors said viable).
func TestViablePerOrder(t *testing.T) {
	table := testShapeTable(t)
	for _, c := range []struct {
		name             string
		b                []byte
		linear, threaded bool
	}{
		{"spliced", splicedLoop(), false, true},
		{"getpc", getpcNoLoop(), false, false},
	} {
		cache := NewDecodeCache(c.b)
		if got := cache.Viable(0, table, 0b01); got != c.linear {
			t.Errorf("%s: linear order viable = %v, want %v", c.name, got, c.linear)
		}
		if !cache.Splices(0) {
			t.Errorf("%s: sweep does not splice", c.name)
		}
		if got := table.ViableOrder(ThreadOrderAppend(nil, cache.Sweep(0)), 0b01); got != c.threaded {
			t.Errorf("%s: threaded order viable = %v, want %v", c.name, got, c.threaded)
		}
	}
}

// TestCacheViableReset asserts the chain memo rebuilds after Reset.
func TestCacheViableReset(t *testing.T) {
	table := testViabilityTable()
	c := NewDecodeCache([]byte{0xcd, 0x80}) // int 0x80
	if !c.Viable(0, table, 0b10) {
		t.Fatal("syscall not viable on int 0x80 frame")
	}
	c.Reset([]byte{0x90, 0x90})
	if c.Viable(0, table, 0b11) {
		t.Fatal("nop frame viable after Reset")
	}
}

// TestViableRuns pins the run semantics directly: a complete
// decrypt-loop shape is viable from its start, the syscall after a ret
// is viable for the syscall template only, and a run split by ret does
// not leak bits across.
func TestViableRuns(t *testing.T) {
	table := testViabilityTable()
	code := []byte{
		0x80, 0x36, 0x55, // xor byte [esi], 0x55
		0x46,       // inc esi
		0x75, 0xfa, // jnz -6
		0xc3,       // ret
		0x90, 0x90, // nop; nop (run with nothing in it)
	}
	c := NewDecodeCache(code)
	if !c.Viable(0, table, 0b01) {
		t.Error("decrypt loop not viable from offset 0")
	}
	if c.Viable(0, table, 0b10) {
		t.Error("syscall template viable with no int 0x80 in frame")
	}
	if c.Viable(7, table, 0b11) {
		t.Error("post-ret nop run reported viable")
	}

	c.Reset([]byte{0xc3, 0xcd, 0x80}) // ret; int 0x80
	if !c.Viable(0, table, 0b10) {
		t.Error("syscall after ret not viable (runs must restart)")
	}
	if c.Viable(0, table, 0b01) {
		t.Error("decrypt loop viable in ret; int 0x80")
	}
}

// TestViableShape pins what the second level changes: protocol text is
// viable for the decrypt-loop template by opcode alone (its letters
// decode as xor/sub, inc/dec and jcc) and not once operand shape is
// asked; a real loop stays viable under both; and a connector does
// not make a run without the loop's statements viable.
func TestViableShape(t *testing.T) {
	opcodeOnly, shaped := testViabilityTable(), testShapeTable(t)
	corpora := viabilityCorpora()
	for _, c := range []struct {
		frame                  string
		wantOpcode, wantShaped bool
	}{
		{"smtp", true, false},
		{"code", true, true},
		{"jumpy", false, false},
	} {
		b := corpora[c.frame]
		if got := NewDecodeCache(b).Viable(0, opcodeOnly, 0b01); got != c.wantOpcode {
			t.Errorf("%s: opcode-only table viable = %v, want %v", c.frame, got, c.wantOpcode)
		}
		if got := NewDecodeCache(b).Viable(0, shaped, 0b01); got != c.wantShaped {
			t.Errorf("%s: shape table viable = %v, want %v", c.frame, got, c.wantShaped)
		}
	}
}

// TestViableEdges covers degenerate inputs.
func TestViableEdges(t *testing.T) {
	table := testViabilityTable()
	if NewDecodeCache(nil).Viable(0, table, ^uint64(0)) {
		t.Error("empty frame viable")
	}
	if NewDecodeCache([]byte{0x90}).Viable(5, table, ^uint64(0)) {
		t.Error("start past end viable")
	}
	if NewDecodeCache([]byte{0xcd, 0x80}).Viable(0, table, 0) {
		t.Error("empty want set viable")
	}
	if NewDecodeCache([]byte{0xcd, 0x80}).Viable(0, nil, ^uint64(0)) {
		t.Error("nil table viable")
	}
	if table.ViableOrder(nil, ^uint64(0)) {
		t.Error("empty order viable")
	}
	if NewDecodeCache(nil).Splices(0) || NewDecodeCache([]byte{0xeb, 0xfe}).Splices(2) {
		t.Error("start past end splices")
	}
}
