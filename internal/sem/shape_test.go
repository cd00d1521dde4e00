package sem

import (
	"math/rand"
	"testing"

	"semnids/internal/ir"
	"semnids/internal/x86"
)

// shapePrologue loads a known constant into every general register but
// esp, so the node-level half of matchStmt (a resolvable key, eax
// holding a syscall number, a register-held advance delta) can succeed
// on the instruction under test and the property is not vacuous.
func shapePrologue() []byte {
	a := x86.NewAsm()
	for i, r := range []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.EBP, x86.ESI, x86.EDI} {
		a.MovRI(r, int64([]int{sysExecve, 2, 0x55, socketcallBind, 1, 3, codeRedLo + 0x1000}[i]))
	}
	return a.MustBytes()
}

// shapeCandidates yields the instruction encodings the property is
// checked on: every first byte × second byte (opcode × ModRM, and for
// the short branches opcode × every rel8, backward onto and between
// the prologue's instruction boundaries and forward) with a fixed and a
// random tail, the same over the 0x0f two-byte space, and random
// encodings behind one or two prefixes.
func shapeCandidates(yield func(enc []byte)) {
	r := rand.New(rand.NewSource(14))
	fixed := []byte{0x06, 0x01, 0x55, 0x00, 0x00, 0x00, 0x00, 0x00}
	tail := make([]byte, 8)
	for b0 := 0; b0 < 256; b0++ {
		for b1 := 0; b1 < 256; b1++ {
			r.Read(tail)
			yield(append([]byte{byte(b0), byte(b1)}, fixed...))
			yield(append([]byte{byte(b0), byte(b1)}, tail...))
			yield(append([]byte{0x0f, byte(b0), byte(b1)}, tail...))
		}
	}
	prefixes := []byte{0x66, 0x67, 0xf0, 0xf2, 0xf3, 0x26, 0x2e, 0x36, 0x3e, 0x64, 0x65}
	for i := 0; i < 40000; i++ {
		enc := []byte{prefixes[r.Intn(len(prefixes))]}
		if r.Intn(2) == 0 {
			enc = append(enc, prefixes[r.Intn(len(prefixes))])
		}
		r.Read(tail)
		yield(append(enc, tail...))
	}
}

// TestShapeCoversMatch is the soundness of the sweep-start prune as a
// property, for every statement of every template and every node of
// every candidate frame, in both instruction orders:
//
//   - an instruction a statement's shape accepts has an opcode in the
//     statement's stmtOpMask (the table's first level never hides an
//     instruction from the second);
//   - a node matchStmt accepts in an order that is address order — the
//     linear sweep always, the threaded order when no in-frame jmp/call
//     splices the frame — is prunable for that statement. The linear
//     pruner's bit is shape plus the back-edge address test, and this
//     is the check that the address test never rejects a back edge the
//     matcher takes. A spliced threaded order departs from address
//     order, and its pruner (x86.ViabilityTable.ViableOrder) asks
//     shape alone.
func TestShapeCoversMatch(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine over ~240k frames: ten times slower under the race detector, with nothing for it to find")
	}
	type stmtCase struct {
		tpl string
		st  *cstmt
		ops opMask
		has bool
	}
	var stmts []stmtCase
	seen := map[string]bool{}
	for _, tpl := range BuiltinTemplates() {
		ct := tpl.compiled()
		for i := range ct.stmts {
			st := &ct.stmts[i]
			if st.Kind == SFrameData {
				continue
			}
			// The templates repeat some statements; one copy of each
			// distinct statement is enough.
			if key := formatStmt(&st.Stmt); !seen[key] {
				seen[key] = true
				ops, ok := stmtOpMask(&st.Stmt)
				stmts = append(stmts, stmtCase{tpl.Name, st, ops, ok})
			}
		}
	}

	prologue := shapePrologue()
	frame := make([]byte, 0, len(prologue)+16)
	var cache x86.DecodeCache
	var prog ir.Program
	var m matcher
	accepted := map[StmtKind]int{}
	shapeCandidates(func(enc []byte) {
		frame = append(append(frame[:0], prologue...), enc...)
		cache.Reset(frame)
		sweep := cache.Sweep(0)
		connector := false
		for _, in := range sweep {
			// x86.DecodeCache.Viable's connector: an in-frame jmp/call.
			connector = connector || (in.Op == x86.JMP || in.Op == x86.CALL) &&
				in.HasTarget && in.Target >= 0 && int(in.Target) < len(frame)
		}
		prog.Reuse(sweep)
		for o, nodes := range [][]ir.Node{prog.Nodes, prog.Raw} {
			addressOrder := o == 1 || !connector
			m.reset(nodes, frame)
			m.buildTables()
			m.matched = m.matched[:0]
			for i := range nodes {
				in := nodes[i].Inst
				for _, sc := range stmts {
					if sc.has && sc.st.shape(in) && !sc.ops.Has(in.Op) {
						t.Fatalf("%s: shape accepts %v (% x) but stmtOpMask lacks %v", sc.tpl, in, enc, in.Op)
					}
					var nb binding
					if !m.matchStmt(sc.st, i, &nb) {
						continue
					}
					accepted[sc.st.Kind]++
					if addressOrder && !sc.st.prunable(in) {
						t.Fatalf("%s: matchStmt accepts %v at %d (% x) but the pruner clears its bit", sc.tpl, in, in.Addr, enc)
					}
				}
			}
		}
	})
	for _, k := range []StmtKind{SMemXform, SMemLoad, SMemStore, SRegXform, SAdvance, SBackEdge, SSyscall, SConstInRange, SIndirect} {
		if accepted[k] == 0 {
			t.Errorf("no candidate was accepted for statement kind %d: the property is vacuous for it", k)
		}
	}
}

// forwardBackEdgeLoop is a decryption loop whose back edge points
// forward in address order: the branch block sits before the body and
// is reached through jmps, so in execution (threaded) order its target
// has already run. connected=false replaces the two jmps by nops of
// the same length, leaving a forward branch nothing executes as a
// loop.
func forwardBackEdgeLoop(connected bool) []byte {
	a := x86.NewAsm()
	if connected {
		a.JmpShort("body")
	} else {
		a.Nop().Nop()
	}
	a.Label("tail").JccShort(x86.CondNE, "body").Nop()
	a.Label("body").
		I(x86.XOR, mem8(x86.ESI), x86.ImmOp(0x55)).
		IncR(x86.ESI)
	if connected {
		a.JmpShort("tail")
	} else {
		a.Nop().Nop()
	}
	return a.MustBytes()
}

// TestForwardBackEdgeViableThroughConnector pins the one place the
// pruner knows more than shape: in the linear order a conditional
// branch whose target lies ahead of it earns no back-edge bit. The
// loop built around one stays viable only because the jmps that make
// it a loop splice the sweep, so its threaded order is scanned too,
// with shape alone, and there the branch closes the loop.
func TestForwardBackEdgeViableThroughConnector(t *testing.T) {
	xor := []*Template{builtinTemplate(t, "xor-decrypt-loop")}
	pruned, baseline := NewAnalyzer(xor), NewAnalyzer(xor)
	baseline.DisableSweepPrune = true

	loop := forwardBackEdgeLoop(true)
	ds := templateDetections(pruned.AnalyzeFrame(loop))
	if len(ds) != 1 || ds[0].Template != "xor-decrypt-loop" || ds[0].Order != "threaded" {
		t.Fatalf("threaded forward-address loop: pruned analyzer reported %v", ds)
	}
	if want := templateDetections(baseline.AnalyzeFrame(loop)); len(want) != 1 || want[0].String() != ds[0].String() {
		t.Fatalf("pruned %v, baseline %v", ds, want)
	}
	jcc, err := x86.Decode(loop, 2)
	if err != nil || !jcc.Op.IsCondBranch() || jcc.Target <= jcc.Addr {
		t.Fatalf("instruction at 2 is %v (%v), want a forward jcc", jcc, err)
	}
	backEdge := &xor[0].compiled().stmts[2]
	if !backEdge.shape(&jcc) || backEdge.prunable(&jcc) {
		t.Errorf("forward jcc: shape %v, prunable %v; want shape without the pruner's bit",
			backEdge.shape(&jcc), backEdge.prunable(&jcc))
	}

	// Without the connectors the same bytes hold no loop, and the
	// pruner says so before anything is lifted.
	flat := forwardBackEdgeLoop(false)
	if ds := templateDetections(baseline.AnalyzeFrame(flat)); len(ds) != 0 {
		t.Fatalf("baseline detected %v in the unconnected frame", ds)
	}
	_, before := pruned.SweepStats()
	if ds := templateDetections(pruned.AnalyzeFrame(flat)); len(ds) != 0 {
		t.Fatalf("pruned analyzer detected %v in the unconnected frame", ds)
	}
	if _, after := pruned.SweepStats(); after != before {
		t.Errorf("unconnected forward branch: %d sweep starts lifted, want 0", after-before)
	}
}

// TestPruneStopsAtUndescribedStatement: a statement without an opcode
// vocabulary can match the node that ends a run (SConst matches ret's
// immediate, or the raw byte an undecodable instruction carries), so
// the statements after it may sit in the next run and must not be
// required in the same one.
func TestPruneStopsAtUndescribedStatement(t *testing.T) {
	tpl := &Template{Name: "split", Stmts: []Stmt{
		{Kind: SMemLoad, Ptr: "A", Reg: "R"},
		{Kind: SConst, Values: []uint32{0x0f}},
		{Kind: SSyscall, Num: sysExecve},
	}}
	frame := x86.NewAsm().
		I(x86.MOV, x86.RegOp(x86.BL), mem8(x86.ESI)).
		Raw(0xc2, 0x0f, 0x00). // ret 0xf
		MovRI(x86.EAX, sysExecve).
		IntN(0x80).
		MustBytes()
	pruned, baseline := NewAnalyzer([]*Template{tpl}), NewAnalyzer([]*Template{tpl})
	baseline.DisableSweepPrune = true
	want := baseline.AnalyzeFrame(frame)
	if len(want) != 1 {
		t.Fatalf("baseline reported %v, want the split template (the matcher accepts a matched breaker)", want)
	}
	if got := pruned.AnalyzeFrame(frame); len(got) != 1 || got[0].String() != want[0].String() {
		t.Errorf("pruned %v, baseline %v", got, want)
	}
}
