package sem

import (
	"math/rand"
	"testing"

	"semnids/internal/x86"
)

// witnessRef is the byte witness read forward from every position, as
// the patterns are stated: CD 80; FF; a rel8 opcode and a sign byte
// ≥ 80 after it; E8/E9 and one at +2 or +4; 0F 80–8F and one at +3 or
// +5. scanWitness must agree with it on every frame.
func witnessRef(frame []byte) uint8 {
	high := func(i int) bool { return i < len(frame) && frame[i] >= 0x80 }
	var found uint8
	for p, op := range frame {
		switch {
		case op == 0xff:
			found |= witIndirect
		case op == 0xcd && p+1 < len(frame) && frame[p+1] == 0x80:
			found |= witSyscall
		case op >= 0x70 && op <= 0x7f, op >= 0xe0 && op <= 0xe3, op == 0xeb:
			if high(p + 1) {
				found |= witBackward
			}
		case op == 0xe8, op == 0xe9:
			if high(p+2) || high(p+4) {
				found |= witBackward
			}
		case op == 0x0f && p+1 < len(frame) && frame[p+1]&0xf0 == 0x80:
			if high(p+3) || high(p+5) {
				found |= witBackward
			}
		}
	}
	return found
}

// witnessFrame is n bytes of text with a few short runs drawn from the
// witnesses' own bytes at random positions, so that each pattern, near
// or astride a word boundary, is often the only one in the frame.
func witnessFrame(r *rand.Rand, n int) []byte {
	alphabet := []byte{0x0f, 0x66, 0x70, 0x75, 0x7f, 0x80, 0x85, 0x8f, 0x90, 0xcd, 0xe2, 0xe3, 0xe8, 0xe9, 0xeb, 0xfa, 0xff, 'A', 'p', ' '}
	b := make([]byte, n)
	for i := range b {
		b[i] = 'A'
	}
	for k := r.Intn(4); k > 0 && n > 0; k-- {
		for p, l := r.Intn(n), 1+r.Intn(6); l > 0 && p < n; p, l = p+1, l-1 {
			b[p] = alphabet[r.Intn(len(alphabet))]
		}
	}
	return b
}

// TestScanWitnessMatchesReference holds the word-at-a-time scan to the
// forward byte-at-a-time statement of the patterns, at every length up
// to a few words and on longer frames.
func TestScanWitnessMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 20000; i++ {
		n := i % 40
		if i%10 == 0 {
			n = r.Intn(600)
		}
		frame := witnessFrame(r, n)
		if got, want := scanWitness(frame), witnessRef(frame); got != want {
			t.Fatalf("% x: scanWitness %03b, reference %03b", frame, got, want)
		}
	}
	if got := scanWitness([]byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n")); got != 0 {
		t.Errorf("protocol text holds witnesses %03b", got)
	}
}

// transferCandidates yields every relative transfer, int and FF
// encoding behind each prefix the decoder takes, with random operand
// bytes: the prefixed forms shapeCandidates reaches only by chance,
// the 66-prefixed rel16 reading among them.
func transferCandidates(yield func(enc []byte)) {
	r := rand.New(rand.NewSource(37))
	var ops [][]byte
	for op := 0x70; op <= 0x7f; op++ {
		ops = append(ops, []byte{byte(op)})
	}
	for _, op := range []byte{0xe0, 0xe1, 0xe2, 0xe3, 0xe8, 0xe9, 0xeb, 0xcd} {
		ops = append(ops, []byte{op})
	}
	for op := 0x80; op <= 0x8f; op++ {
		ops = append(ops, []byte{0x0f, byte(op)})
	}
	for modrm := 0; modrm < 256; modrm++ {
		ops = append(ops, []byte{0xff, byte(modrm)})
	}
	tail := make([]byte, 6)
	for _, p := range []byte{0x66, 0x67, 0xf0, 0xf2, 0xf3, 0x26, 0x2e, 0x36, 0x3e, 0x64, 0x65} {
		for _, op := range ops {
			for i := 0; i < 8; i++ {
				r.Read(tail)
				yield(append(append([]byte{p}, op...), tail...))
				yield(append(append([]byte{p, 0x66}, op...), tail...))
			}
		}
	}
}

// TestWitnessCoversShape is the soundness of the byte witness as a
// property over the instruction spaces TestShapeCoversMatch walks, plus
// every prefixed transfer. A frame that lacks a statement's witness
// must hold no instruction the matcher can accept for it, in either
// order, so on every decoded instruction:
//
//   - an instruction shape accepts for a syscall or indirect statement
//     shows that statement's witness in its own bytes;
//   - a conditional branch shape accepts for a back edge whose target
//     lies below it (what the matcher needs in an order that is address
//     order, prunable's test without its in-frame bound, which only the
//     frame's length decides) shows witBackward, and so does every jmp
//     or call with a target below it, the only transfers that take
//     ThreadOrderAppend out of address order;
//
// and a sweep without such a jmp or call threads in address order,
// where a back edge the matcher takes is one prunable accepts.
func TestWitnessCoversShape(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine over ~250k frames: ten times slower under the race detector, with nothing for it to find")
	}
	var stmts []*cstmt
	seen := map[string]bool{}
	for _, tpl := range BuiltinTemplates() {
		ct := tpl.compiled()
		for i := range ct.stmts {
			st := &ct.stmts[i]
			if key := formatStmt(&st.Stmt); stmtWitness(st.Kind) != 0 && !seen[key] {
				seen[key] = true
				stmts = append(stmts, st)
			}
		}
	}

	prologue := shapePrologue()
	frame := make([]byte, 0, len(prologue)+16)
	var cache x86.DecodeCache
	var order []*x86.Inst
	accepted := map[uint8]int{}
	check := func(enc []byte) {
		frame = append(append(frame[:0], prologue...), enc...)
		cache.Reset(frame)
		sweep := cache.Sweep(0)
		backward := false
		for _, in := range sweep {
			w := scanWitness(frame[in.Addr : int(in.Addr)+int(in.Len)])
			for _, st := range stmts {
				ok := st.shape(in)
				if st.Kind == SBackEdge {
					ok = ok && in.Target < in.Addr
				}
				if want := stmtWitness(st.Kind); ok {
					accepted[want]++
					if w&want == 0 {
						t.Fatalf("%v (% x) passes %s but its bytes show witnesses %03b", in, enc, formatStmt(&st.Stmt), w)
					}
				}
			}
			if (in.Op == x86.JMP || in.Op == x86.CALL) && in.HasTarget && in.Target < in.Addr {
				backward = true
				accepted[0]++
				if w&witBackward == 0 {
					t.Fatalf("backward %v (% x) shows witnesses %03b", in, enc, w)
				}
			}
		}
		if backward {
			return
		}
		order = x86.ThreadOrderAppend(order[:0], sweep)
		for i := 1; i < len(order); i++ {
			if order[i].Addr <= order[i-1].Addr {
				t.Fatalf("% x: no backward jmp or call, yet the threaded order visits %d after %d", enc, order[i].Addr, order[i-1].Addr)
			}
		}
	}
	shapeCandidates(check)
	transferCandidates(check)
	for _, w := range []uint8{0, witSyscall, witIndirect, witBackward} {
		if accepted[w] == 0 {
			t.Errorf("no candidate needed witness %03b: the property is vacuous for it", w)
		}
	}
}

// checkWitnessRejects holds the witness to what it claims, for every
// template of a it rejects on frame: the unpruned analyzer over that
// template alone (solo, by template index) detects nothing, and when a
// missing byte witness rejected it, no sweep start is viable for it in
// either order. The threaded order is asked with the test valid for
// it: prunable while it is address order, shape alone once a spliced
// jmp or call takes it elsewhere. A template rejected only for a
// missing SFrameData string is not asked: the viability tables know no
// strings.
func checkWitnessRejects(t testing.TB, a *Analyzer, solo []*Analyzer, frame []byte) {
	t.Helper()
	found := scanWitness(frame)
	if want := witnessRef(frame); found != want {
		t.Fatalf("scanWitness %03b, reference %03b", found, want)
	}
	var cache *x86.DecodeCache
	var order []*x86.Inst
	for ti, tpl := range a.Templates {
		ct := tpl.compiled()
		if ct.witness.heldBy(frame, found) {
			continue
		}
		if ds := templateDetections(solo[ti].AnalyzeFrame(frame)); len(ds) != 0 {
			t.Fatalf("the witness rejects %s, the unpruned analyzer detects %v", tpl.Name, ds)
		}
		if ct.witness.bytes&^found == 0 {
			continue
		}
		if cache == nil {
			cache = x86.NewDecodeCache(frame)
		}
		bit := a.tplBit[ti]
		for off := range frame {
			if cache.Viable(off, a.pruneTable, bit) {
				t.Fatalf("the witness rejects %s, the linear sweep from %d is viable for it", tpl.Name, off)
			}
			if !cache.Splices(off) {
				continue // threads to a prefix of the linear sweep
			}
			order = x86.ThreadOrderAppend(order[:0], cache.Sweep(off))
			table := a.pruneTable
			for i := 1; i < len(order); i++ {
				if order[i].Addr <= order[i-1].Addr {
					table = a.threadTable
					break
				}
			}
			if table.ViableOrder(order, bit) {
				t.Fatalf("the witness rejects %s, the threaded order from %d is viable for it", tpl.Name, off)
			}
		}
	}
}

// soloBaselines returns, per template of a, an unpruned analyzer over
// that template alone at the exhaustive offsets.
func soloBaselines(a *Analyzer) []*Analyzer {
	out := make([]*Analyzer, len(a.Templates))
	for i, tpl := range a.Templates {
		out[i] = NewAnalyzer([]*Template{tpl})
		out[i].DisableSweepPrune = true
		out[i].SweepOffsets = wideOffsets()
	}
	return out
}

// TestWitnessRejectsText pins the skip on protocol text: the witness
// rejects every built-in template, so nothing is decoded.
func TestWitnessRejectsText(t *testing.T) {
	frame := pruneCorpora(t)["text"]
	found := scanWitness(frame)
	for _, tpl := range BuiltinTemplates() {
		if tpl.compiled().witness.heldBy(frame, found) {
			t.Errorf("the witness keeps %s on protocol text", tpl.Name)
		}
	}
}
