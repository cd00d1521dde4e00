package sem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semnids/internal/emu"
	"semnids/internal/exploits"
	"semnids/internal/morph"
	"semnids/internal/polymorph"
	"semnids/internal/shellcode"
)

// decodedTailReference is decodedTail before attempts were merged: a
// fresh emulator per entry (its one attempt has nothing to merge
// into), every entry run to its end from the pristine frame, the whole
// memory compared against the frame. It is the oracle the merging path
// is held to.
func decodedTailReference(frame []byte, entries []int) (a, b uint64, n int) {
	if len(frame) > sketchMaxFrame {
		return 0, 0, 0
	}
	var best, tail []byte
	tried := 0
	for _, entry := range entries {
		if tried >= sketchMaxEntries {
			break
		}
		if entry < 0 || entry >= len(frame) {
			continue
		}
		tried++
		m := emu.New(frame)
		m.MaxSteps = sketchMaxSteps
		m.Explore(entry)
		tail = tail[:0]
		for i, c := range m.Mem {
			if c != frame[i] {
				tail = append(tail, c)
			}
		}
		if len(tail) > len(best) {
			best, tail = tail, best
		}
	}
	if len(best) == 0 {
		return 0, 0, 0
	}
	a, b = hashPair(sketchBasis1, sketchBasis2, best)
	return a, b, len(best)
}

// tailResult is what decodedTail returns for one frame.
type tailResult struct {
	a, b uint64
	n    int
}

// checkTail runs decodedTail on sc and the reference and fails on any
// difference; it adds the attempts' outcomes to counts.
func checkTail(t testing.TB, sc *frameScratch, name string, frame []byte, entries []int, counts *attemptCounts) tailResult {
	t.Helper()
	var got, want tailResult
	var n attemptCounts
	got.a, got.b, got.n = decodedTail(sc, frame, entries, &n)
	want.a, want.b, want.n = decodedTailReference(frame, entries)
	if got != want {
		t.Fatalf("%s entries %v: merged tail %x/%x/%d, reference %x/%x/%d",
			name, entries, got.a, got.b, got.n, want.a, want.b, want.n)
	}
	if n.attempts != n.run+n.merged+n.stepLimit {
		t.Fatalf("%s entries %v: %d attempts, %d run + %d merged + %d step-limited",
			name, entries, n.attempts, n.run, n.merged, n.stepLimit)
	}
	counts.attempts += n.attempts
	counts.run += n.run
	counts.merged += n.merged
	counts.stepLimit += n.stepLimit
	return got
}

// entryLists derives the entry lists a frame is checked under: the
// analyzer's sweep offsets, a shuffle of them, one with duplicates and
// out-of-range offsets, and a few random offsets into the frame.
func entryLists(rng *rand.Rand, frameLen int) [][]int {
	shuffled := []int{0, 1, 2, 3}
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	random := make([]int, 5)
	for i := range random {
		random[i] = rng.Intn(frameLen)
	}
	return [][]int{
		{0, 1, 2, 3},
		shuffled,
		{2, 2, -1, 0, 0, frameLen, 3, 1},
		random,
	}
}

// TestDecodedTailMergeDifferential holds the merging decodedTail to
// the reference over CLET and ADMmutate encodings of every corpus
// payload at 50 seeds (bare and packed into the overflow layout), over
// morph rewrites, and over random junk, each under several entry
// lists. One scratch serves every frame, as a pooled one does. The
// merge path must actually be taken: every multi-entry sweep over an
// encoded frame converges.
func TestDecodedTailMergeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc frameScratch
	var counts attemptCounts
	check := func(name string, frame []byte) {
		for _, entries := range entryLists(rng, len(frame)) {
			checkTail(t, &sc, name, frame, entries, &counts)
		}
	}
	seeds, morphed := 50, 0
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for pi, p := range shellcode.Corpus() {
			for _, eng := range []struct {
				name string
				enc  interface {
					Encode([]byte) ([]byte, polymorph.Meta, error)
				}
			}{
				{"clet", polymorph.NewClet(seed*100 + int64(pi))},
				{"adm", polymorph.NewADMmutate(seed*100 + int64(pi))},
			} {
				frame, _, err := eng.enc.Encode(p.Bytes)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%d/%s", eng.name, seed, p.Name)
				check(name, frame)
				if seed <= 5 {
					check(name+"/packed", exploits.PackOverflow(frame, exploits.OverflowOpts{}))
				}
			}
			if seed > 5 {
				continue
			}
			// morph refuses payloads that carry data bytes among their
			// instructions; the rest are checked bare and encoded.
			mutated, err := morph.New(seed).Mutate(p.Bytes)
			if err != nil {
				continue
			}
			morphed++
			check(fmt.Sprintf("morph/%d/%s", seed, p.Name), mutated)
			enc, _, err := polymorph.NewClet(seed).Encode(mutated)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("morph/%d/%s/clet", seed, p.Name), enc)
		}
	}
	if morphed == 0 {
		t.Fatal("morph rewrote no corpus payload")
	}
	for i := int64(0); i < 40; i++ {
		check(fmt.Sprintf("junk/%d", i), junkFrame(i, 16+int(i)*37))
	}
	if counts.merged == 0 {
		t.Fatalf("no attempt merged over %d attempts; the merge path went untested", counts.attempts)
	}
	t.Logf("%d attempts: %d run, %d merged, %d step-limited", counts.attempts, counts.run, counts.merged, counts.stepLimit)
}

// asm assembles a crafted frame from byte strings and dword operands.
func asm(parts ...any) []byte {
	var out []byte
	for _, p := range parts {
		switch v := p.(type) {
		case []byte:
			out = append(out, v...)
		case byte:
			out = append(out, v)
		case uint32:
			out = binary.LittleEndian.AppendUint32(out, v)
		default:
			panic(fmt.Sprintf("asm: %T", p))
		}
	}
	return out
}

// TestDecodedTailMergeCrafted pins the cases where merging would be
// wrong. In each, two attempts reach the same pristine-memory state, a
// merge would drop the later one, and the later one's tail is the
// longer, so the wrong merge changes the result.
func TestDecodedTailMergeCrafted(t *testing.T) {
	const (
		nop      = byte(0x90)
		movECX   = byte(0xb9) // mov ecx, imm32
		movEDI   = byte(0xbf) // mov edi, imm32
		loopSelf = "\xe2\xfe" // loop $
		stosb    = byte(0xaa)
		hlt      = byte(0xf4)
	)
	storeByte0 := func(v byte) []byte { return []byte{0xc6, 0x05, 0, 0, 0, 0, v} } // mov byte [0], v
	cases := []struct {
		name    string
		frame   []byte
		entries []int
		wantN   int
	}{{
		// Entry 0 walks three nops into a countdown that outlasts its
		// step budget by three steps, so it ends at the step limit
		// before storing. Entry 3 starts at the countdown with those
		// three steps to spare and stores. An attempt that hit the
		// step limit must never be merged into.
		name: "step-limited earlier attempt",
		frame: asm([]byte{nop, nop, nop}, movECX, uint32(sketchMaxSteps-4), []byte(loopSelf),
			storeByte0(0x41)),
		entries: []int{0, 3},
		wantN:   1,
	}, {
		// Entry 3 stores 0x41 over byte 0, counts down and restores
		// it: it finishes within budget with no tail. Entry 0 reaches
		// the same state three steps later, runs out of steps in the
		// countdown and keeps the 0x41. Merging needs the budget left
		// to cover the earlier attempt's remaining steps.
		name: "convergence near the step limit",
		frame: asm([]byte{nop, nop, nop}, storeByte0(0x41), movECX, uint32(sketchMaxSteps-5),
			[]byte(loopSelf), storeByte0(nop)),
		entries: []int{3, 0},
		wantN:   1,
	}, {
		// std; jmp S  |  cld; nop  |  S: fill three bytes at 24 with
		// stosb. Backwards (entry 0) it rewrites one byte, the other
		// two already hold 0x41; forwards (entry 3) all three.
		name: "states differing only in DF",
		frame: asm([]byte{0xfd, 0xeb, 0x02, 0xfc, nop},
			movEDI, uint32(24), []byte{0xb0, 0x41}, movECX, uint32(3), stosb, []byte{0xe2, 0xfd}, hlt,
			[]byte{0, 0x41, 0x41, 0, 0, 0, 0}),
		entries: []int{0, 3},
		wantN:   3,
	}, {
		// push 1; jmp S  |  push 3  |  S: pop ecx and fill ecx bytes
		// at 20. ESP and every register agree at S; only the pushed
		// dword differs.
		name: "states differing only in stack contents",
		frame: asm([]byte{0x6a, 0x01, 0xeb, 0x02, 0x6a, 0x03, 0x59},
			movEDI, uint32(20), []byte{0xb0, 0x41}, stosb, []byte{0xe2, 0xfd}, hlt,
			[]byte{0, 0, 0, 0, 0, 0}),
		entries: []int{0, 4},
		wantN:   3,
	}}
	var sc frameScratch
	for _, c := range cases {
		var counts attemptCounts
		got := checkTail(t, &sc, c.name, c.frame, c.entries, &counts)
		if got.n != c.wantN {
			t.Errorf("%s: tail of %d bytes, want %d", c.name, got.n, c.wantN)
		}
	}
}

// FuzzSketchMerge holds decodedTail to the reference on arbitrary
// frames and entry lists (each entry byte is a signed offset, so
// negative and out-of-range entries occur). Seeds are encoded decoders
// and a NOP-sled packing, where every entry converges.
func FuzzSketchMerge(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		clet, _, err := polymorph.NewClet(seed).Encode(shellcode.ClassicPush().Bytes)
		if err != nil {
			f.Fatal(err)
		}
		adm, _, err := polymorph.NewADMmutate(seed).Encode(shellcode.Dup2Shell().Bytes)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(clet, []byte{0, 1, 2, 3})
		f.Add(adm, []byte{3, 2, 1, 0})
		f.Add(exploits.PackOverflow(clet, exploits.OverflowOpts{}), []byte{0, 0, 5, 0xff, 1})
	}
	f.Fuzz(func(t *testing.T, frame, entryBytes []byte) {
		if len(frame) == 0 || len(frame) > 4096 || len(entryBytes) > 8 {
			return
		}
		entries := make([]int, len(entryBytes))
		for i, e := range entryBytes {
			entries[i] = int(int8(e))
		}
		sc := scratchPool.Get().(*frameScratch)
		defer scratchPool.Put(sc)
		var counts attemptCounts
		checkTail(t, sc, "fuzz", frame, entries, &counts)
	})
}

// TestSketchPoolReuse sketches distinct frames of one length through
// one analyzer from several goroutines at once, so pooled machines are
// handed frames they last ran a different same-length frame over; each
// decoded tail must equal a fresh emulator's.
func TestSketchPoolReuse(t *testing.T) {
	a := NewAnalyzer(BuiltinTemplates())
	var frames [][]byte
	for seed := int64(1); seed <= 6; seed++ {
		for _, p := range []shellcode.Shellcode{shellcode.ClassicPush(), shellcode.Dup2Shell()} {
			frame, _, err := polymorph.NewClet(seed).Encode(p.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
		}
	}
	size := 0
	for _, f := range frames {
		size = max(size, len(f))
	}
	want := make([]tailResult, len(frames))
	ds := make([][]Detection, len(frames))
	for i, f := range frames {
		f = append(f, make([]byte, size-len(f))...) // equal lengths, distinct bytes
		frames[i] = f
		if ds[i] = a.AnalyzeFrame(f); len(ds[i]) == 0 {
			t.Fatalf("frame %d: no detections", i)
		}
		want[i].a, want[i].b, want[i].n = decodedTailReference(f, a.SweepOffsets)
		if want[i].n == 0 {
			t.Fatalf("frame %d: the reference recovered no tail", i)
		}
	}
	const workers, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range frames {
					i := (k*7 + w + r) % len(frames)
					sk := a.Sketch(frames[i], ds[i])
					if got := (tailResult{sk.TailA, sk.TailB, sk.TailN}); got != want[i] {
						errs <- fmt.Errorf("worker %d round %d frame %d: tail %+v, fresh emulator %+v", w, r, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	attempts, run, merged, limited := a.SketchAttempts()
	if attempts != run+merged+limited || merged == 0 {
		t.Errorf("sketch attempts %d = run %d + merged %d + step-limited %d, want a balanced sum with merges", attempts, run, merged, limited)
	}
}
