package sem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"semnids/internal/emu"
	"semnids/internal/ir"
	"semnids/internal/x86"
)

// Analyzer runs a template set over extracted binary frames. It is the
// final stage of the NIDS pipeline (component (e) in the paper's
// architecture).
//
// An Analyzer holds only configuration; AnalyzeFrame draws its working
// state (decode cache, lifted program, matcher tables) from a pool, so
// one long-lived Analyzer may be shared by any number of concurrent
// workers.
type Analyzer struct {
	Templates []*Template

	// SweepOffsets are the starting offsets tried when disassembling a
	// frame; x86 decoding self-synchronizes quickly, so a handful of
	// offsets covers misaligned extraction.
	SweepOffsets []int

	// DisableSweepPrune turns off the frame's byte witness and the
	// sweep-start viability pass (the per-offset pruning described
	// below) — the ablation baseline, and the reference the
	// differential tests compare against.
	DisableSweepPrune bool

	// Sweep-start viability state, built once per template set by
	// NewAnalyzer: pruneTable encodes each mandatory restricted-
	// vocabulary statement as a statement bit and each template as the
	// conjunction of its statement bits; tplBit[i] is the viability
	// bit of Templates[i] (0 = the template could not be encoded and
	// is treated as viable everywhere). A sweep offset from which no
	// flow-unbroken run of either instruction order can satisfy any
	// undetected candidate's conjunction is skipped without lifting or
	// matching: pruneTable answers for the linear order
	// (x86.DecodeCache.Viable), threadTable for the threaded order of
	// a sweep that splices (x86.ViabilityTable.ViableOrder).
	pruneTable, threadTable *x86.ViabilityTable
	tplBit                  []uint64

	// sweepStarts counts the sweep offsets the offset loop reached,
	// sweepLifted those it went on to lift and match (SweepStats).
	sweepStarts, sweepLifted atomic.Uint64

	// searchExhausted counts template searches that ran out of
	// maxSearchSteps (SearchesExhausted); the sketch counters count
	// decoded-tail emulation attempts and how each ended
	// (SketchAttempts).
	searchExhausted                                      atomic.Uint64
	sketchAttempts, sketchRun, sketchMerged, sketchLimit atomic.Uint64
}

// SweepStats reports how many sweep starts the analyzer has considered
// over its lifetime and how many of them it lifted and matched; the
// rest were skipped by the sweep-start viability pass. Added once per
// analyzed frame, safe to read concurrently.
func (a *Analyzer) SweepStats() (considered, lifted uint64) {
	return a.sweepStarts.Load(), a.sweepLifted.Load()
}

// SearchesExhausted reports how many template searches stopped at the
// backtracking budget rather than deciding; each counts as no match.
// Safe to read concurrently.
func (a *Analyzer) SearchesExhausted() uint64 { return a.searchExhausted.Load() }

// SketchAttempts reports the emulation attempts Sketch has made to
// recover decoded tails and how they ended: run to a stop or an
// emulator error, merged into an earlier attempt over the same frame
// (emu.ErrMerged), or cut off at the step limit. attempts = run +
// merged + stepLimit once no Sketch is in flight.
func (a *Analyzer) SketchAttempts() (attempts, run, merged, stepLimit uint64) {
	return a.sketchAttempts.Load(), a.sketchRun.Load(), a.sketchMerged.Load(), a.sketchLimit.Load()
}

// NewAnalyzer returns an analyzer over the given templates with
// default settings. The templates are compiled eagerly, so an invalid
// template (more than maxTemplateVars distinct variables) panics here,
// in the constructing goroutine, rather than on the first analyzed
// frame inside a worker.
func NewAnalyzer(tpls []*Template) *Analyzer {
	for _, t := range tpls {
		t.Compile()
	}
	a := &Analyzer{
		Templates:    tpls,
		SweepOffsets: []int{0, 1, 2, 3},
	}
	a.buildPrune()
	return a
}

// buildPrune assigns one statement bit to each mandatory restricted-
// vocabulary statement across the template set (up to 64 statements
// and 64 templates) and builds the two viability tables driving the
// sweep-start pass. An instruction earns a statement's bit when its
// opcode is in the statement's vocabulary and it passes the
// statement's own shape test: prunable on the linear order, where a
// back edge's already-visited target is a lower address, and shape on
// the threaded order, where it is not. A template that got no
// statement bits (unrestricted vocabulary, or bit budget exhausted)
// ends with tplBit == 0, which makes every offset viable whenever it
// is an undetected candidate — pruning can only ever skip offsets that
// provably cannot match.
func (a *Analyzer) buildPrune() {
	var masks []x86.OpSet
	var stmts []*cstmt // statement bit -> its statement
	var reqs []uint64
	a.tplBit = make([]uint64, len(a.Templates))
	for i, tpl := range a.Templates {
		if len(reqs) >= 64 {
			break
		}
		ct := tpl.compiled()
		var req uint64
		for j := range ct.stmts {
			st := &ct.stmts[j]
			if st.Kind == SFrameData {
				continue // zero-width: consumes no instruction
			}
			if !st.hasOps || st.ops.Has(x86.BAD) || st.ops.Has(x86.RET) || st.ops.Has(x86.HLT) {
				// A statement the table cannot describe may match any
				// node, a run-breaking one included (SConst matches
				// the raw byte a BAD carries), and the statements
				// after it then sit in the next run. Requiring only
				// the statements before it keeps the conjunction
				// inside one run.
				if req != 0 {
					break
				}
				continue
			}
			if st.Optional || len(masks) >= 64 {
				continue
			}
			req |= 1 << uint(len(masks))
			masks = append(masks, st.ops)
			stmts = append(stmts, st)
		}
		if req == 0 {
			continue
		}
		a.tplBit[i] = 1 << uint(len(reqs))
		reqs = append(reqs, req)
	}
	if len(masks) == 0 {
		return
	}
	// The two closures differ in one call. Each names its test
	// directly: a test passed in as a method value stops inlining.
	a.pruneTable = x86.NewViabilityTable(masks, reqs)
	a.pruneTable.SetShape(func(in *x86.Inst, earned uint64) uint64 {
		keep := earned
		for rest := earned; rest != 0; rest &= rest - 1 {
			if k := bits.TrailingZeros64(rest); !stmts[k].prunable(in) {
				keep &^= 1 << uint(k)
			}
		}
		return keep
	})
	a.threadTable = x86.NewViabilityTable(masks, reqs)
	a.threadTable.SetShape(func(in *x86.Inst, earned uint64) uint64 {
		keep := earned
		for rest := earned; rest != 0; rest &= rest - 1 {
			if k := bits.TrailingZeros64(rest); !stmts[k].shape(in) {
				keep &^= 1 << uint(k)
			}
		}
		return keep
	})
}

// viable reports whether a sweep from off could yield a detection of a
// template in want in either instruction order. The threaded order is
// threaded and scanned only when the sweep splices; otherwise it is a
// prefix of the linear order, in address order, and the linear answer
// covers it.
func (a *Analyzer) viable(sc *frameScratch, off int, want uint64) bool {
	if sc.cache.Viable(off, a.pruneTable, want) {
		return true
	}
	if !sc.cache.Splices(off) {
		return false
	}
	sc.order = x86.ThreadOrderAppend(sc.order[:0], sc.cache.Sweep(off))
	return a.threadTable.ViableOrder(sc.order, want)
}

// frameScratch is the reusable per-AnalyzeFrame working state: the
// memoized decode cache, the lifted program, the matcher's index
// tables, the threaded order the prune scans and the small
// bookkeeping slices. Pooling it makes the whole hot path
// allocation-free in steady state. Sketch draws from the same pool for
// its emulator and the two tail buffers decodedTail swaps;
// emu.Machine.Load decodes each frame afresh.
type frameScratch struct {
	cache x86.DecodeCache
	prog  ir.Program
	m     matcher
	order []*x86.Inst
	seen  []string
	cands []candidate

	mach       emu.Machine
	best, tail []byte
}

// candidate pairs a template with its compiled form for the offset
// loop, after the frame-level prefilter. bit carries the template's
// viability bit for the sweep-start prune (0 = always viable).
type candidate struct {
	tpl *Template
	ct  *compiledTemplate
	bit uint64
}

var scratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

// AnalyzeFrame disassembles and lifts the frame at several offsets and
// matches every template against both the threaded (execution) order
// and the raw sweep order, plus the data-level detectors. At most one
// detection per template name is reported.
func (a *Analyzer) AnalyzeFrame(frame []byte) []Detection {
	return a.AnalyzeScreened(a.Screen(frame))
}

// AnalyzeFrameCached is AnalyzeFrame; cache is ignored.
//
// Deprecated: use AnalyzeFrame.
func (a *Analyzer) AnalyzeFrameCached(frame []byte, _ *x86.DecodeCache) []Detection {
	return a.AnalyzeFrame(frame)
}

// Screen is what one pass over a frame's bytes, before any decode,
// tells the analyzer: the frame, the byte witnesses it shows
// (witness.go) and whether its verdict is already known to be empty.
type Screen struct {
	frame []byte
	found uint8
	empty bool
}

// Empty reports that the screened frame's verdict is empty: no
// template's witness holds in it, so no sweep can match, and the
// data-level detectors find nothing in it.
func (s Screen) Empty() bool { return s.empty }

// Screen scans frame for its byte witnesses. An Empty frame needs no
// decode and no AnalyzeScreened; Screen counts its sweep starts as
// considered and not lifted, as the offset loop would. Hand any other
// Screen to AnalyzeScreened, so the frame's bytes are scanned once.
// With DisableSweepPrune nothing is scanned and no frame is Empty.
func (a *Analyzer) Screen(frame []byte) Screen {
	s := Screen{frame: frame}
	if a.DisableSweepPrune {
		return s
	}
	s.found = scanWitness(frame)
	for _, tpl := range a.Templates {
		if tpl.compiled().witness.heldBy(frame, s.found) {
			return s
		}
	}
	if _, ok := detectReturnAddrRegion(frame); ok {
		return s
	}
	s.empty = true
	if len(a.Templates) != 0 { // else the offset loop breaks at once
		var starts uint64
		for _, off := range a.SweepOffsets {
			if off >= len(frame) {
				break
			}
			starts++
		}
		a.sweepStarts.Add(starts)
	}
	return s
}

// AnalyzeScreened analyzes the frame s screened, as AnalyzeFrame does;
// an Empty screen's verdict is nil.
func (a *Analyzer) AnalyzeScreened(s Screen) []Detection {
	if s.empty {
		return nil
	}
	frame := s.frame
	sc := scratchPool.Get().(*frameScratch)
	defer scratchPool.Put(sc)

	var out []Detection
	seen := sc.seen[:0]
	defer func() { sc.seen = seen[:0] }()
	seenName := func(name string) bool {
		for _, s := range seen {
			if s == name {
				return true
			}
		}
		return false
	}
	record := func(d Detection) {
		if !seenName(d.Template) {
			seen = append(seen, d.Template)
			out = append(out, d)
		}
	}

	// Frame-level witness: a template whose mandatory statements leave
	// a byte witness (witness.go) or an SFrameData string that the
	// frame lacks cannot match at any offset or order, so it is no
	// candidate, and a frame left with none decodes nothing. One scan
	// of the frame (s) finds the byte witnesses. A rejected template
	// still counts among the names, so the offset loop considers every
	// offset it did before and counts each as a start not lifted.
	witnessOn := !a.DisableSweepPrune
	cands := sc.cands[:0]
	defer func() { sc.cands = cands[:0] }()
	names := 0
	for ti, tpl := range a.Templates {
		if !namedBefore(a.Templates[:ti], tpl.Name) {
			names++
		}
		ct := tpl.compiled()
		if witnessOn && !ct.witness.heldBy(frame, s.found) {
			continue
		}
		var bit uint64
		if ti < len(a.tplBit) {
			bit = a.tplBit[ti]
		}
		cands = append(cands, candidate{tpl, ct, bit})
	}
	if len(cands) != 0 {
		sc.cache.Reset(frame)
	}

	// Sweep-start viability: before paying for a sweep's lift and
	// match work, the memoized chain check decides whether any
	// flow-unbroken run reachable from the offset, in either order,
	// could still satisfy the conjunction of some candidate not yet
	// detected; non-viable offsets skip the expensive stages entirely,
	// and the check shares every decoded byte with the sweeps
	// themselves. An offset is not pruned while an undetected candidate
	// could not be encoded (its tplBit 0 makes every offset viable).
	prune := witnessOn && a.pruneTable != nil && len(a.tplBit) == len(a.Templates)

	var starts, lifted uint64
	sc.m.exhausted = 0
	for _, off := range a.SweepOffsets {
		if off >= len(frame) || len(seen) == names {
			break
		}
		starts++
		want, open := unseenWant(cands, seenName)
		if !open || prune && want != 0 && !a.viable(sc, off, want) {
			continue
		}
		lifted++
		sc.prog.Reuse(sc.cache.Sweep(off))
		orders := [2]struct {
			name  string
			nodes []ir.Node
		}{
			{"threaded", sc.prog.Nodes},
			{"raw", sc.prog.Raw},
		}
		for _, ord := range orders {
			if len(ord.nodes) == 0 {
				continue
			}
			sc.m.reset(ord.nodes, frame)
			for _, c := range cands {
				if seenName(c.tpl.Name) {
					continue
				}
				if b, idxs, ok := sc.m.match(c.ct); ok {
					record(makeDetection(c.tpl, c.ct, ord.name, ord.nodes, b, idxs))
				}
			}
		}
	}

	a.sweepStarts.Add(starts)
	a.sweepLifted.Add(lifted)
	if sc.m.exhausted != 0 {
		a.searchExhausted.Add(sc.m.exhausted)
	}

	if d, ok := detectReturnAddrRegion(frame); ok {
		record(d)
	}
	return out
}

// unseenWant returns the viability bits of the candidates whose name
// has no detection yet — the only templates the next offset can still
// report — or 0 when one of them has no bit and so cannot be pruned.
// open is false when there is no such candidate: every name still
// undetected belongs to templates the witness rejected.
func unseenWant(cands []candidate, seen func(string) bool) (want uint64, open bool) {
	for i := range cands {
		if seen(cands[i].tpl.Name) {
			continue
		}
		if cands[i].bit == 0 {
			return 0, true
		}
		want |= cands[i].bit
		open = true
	}
	return want, open
}

// namedBefore reports whether a template in tpls has the given name.
func namedBefore(tpls []*Template, name string) bool {
	for _, t := range tpls {
		if t.Name == name {
			return true
		}
	}
	return false
}

func makeDetection(tpl *Template, ct *compiledTemplate, order string, nodes []ir.Node, b *binding, idxs []int) Detection {
	d := Detection{
		Template:    tpl.Name,
		Description: tpl.Description,
		Severity:    tpl.Severity,
		Order:       order,
		Bindings:    make(map[string]string),
	}
	for _, i := range idxs {
		d.Addrs = append(d.Addrs, int(nodes[i].Inst.Addr))
	}
	for id, name := range ct.varNames {
		if b.bound&(1<<id) != 0 {
			d.Bindings[name] = b.regs[id].String()
		}
		if b.keyed&(1<<id) != 0 {
			d.Bindings[name] = fmt.Sprintf("%#x", b.keys[id])
		}
	}
	return d
}

// plausibleReturnAddr reports whether v points where a return-address
// region plausibly points: the process stack and low loaded-module
// ranges on the platforms the paper's exploits target. It switches on
// the top byte, which rules out most dwords by itself.
func plausibleReturnAddr(v uint32) bool {
	switch v >> 24 {
	case 0xbf: // Linux stack, 0xbf000000-0xbfffffff
		return true
	case 0x08: // Linux exec image vicinity, 0x08040000-0x080fffff
		return v >= 0x08040000 && v < 0x08100000
	case 0x77: // Windows system DLLs (incl. msvcrt), 0x77000000-0x781fffff
		return true
	case 0x78:
		return v < 0x78200000
	case 0x7f: // Windows PEB/TEB region, 0x7ffd0000-0x7fffffff
		return v >= 0x7ffd0000
	}
	return false
}

// minReturnAddrRun is the number of repeated return-address dwords
// detectReturnAddrRegion requires.
const minReturnAddrRun = 4

// detectReturnAddrRegion finds runs of dwords that are equal modulo
// their least significant byte and point into a plausible address
// range — the invariant the paper identifies in the return-address
// region of buffer-overflow exploits (only the LSB can vary, since the
// return address must land inside the injected buffer).
func detectReturnAddrRegion(frame []byte) (Detection, bool) {
	// Try all four alignments; exploits rarely align their RA region
	// with the start of the extracted frame.
	for align := 0; align < 4; align++ {
		run := 0
		var runBase uint32
		var runStart int
		for i := align; i+4 <= len(frame); i += 4 {
			v := binary.LittleEndian.Uint32(frame[i:])
			if !plausibleReturnAddr(v) {
				run = 0
				continue
			}
			if base := v &^ 0xff; run > 0 && base == runBase {
				run++
			} else {
				runBase, runStart, run = base, i, 1
			}
			if run >= minReturnAddrRun {
				return Detection{
					Template:    "return-address-region",
					Description: "repeated return-address dwords equal modulo LSB pointing into a plausible address range",
					Severity:    "medium",
					Addrs:       []int{runStart},
					Order:       "data",
					Bindings: map[string]string{
						"base": fmt.Sprintf("%#x", runBase),
						"run":  fmt.Sprintf("%d", run),
					},
				}, true
			}
		}
	}
	return Detection{}, false
}
