package sem

import (
	"errors"
	"sort"

	"semnids/internal/emu"
	"semnids/internal/x86"
)

// Sketch is the structural fingerprint of a detected frame: a compact
// semantic identity derived from the parts a polymorphic engine cannot
// cheaply randomize. Where the exact 128-bit payload fingerprint
// changes on every re-encoding (a different key, a reshuffled decoder,
// fresh junk), the sketch survives mutation:
//
//   - Template is a hash of the matched template names — the behavior
//     class the decoder exhibited, whatever its concrete bytes.
//   - Stmts is a hash of the matched decode chain's statement multiset
//     (the mnemonics behind Detection.Addrs) — the operational shape
//     of the decoder after substitution and reordering.
//   - TailA/TailB/TailN identify the canonical decoded tail: the bytes
//     the frame rewrote in itself when executed in the emulator. A
//     self-decrypting payload must reproduce its cleartext to run it,
//     so two re-encodings of the same worm converge on the same tail —
//     the mutation-invariant symbol lineage tracing keys on.
//
// The tail is hashed with the same dual-FNV construction as
// core.FingerprintOf (constants duplicated here because core imports
// sem; equality is pinned by TestSketchTailMatchesCoreFingerprint), so
// a tail identity can be carried in the same 128-bit keyspace as exact
// payload fingerprints.
type Sketch struct {
	Template uint64
	Stmts    uint64
	TailA    uint64
	TailB    uint64
	TailN    int
}

// HasTail reports whether emulation recovered a decoded tail — the
// precondition for structural lineage linking.
func (s Sketch) HasTail() bool { return s.TailN > 0 }

// IsZero reports whether the sketch is unset (lineage disabled, or no
// detections to sketch).
func (s Sketch) IsZero() bool { return s == Sketch{} }

const (
	// sketchMaxFrame bounds the frames worth emulating: decoder stubs
	// plus encoded payloads are small; emulating a bulk transfer would
	// cost memory copies for no signal.
	sketchMaxFrame = 64 << 10
	// sketchMaxSteps bounds one emulation attempt. Decoder loops run a
	// few instructions per payload byte, so this covers frames far
	// larger than sketchMaxFrame allows while keeping a crafted
	// spin-loop cheap.
	sketchMaxSteps = 1 << 16
	// sketchMaxEntries caps how many sweep offsets are tried as
	// emulation entry points.
	sketchMaxEntries = 4
)

// fnv-1a pair, identical to core.FingerprintOf.
const (
	sketchPrime  = 1099511628211
	sketchBasis1 = uint64(14695981039346656037)
	sketchBasis2 = uint64(14695981039346656037 ^ 0x9e3779b97f4a7c15)
)

func hashPair(h1, h2 uint64, data []byte) (uint64, uint64) {
	for _, c := range data {
		h1 = (h1 ^ uint64(c)) * sketchPrime
		h2 = (h2 ^ uint64(c)) * (sketchPrime + 2)
	}
	return h1, h2
}

// hashStrings folds a sorted string multiset into one 64-bit symbol.
func hashStrings(ss []string) uint64 {
	h := sketchBasis1
	for _, s := range ss {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * sketchPrime
		}
		h = (h ^ 0xff) * sketchPrime // separator outside the byte alphabet
	}
	return h
}

// Sketch computes the structural fingerprint of a detected frame. ds
// must be the detections AnalyzeFrame* produced for the same frame;
// an empty ds yields the zero sketch (benign frames have no structure
// worth sketching, and skipping them is what keeps the lineage plane
// free of false symbols).
func (a *Analyzer) Sketch(frame []byte, ds []Detection) Sketch {
	if len(ds) == 0 || len(frame) == 0 {
		return Sketch{}
	}
	var sk Sketch

	names := make([]string, 0, len(ds))
	for i := range ds {
		names = append(names, ds[i].Template)
	}
	sort.Strings(names)
	sk.Template = hashStrings(names)

	// The matched decode chain's statement multiset: re-decode each
	// matched instruction at its recorded frame offset. Junk insertion
	// and out-of-order sequencing change what surrounds the chain, not
	// the chain itself, so the multiset is stable across re-encodings
	// that preserve the decoding behavior.
	nAddrs := 0
	for i := range ds {
		nAddrs += len(ds[i].Addrs)
	}
	mnems := make([]string, 0, nAddrs)
	for i := range ds {
		for _, addr := range ds[i].Addrs {
			if addr < 0 || addr >= len(frame) {
				continue
			}
			if in, err := x86.Decode(frame, addr); err == nil {
				mnems = append(mnems, in.Mnemonic())
			}
		}
	}
	sort.Strings(mnems)
	sk.Stmts = hashStrings(mnems)

	sc := scratchPool.Get().(*frameScratch)
	var n attemptCounts
	sk.TailA, sk.TailB, sk.TailN = decodedTail(sc, frame, a.SweepOffsets, &n)
	scratchPool.Put(sc)
	if n.attempts != 0 {
		a.sketchAttempts.Add(n.attempts)
		a.sketchRun.Add(n.run)
		a.sketchMerged.Add(n.merged)
		a.sketchLimit.Add(n.stepLimit)
	}
	return sk
}

// attemptCounts tallies one decodedTail call's emulation attempts by
// outcome (Analyzer.SketchAttempts).
type attemptCounts struct{ attempts, run, merged, stepLimit uint64 }

// decodedTail executes the frame in the emulator and hashes the bytes
// it rewrote in itself — the decoded payload a self-decrypting frame
// must materialize. Entry points follow the analyzer's sweep offsets
// (capped); each attempt starts from the pristine frame, and the
// attempt that rewrote the most bytes wins, ties broken toward the
// lowest entry, so the tail is a pure function of the frame bytes.
// Emulator errors are not failures: a decoder that ran its loop and
// then hit an unmodeled instruction has already left the cleartext in
// memory.
//
// The attempts share sc's machine and pay once for each distinct
// decoder run. An attempt that reaches a state an earlier one passed
// through before its first store ends with emu.ErrMerged
// (emu.Machine.Explore): it would have left memory exactly as that
// attempt did, so its tail equals a tail already compared, and since
// only a strictly longer tail replaces the best, dropping it changes
// nothing.
func decodedTail(sc *frameScratch, frame []byte, entries []int, n *attemptCounts) (a, b uint64, tailN int) {
	if len(frame) > sketchMaxFrame {
		return 0, 0, 0
	}
	m := &sc.mach
	m.MaxSteps = sketchMaxSteps
	m.Load(frame)
	// Two buffers swap roles as attempts beat the best so far.
	best, tail := sc.best[:0], sc.tail[:0]
	defer func() { sc.best, sc.tail = best[:0], tail[:0] }()
	tried := 0
	for _, entry := range entries {
		if tried >= sketchMaxEntries {
			break
		}
		if entry < 0 || entry >= len(frame) {
			continue
		}
		tried++
		n.attempts++
		_, err := m.Explore(entry)
		switch {
		case errors.Is(err, emu.ErrMerged):
			n.merged++
			continue
		case errors.Is(err, emu.ErrStepLimit):
			n.stepLimit++
		default:
			n.run++
		}
		if tail = m.AppendChanged(tail[:0]); len(tail) > len(best) {
			best, tail = tail, best
		}
	}
	if len(best) == 0 {
		return 0, 0, 0
	}
	a, b = hashPair(sketchBasis1, sketchBasis2, best)
	return a, b, len(best)
}
