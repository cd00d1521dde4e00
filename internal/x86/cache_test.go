package x86_test

import (
	"math/rand"
	"testing"

	"semnids/internal/exploits"
	"semnids/internal/shellcode"
	"semnids/internal/x86"
)

// corpora returns the byte sets the differential tests sweep: random
// data at several densities (junk-heavy frames are the common case on
// a sensor), plus real exploit payloads and a packed binary.
func corpora(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	rng := rand.New(rand.NewSource(0x5eed))
	for _, n := range []int{1, 2, 7, 64, 512, 4096} {
		b := make([]byte, n)
		rng.Read(b)
		out["random-"+itoa(n)] = b
	}
	// Text-heavy buffer: long runs of printable bytes decode very
	// differently from uniform random bytes.
	text := make([]byte, 1024)
	for i := range text {
		text[i] = byte('A' + i%26)
	}
	out["text"] = text
	for _, e := range exploits.Table1Exploits() {
		out["exploit-"+e.Name] = e.Payload
	}
	out["netsky"] = exploits.NetskyBinary(7, 8*1024)
	out["shellcode"] = shellcode.ClassicPush().Bytes
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func instEqual(a, b x86.Inst) bool {
	return a == b
}

// TestDecodeCacheDifferential asserts that the memoized sweep is
// byte-identical to the naive decoder at every start offset, in every
// interleaving of offset requests, over random and exploit corpora.
// This is the contract the whole hot path rests on: memoization must
// be invisible to the analyzer.
func TestDecodeCacheDifferential(t *testing.T) {
	for name, data := range corpora(t) {
		t.Run(name, func(t *testing.T) {
			maxOff := len(data)
			if maxOff > 16 {
				maxOff = 16
			}
			// Forward, reverse and interleaved request orders: the
			// cache's canonical chain is seeded by the first request,
			// so the shared-tail logic must hold whichever offset
			// comes first.
			orders := [][]int{nil, nil, {3, 1, 0, 2}}
			for off := 0; off < maxOff; off++ {
				orders[0] = append(orders[0], off)
				orders[1] = append([]int{off}, orders[1]...)
			}
			for oi, order := range orders {
				c := x86.NewDecodeCache(data)
				for _, off := range order {
					if off >= len(data) {
						continue
					}
					want := x86.Sweep(data, off)
					got := c.Sweep(off)
					if len(got) != len(want) {
						t.Fatalf("order %d offset %d: %d insts, want %d", oi, off, len(got), len(want))
					}
					for i := range want {
						if !instEqual(*got[i], want[i]) {
							t.Fatalf("order %d offset %d inst %d:\n got %v (addr %#x)\nwant %v (addr %#x)",
								oi, off, i, got[i], got[i].Addr, want[i], want[i].Addr)
						}
					}
				}
			}
		})
	}
}

// TestDecodeCacheReset asserts a reused (pooled) cache decodes a new
// frame correctly after Reset, with no state leaking between frames.
func TestDecodeCacheReset(t *testing.T) {
	c := x86.NewDecodeCache(nil)
	rng := rand.New(rand.NewSource(99))
	for frame := 0; frame < 50; frame++ {
		data := make([]byte, 16+rng.Intn(600))
		rng.Read(data)
		c.Reset(data)
		for off := 0; off < 4 && off < len(data); off++ {
			want := x86.Sweep(data, off)
			got := c.Sweep(off)
			if len(got) != len(want) {
				t.Fatalf("frame %d offset %d: %d insts, want %d", frame, off, len(got), len(want))
			}
			for i := range want {
				if !instEqual(*got[i], want[i]) {
					t.Fatalf("frame %d offset %d inst %d: got %v want %v", frame, off, i, got[i], want[i])
				}
			}
		}
	}
}

// TestThreadOrderAppendSharesInstructions pins the by-reference
// contract: the threaded order points at the very instructions it was
// given (nothing is copied), each at most once, and appending leaves
// what dst already held alone.
func TestThreadOrderAppendSharesInstructions(t *testing.T) {
	for name, data := range corpora(t) {
		insts := x86.Refs(x86.SweepAll(data))
		if len(insts) == 0 {
			continue
		}
		given := make(map[*x86.Inst]bool, len(insts))
		for _, in := range insts {
			given[in] = true
		}
		sentinel := &x86.Inst{Op: x86.NOP}
		got := x86.ThreadOrderAppend([]*x86.Inst{sentinel}, insts)
		if got[0] != sentinel {
			t.Fatalf("%s: dst prefix overwritten", name)
		}
		if got[1] != insts[0] && !(insts[0].Op == x86.JMP && insts[0].HasTarget) {
			t.Fatalf("%s: threaded order does not start at the first instruction", name)
		}
		for i, in := range got[1:] {
			if !given[in] {
				t.Fatalf("%s inst %d: %v is not one of the input instructions (copied or repeated)", name, i, in)
			}
			delete(given, in)
		}
	}
}

// TestDecodeAllocs pins the allocation behavior of single-instruction
// decode: Decode must not allocate at all.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	code := exploits.NetskyBinary(3, 1024)
	pos := 0
	allocs := testing.AllocsPerRun(200, func() {
		in, err := x86.Decode(code, pos)
		if err != nil {
			pos++
		} else {
			pos += int(in.Len)
		}
		if pos >= len(code)-16 {
			pos = 0
		}
	})
	if allocs > 0 {
		t.Errorf("Decode allocates %.1f objects per call, want 0", allocs)
	}
}

// TestSweepCachedAllocs pins the steady-state allocation behavior of
// the memoized sweep: after warm-up, re-sweeping a same-size frame
// through a Reset cache must not allocate.
func TestSweepCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	code := exploits.NetskyBinary(5, 4096)
	c := x86.NewDecodeCache(nil)
	// Warm up the internal tables.
	c.Reset(code)
	for off := 0; off < 4; off++ {
		c.Sweep(off)
	}
	allocs := testing.AllocsPerRun(20, func() {
		c.Reset(code)
		for off := 0; off < 4; off++ {
			c.Sweep(off)
		}
	})
	if allocs > 1 {
		t.Errorf("cached sweep allocates %.1f objects per frame, want <= 1", allocs)
	}
}
