package ir

import (
	"math/rand"
	"testing"
	"unsafe"

	"semnids/internal/x86"
)

// TestNodeSize pins the node layout: a pointer to the instruction, the
// register half of the abstract state, and the def set.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 96 {
		t.Errorf("sizeof(Node) = %d, want at most 96", got)
	}
}

// TestReuseRefersToTheSweep pins the by-reference contract of Reuse:
// every node of both orders points at an instruction of the sweep it
// was lifted from, Raw in sweep order, and a re-lift of another sweep
// replaces them all.
func TestReuseRefersToTheSweep(t *testing.T) {
	frame := make([]byte, 700)
	rand.New(rand.NewSource(7)).Read(frame)
	var cache x86.DecodeCache
	cache.Reset(frame)
	var p Program
	for _, off := range []int{0, 1, 2, 3} {
		sweep := cache.Sweep(off)
		p.Reuse(sweep)
		if len(p.Raw) != len(sweep) {
			t.Fatalf("offset %d: %d raw nodes for %d instructions", off, len(p.Raw), len(sweep))
		}
		in := make(map[*x86.Inst]bool, len(sweep))
		for i, s := range sweep {
			in[s] = true
			if p.Raw[i].Inst != s {
				t.Fatalf("offset %d: raw node %d does not point at sweep instruction %d", off, i, i)
			}
		}
		for i := range p.Nodes {
			if !in[p.Nodes[i].Inst] {
				t.Fatalf("offset %d: threaded node %d points outside the sweep", off, i)
			}
		}
	}
}

// TestReuseAllocs pins the lift: once a Program's buffers have grown
// to a frame's size, re-lifting that frame's sweeps allocates nothing.
func TestReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	frame := make([]byte, 2048)
	rand.New(rand.NewSource(8)).Read(frame)
	var cache x86.DecodeCache
	cache.Reset(frame)
	var p Program
	lift := func() {
		for off := 0; off < 4; off++ {
			p.Reuse(cache.Sweep(off))
		}
	}
	lift()
	if allocs := testing.AllocsPerRun(50, lift); allocs > 0 {
		t.Errorf("warm lift allocates %.1f objects per frame, want 0", allocs)
	}
}
