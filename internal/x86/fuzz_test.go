package x86

import "testing"

// Native fuzz targets; `go test` runs them over the seed corpus, and
// `go test -fuzz` explores further.

func FuzzDecode(f *testing.F) {
	f.Add([]byte{0x90})
	f.Add([]byte{0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa})
	f.Add([]byte{0x0f, 0xba, 0xe0, 0x07})
	f.Add([]byte{0x66, 0x67, 0x8b, 0x07})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		in, err := Decode(b, 0)
		if err != nil {
			return
		}
		if in.Len <= 0 || int(in.Len) > len(b) {
			t.Fatalf("decoded length %d out of range for %d input bytes", in.Len, len(b))
		}
		_ = in.String() // formatter must not panic
		// If the instruction is encodable, the encoding must decode
		// back to an equal-length or equivalent instruction.
		if enc, err := Encode(in); err == nil {
			if _, err := Decode(enc, 0); err != nil {
				t.Fatalf("re-decode of % x failed: %v", enc, err)
			}
		}
	})
}

// FuzzSweep: a sweep tiles the frame, and the cache's memoized sweeps
// and splice answers — what the sweep-start prune reads — are the
// plain sweep's at each analyzer offset.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{0x90, 0x0f, 0xff, 0x90})
	f.Add(splicedLoop())
	f.Add(getpcNoLoop())
	f.Fuzz(func(t *testing.T, b []byte) {
		insts := SweepAll(b)
		pos := 0
		for _, in := range insts {
			if int(in.Addr) != pos || in.Len <= 0 {
				t.Fatalf("sweep gap at %d", pos)
			}
			pos += int(in.Len)
		}
		if pos != len(b) {
			t.Fatalf("sweep covered %d of %d bytes", pos, len(b))
		}
		c := NewDecodeCache(b)
		for off := min(3, len(b)-1); off >= 0; off-- {
			got, want := c.Sweep(off), Sweep(b, off)
			if len(got) != len(want) {
				t.Fatalf("cached sweep %d: %d instructions, want %d", off, len(got), len(want))
			}
			for i := range want {
				if *got[i] != want[i] {
					t.Fatalf("cached sweep %d: instruction %d is %v, want %v", off, i, got[i], &want[i])
				}
			}
			if got, want := c.Splices(off), naiveSplices(b, off); got != want {
				t.Fatalf("Splices(%d) = %v, want %v", off, got, want)
			}
		}
	})
}
