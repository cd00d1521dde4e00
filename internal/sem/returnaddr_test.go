package sem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"semnids/internal/exploits"
	"semnids/internal/shellcode"
)

// returnAddrRanges are the ranges plausibleReturnAddr tests, as the
// range list it replaced.
var returnAddrRanges = [][2]uint32{
	{0xbf000000, 0xc0000000}, // Linux stack
	{0x08040000, 0x08100000}, // Linux exec image vicinity
	{0x77000000, 0x78200000}, // Windows system DLLs (incl. msvcrt)
	{0x7ffd0000, 0x80000000}, // Windows PEB/TEB region
}

func rangePlausibleReturnAddr(v uint32) bool {
	for _, r := range returnAddrRanges {
		if v >= r[0] && v < r[1] {
			return true
		}
	}
	return false
}

// scanReturnAddrRegion is the scan detectReturnAddrRegion replaced,
// the oracle for it: the range list, and a second range test on every
// dword that breaks a run.
func scanReturnAddrRegion(frame []byte) (Detection, bool) {
	for align := 0; align < 4; align++ {
		run := 0
		var runBase uint32
		var runStart int
		for i := align; i+4 <= len(frame); i += 4 {
			v := uint32(frame[i]) | uint32(frame[i+1])<<8 |
				uint32(frame[i+2])<<16 | uint32(frame[i+3])<<24
			base := v &^ 0xff
			if rangePlausibleReturnAddr(v) && (run == 0 || base == runBase) {
				if run == 0 {
					runBase = base
					runStart = i
				}
				run++
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
				continue
			}
			run = 0
			if rangePlausibleReturnAddr(v) {
				runBase = base
				runStart = i
				run = 1
			}
		}
	}
	return Detection{}, false
}

// TestPlausibleReturnAddrRanges compares the top-byte switch with the
// range list at every range edge and on random dwords.
func TestPlausibleReturnAddrRanges(t *testing.T) {
	var probes []uint32
	for _, r := range returnAddrRanges {
		for _, edge := range []uint32{r[0], r[1]} {
			for d := uint32(0); d < 3; d++ {
				probes = append(probes, edge-1-d, edge+d)
			}
		}
	}
	for top := uint32(0); top < 256; top++ {
		probes = append(probes, top<<24, top<<24|0xffffff, top<<24|0x7fffff)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1<<20; i++ {
		probes = append(probes, r.Uint32())
	}
	for _, v := range probes {
		if got, want := plausibleReturnAddr(v), rangePlausibleReturnAddr(v); got != want {
			t.Fatalf("plausibleReturnAddr(%#x) = %v, range list says %v", v, got, want)
		}
	}
}

// returnAddrSeeds are frames with return-address regions at every
// alignment, near misses, exploit payloads and junk.
func returnAddrSeeds() [][]byte {
	var seeds [][]byte
	for _, base := range []uint32{0xbffff500, 0x08049f00, 0x77e8a200, 0x781ff000, 0x7ffdf000, 0x7ffcf000, 0x12345600} {
		for pad := 0; pad < 4; pad++ {
			for n := 3; n <= 5; n++ {
				frame := make([]byte, pad)
				for i := 0; i < n; i++ {
					v := base | uint32(0x10+i)
					frame = append(frame, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
				}
				seeds = append(seeds, frame)
			}
		}
	}
	for _, e := range exploits.Table1Exploits() {
		seeds = append(seeds, e.Payload)
	}
	seeds = append(seeds, exploits.CodeRedIIRequest(), shellcode.ClassicPush().Bytes, []byte("GET / HTTP/1.1\r\n\r\n"))
	return seeds
}

func FuzzReturnAddrRegion(f *testing.F) {
	for _, s := range returnAddrSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		d, ok := detectReturnAddrRegion(frame)
		wd, wok := scanReturnAddrRegion(frame)
		if ok != wok || !reflect.DeepEqual(d, wd) {
			t.Fatalf("% x: detectReturnAddrRegion = %v %+v, old scan %v %+v", frame, ok, d, wok, wd)
		}
	})
}

// TestReturnAddrRegionMatchesScan runs the fuzz comparison over random
// frames built from plausible and implausible dwords at random
// offsets.
func TestReturnAddrRegionMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	bases := []uint32{0xbffff500, 0x08049f00, 0x08100000, 0x77e8a200, 0x781ff000, 0x78200000, 0x7ffdf000, 0x7ffcff00}
	seeds := returnAddrSeeds()
	hits := 0
	for i := 0; i < 20000; i++ {
		frame := make([]byte, r.Intn(4))
		r.Read(frame)
		for n := r.Intn(12); n > 0; n-- {
			v := bases[r.Intn(len(bases))] | uint32(r.Intn(256))
			if r.Intn(4) == 0 {
				v = r.Uint32()
			}
			frame = append(frame, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			if r.Intn(6) == 0 {
				frame = append(frame, byte(r.Intn(256)))
			}
		}
		if i%10 == 0 {
			frame = append(slices.Clone(seeds[r.Intn(len(seeds))]), frame...)
		}
		d, ok := detectReturnAddrRegion(frame)
		wd, wok := scanReturnAddrRegion(frame)
		if ok != wok || !reflect.DeepEqual(d, wd) {
			t.Fatalf("% x: detectReturnAddrRegion = %v %+v, old scan %v %+v", frame, ok, d, wok, wd)
		}
		if ok {
			hits++
		}
	}
	if hits < 500 {
		t.Errorf("only %d of 20000 random frames hold a return-address region", hits)
	}
}
