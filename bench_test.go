// Component and ablation micro-benchmarks for the design decisions
// called out in DESIGN.md. The paper's tables are timed by
// cmd/papertables, and the end-to-end and per-layer rates by the
// benchmark in bench/ (bash bench/run.sh). Run with:
//
//	go test -run '^$' -bench . -benchmem
package nids

import (
	"io"
	"net/netip"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/emu"
	"semnids/internal/engine"
	"semnids/internal/exploits"
	"semnids/internal/extract"
	"semnids/internal/ir"
	"semnids/internal/morph"
	"semnids/internal/netpkt"
	"semnids/internal/polymorph"
	"semnids/internal/reasm"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
	"semnids/internal/sigmatch"
	"semnids/internal/traffic"
	"semnids/internal/x86"
)

// BenchmarkPipelineVsFullScan is the ablation for DESIGN.md decision 1
// (extraction pruning): the same mixed trace through the classified,
// extraction-pruned pipeline versus the everything-analyzed fullscan.
func BenchmarkPipelineVsFullScan(b *testing.B) {
	spec := traffic.TraceSpec{Seed: 4, BenignSessions: 200, CodeRedInstances: 2}
	pkts := traffic.Synthesize(spec)
	run := func(b *testing.B, fullScan bool) {
		for i := 0; i < b.N; i++ {
			n := engine.New(engine.Config{
				Classify: classify.Config{
					Honeypots:     []netip.Addr{traffic.HoneypotAddr},
					DarkSpace:     []netip.Prefix{traffic.DarkNet},
					ScanThreshold: 3,
				},
				FullScan: fullScan,
			})
			for _, p := range pkts {
				n.Process(p)
			}
			n.Stop()
		}
	}
	b.Run("pruned-pipeline", func(b *testing.B) { run(b, false) })
	b.Run("fullscan-baseline", func(b *testing.B) { run(b, true) })
}

// BenchmarkSigmatchBaseline measures the syntactic baseline for
// contrast: fast, but blind to the polymorphic workloads above.
func BenchmarkSigmatchBaseline(b *testing.B) {
	m := sigmatch.NewMatcher(sigmatch.DefaultSignatures())
	e := exploits.Table1Exploits()[0]
	b.SetBytes(int64(len(e.Payload)))
	for i := 0; i < b.N; i++ {
		if len(m.Match(e.Payload)) == 0 {
			b.Fatal("baseline missed cleartext exploit")
		}
	}
}

// BenchmarkAnalyzeFrameParallel measures semantic-analysis throughput
// with one long-lived analyzer shared by all goroutines over a mixed
// frame set — how the engine's shards share theirs. The pooled
// scratch state must scale without contention or per-frame allocation.
func BenchmarkAnalyzeFrameParallel(b *testing.B) {
	eng := polymorph.NewADMmutate(31337)
	frames := make([][]byte, 0, 8)
	for i := 0; i < 4; i++ {
		s, _, err := eng.Encode(shellcode.ClassicPush().Bytes)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, s)
	}
	frames = append(frames,
		exploits.NetskyBinary(9, 4*1024),
		exploits.NetskyBinary(10, 4*1024),
	)
	var total int64
	for _, f := range frames {
		total += int64(len(f))
	}
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	b.SetBytes(total)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for _, f := range frames {
				if len(a.AnalyzeFrame(f)) == 0 {
					b.Fatal("frame not detected")
				}
			}
		}
	})
}

// --- Component benchmarks ---

// BenchmarkDecode measures raw instruction decode throughput.
func BenchmarkDecode(b *testing.B) {
	code := exploits.NetskyBinary(2, 8*1024)
	b.SetBytes(int64(len(code)))
	for i := 0; i < b.N; i++ {
		x86.SweepAll(code)
	}
}

// BenchmarkDecodeCached measures the memoized multi-offset sweep the
// analyzer actually performs: four offsets over one frame through a
// reused DecodeCache, versus four independent naive sweeps.
func BenchmarkDecodeCached(b *testing.B) {
	code := exploits.NetskyBinary(2, 8*1024)
	b.Run("memoized", func(b *testing.B) {
		c := x86.NewDecodeCache(nil)
		b.SetBytes(int64(len(code)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Reset(code)
			for off := 0; off < 4; off++ {
				c.Sweep(off)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.SetBytes(int64(len(code)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for off := 0; off < 4; off++ {
				x86.Sweep(code, off)
			}
		}
	})
}

// BenchmarkLift measures IR lifting (threading + constant propagation
// + def/use) throughput.
func BenchmarkLift(b *testing.B) {
	code := exploits.NetskyBinary(2, 8*1024)
	insts := x86.SweepAll(code)
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir.Lift(insts)
	}
}

// BenchmarkTemplateMatch measures the matcher alone over a lifted
// polymorphic sample.
func BenchmarkTemplateMatch(b *testing.B) {
	eng := polymorph.NewADMmutate(9)
	sample, _, err := eng.Encode(shellcode.ClassicPush().Bytes)
	if err != nil {
		b.Fatal(err)
	}
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	b.SetBytes(int64(len(sample)))
	for i := 0; i < b.N; i++ {
		if len(a.AnalyzeFrame(sample)) == 0 {
			b.Fatal("not detected")
		}
	}
}

// BenchmarkExtract measures the binary detection and extraction stage
// over the Code Red II request.
func BenchmarkExtract(b *testing.B) {
	req := exploits.CodeRedIIRequest()
	b.SetBytes(int64(len(req)))
	for i := 0; i < b.N; i++ {
		if len(extract.Extract(req)) == 0 {
			b.Fatal("nothing extracted")
		}
	}
}

// BenchmarkExtractBenign measures the pruning fast-path: a benign
// request must be rejected cheaply.
func BenchmarkExtractBenign(b *testing.B) {
	req := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n")
	b.SetBytes(int64(len(req)))
	for i := 0; i < b.N; i++ {
		if len(extract.Extract(req)) != 0 {
			b.Fatal("benign extracted")
		}
	}
}

// BenchmarkReassembly measures TCP stream reassembly throughput.
func BenchmarkReassembly(b *testing.B) {
	g := traffic.NewGen(77)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	pkts := g.TCPSession(g.RandClient(), traffic.WebServer, 80, payload, nil)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := reasm.New()
		for _, p := range pkts {
			a.Feed(p)
		}
	}
}

// BenchmarkPolymorphEncode measures sample generation cost.
func BenchmarkPolymorphEncode(b *testing.B) {
	eng := polymorph.NewADMmutate(10)
	payload := shellcode.ClassicPush().Bytes
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMorphMutate measures the metamorphic engine (decode,
// rewrite, relayout, branch fixup) over a corpus payload.
func BenchmarkMorphMutate(b *testing.B) {
	m := morph.New(10)
	payload := shellcode.ClassicPush().Bytes
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := m.Mutate(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMorphedVariantDetection measures end-to-end analysis of
// metamorphic variants — template robustness at benchmark scale.
func BenchmarkMorphedVariantDetection(b *testing.B) {
	m := morph.New(11)
	payload := shellcode.ClassicPush().Bytes
	samples := make([][]byte, 32)
	for i := range samples {
		s, err := m.Mutate(payload)
		if err != nil {
			b.Fatal(err)
		}
		samples[i] = s
	}
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := false
		for _, d := range a.AnalyzeFrame(samples[i%len(samples)]) {
			if d.Template == "linux-shell-spawn" {
				found = true
			}
		}
		if !found {
			b.Fatal("morphed variant missed")
		}
	}
}

// BenchmarkEmulateSample measures dynamic execution of a polymorphic
// sample to its execve (the validation tier's cost).
func BenchmarkEmulateSample(b *testing.B) {
	eng := polymorph.NewADMmutate(14)
	sample, _, err := eng.Encode(shellcode.ClassicPush().Bytes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(sample)))
	for i := 0; i < b.N; i++ {
		m := emu.New(sample)
		stop, err := m.Explore(0)
		if err != nil || stop.Sysnum != 0xb {
			b.Fatalf("stop=%+v err=%v", stop, err)
		}
	}
}

// BenchmarkEmailWormScan measures SMTP attachment extraction plus
// analysis of a packed 16 KB attachment.
func BenchmarkEmailWormScan(b *testing.B) {
	g := traffic.NewGen(12)
	worm := exploits.NetskyBinary(4, 16*1024)
	pkts := g.InfectedMailSession(g.RandClient(), worm)
	var payload []byte
	for _, p := range pkts {
		if p.DstPort == 25 {
			payload = append(payload, p.Payload...)
		}
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames := extract.Extract(payload)
		if len(frames) == 0 {
			b.Fatal("attachment not extracted")
		}
		found := false
		for _, f := range frames {
			for _, d := range AnalyzeBytes(f.Data) {
				if d.Template == "xor-decrypt-loop" {
					found = true
				}
			}
		}
		if !found {
			b.Fatal("worm not detected")
		}
	}
}

// BenchmarkPcapWrite measures trace serialization.
func BenchmarkPcapWrite(b *testing.B) {
	pkts := traffic.Synthesize(traffic.TraceSpec{Seed: 8, BenignSessions: 50})
	var total int64
	for _, p := range pkts {
		total += int64(len(p.Payload))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := netpkt.NewPcapWriter(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pkts {
			if err := w.WritePacket(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
