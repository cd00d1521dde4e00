// Benchmarks regenerating the paper's evaluation (one bench per table
// or figure) plus component and ablation benchmarks for the design
// decisions called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package nids

import (
	"fmt"
	"io"
	"net/netip"
	"sync"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/emu"
	"semnids/internal/engine"
	"semnids/internal/exploits"
	"semnids/internal/extract"
	"semnids/internal/incident"
	"semnids/internal/ir"
	"semnids/internal/morph"
	"semnids/internal/netpkt"
	"semnids/internal/polymorph"
	"semnids/internal/reasm"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
	"semnids/internal/sigmatch"
	"semnids/internal/telemetry"
	"semnids/internal/traffic"
	"semnids/internal/x86"
)

func engineCfg() engine.Config {
	return engine.Config{
		Classify: classify.Config{
			Honeypots:     []netip.Addr{traffic.HoneypotAddr},
			DarkSpace:     []netip.Prefix{traffic.DarkNet},
			ScanThreshold: 3,
		},
	}
}

// BenchmarkTable1ShellSpawn measures end-to-end analysis (extraction +
// disassembly + IR + template matching) per Table 1 exploit.
func BenchmarkTable1ShellSpawn(b *testing.B) {
	for _, e := range exploits.Table1Exploits() {
		b.Run(e.Name, func(b *testing.B) {
			b.SetBytes(int64(len(e.Payload)))
			for i := 0; i < b.N; i++ {
				ds := core.AnalyzePayload(e.Payload)
				if len(ds) == 0 {
					b.Fatal("exploit not detected")
				}
			}
		})
	}
}

// BenchmarkTable1Netsky measures the host-scan of a virus-sized (22 KB)
// binary — the paper reports ~6.5s on a P4 versus ~40s for [5].
func BenchmarkTable1Netsky(b *testing.B) {
	bin := exploits.NetskyBinary(1, 22*1024)
	b.SetBytes(int64(len(bin)))
	for i := 0; i < b.N; i++ {
		ds := core.AnalyzeBytes(bin, nil)
		if len(ds) == 0 {
			b.Fatal("netsky decryptor not detected")
		}
	}
}

// BenchmarkTable1NetskyExhaustiveBaseline is the [5]-style whole-input
// scan: every disassembly offset, no pruning. Compare with
// BenchmarkTable1Netsky for the paper's ~6x efficiency claim.
func BenchmarkTable1NetskyExhaustiveBaseline(b *testing.B) {
	bin := exploits.NetskyBinary(1, 22*1024)
	offsets := make([]int, 16)
	for i := range offsets {
		offsets[i] = i
	}
	b.SetBytes(int64(len(bin)))
	for i := 0; i < b.N; i++ {
		core.AnalyzeBytes(bin, offsets)
	}
}

// BenchmarkTable2ADMmutate measures semantic analysis of ADMmutate
// samples with the full template set (Table 2: 100/100).
func BenchmarkTable2ADMmutate(b *testing.B) {
	eng := polymorph.NewADMmutate(20060612)
	payload := shellcode.ClassicPush().Bytes
	samples := make([][]byte, 64)
	for i := range samples {
		s, _, err := eng.Encode(payload)
		if err != nil {
			b.Fatal(err)
		}
		samples[i] = s
	}
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		if len(a.AnalyzeFrame(s)) == 0 {
			b.Fatal("sample not detected")
		}
	}
}

// BenchmarkTable2Clet measures semantic analysis of Clet samples with
// the xor template (Table 2: 100/100).
func BenchmarkTable2Clet(b *testing.B) {
	eng := polymorph.NewClet(1999)
	payload := shellcode.ClassicPush().Bytes
	samples := make([][]byte, 64)
	for i := range samples {
		s, _, err := eng.Encode(payload)
		if err != nil {
			b.Fatal(err)
		}
		samples[i] = s
	}
	a := sem.NewAnalyzer(sem.XorOnlyTemplates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		if len(a.AnalyzeFrame(s)) == 0 {
			b.Fatal("sample not detected")
		}
	}
}

// BenchmarkTable2IISASP measures the iis-asp-overflow analysis (paper:
// 2.14 s on the P4).
func BenchmarkTable2IISASP(b *testing.B) {
	e := exploits.IISASPOverflow()
	b.SetBytes(int64(len(e.Payload)))
	for i := 0; i < b.N; i++ {
		found := false
		for _, d := range core.AnalyzePayload(e.Payload) {
			if d.Template == "xor-decrypt-loop" {
				found = true
			}
		}
		if !found {
			b.Fatal("decryptor not detected")
		}
	}
}

// BenchmarkTable3CodeRedTrace runs the full pipeline over a Table 3
// style trace (benign background + Code Red II instances from scanning
// sources). Bytes/op reflects packet payload throughput.
func BenchmarkTable3CodeRedTrace(b *testing.B) {
	spec := traffic.TraceSpec{Seed: 3, BenignSessions: 400, CodeRedInstances: 3}
	pkts := traffic.Synthesize(spec)
	var total int64
	for _, p := range pkts {
		total += int64(len(p.Payload))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := engine.New(engineCfg())
		for _, p := range pkts {
			n.Process(p)
		}
		n.Stop()
		crii := 0
		seen := map[netip.Addr]bool{}
		for _, a := range n.Alerts() {
			if a.Detection.Template == "code-red-ii" && !seen[a.Src] {
				seen[a.Src] = true
				crii++
			}
		}
		if crii != 3 {
			b.Fatalf("detected %d instances, want 3", crii)
		}
	}
}

// BenchmarkFalsePositiveScan measures §5.4 throughput: classification
// disabled, every benign payload analyzed; any alert fails the bench.
func BenchmarkFalsePositiveScan(b *testing.B) {
	g := traffic.NewGen(55)
	var pkts []*netpkt.Packet
	var total int64
	for i := 0; i < 300; i++ {
		for _, p := range g.BenignSession() {
			pkts = append(pkts, p)
			total += int64(len(p.Payload))
		}
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := engineCfg()
		cfg.Classify.Disabled = true
		n := engine.New(cfg)
		for _, p := range pkts {
			n.Process(p)
		}
		n.Stop()
		if a := n.Alerts(); len(a) != 0 {
			b.Fatalf("false positives: %v", a)
		}
	}
}

// BenchmarkPipelineVsFullScan is the ablation for DESIGN.md decision 1
// (extraction pruning): the same mixed trace through the classified,
// extraction-pruned pipeline versus the everything-analyzed fullscan.
func BenchmarkPipelineVsFullScan(b *testing.B) {
	spec := traffic.TraceSpec{Seed: 4, BenignSessions: 200, CodeRedInstances: 2}
	pkts := traffic.Synthesize(spec)
	run := func(b *testing.B, fullScan bool) {
		for i := 0; i < b.N; i++ {
			cfg := engineCfg()
			cfg.FullScan = fullScan
			n := engine.New(cfg)
			for _, p := range pkts {
				n.Process(p)
			}
			n.Stop()
		}
	}
	b.Run("pruned-pipeline", func(b *testing.B) { run(b, false) })
	b.Run("fullscan-baseline", func(b *testing.B) { run(b, true) })
}

// BenchmarkEngineThroughput measures streaming-engine packet
// throughput as shard count grows, over a mixed trace with
// classification disabled so every payload reaches a shard (the
// CPU-bound worst case). The engine is long-lived (Drain per
// iteration keeps it hot, as a live sensor runs), the verdict cache is
// disabled to measure raw analysis scaling rather than memoization,
// and each shard count runs twice: a single serial feeder (shards-N —
// ingestion-bound once shards outnumber the feeder) and one feeder
// goroutine per shard (shards-N/parallel — where shard scaling is
// actually observable).
func BenchmarkEngineThroughput(b *testing.B) {
	spec := traffic.TraceSpec{Seed: 9, BenignSessions: 120, CodeRedInstances: 2}
	pkts := traffic.Synthesize(spec)
	var total int64
	for _, p := range pkts {
		total += int64(len(p.Payload))
	}
	assertCRII := func(b *testing.B, e *engine.Engine) {
		b.StopTimer()
		crii := false
		for _, a := range e.Alerts() {
			if a.Detection.Template == "code-red-ii" {
				crii = true
			}
		}
		if !crii {
			b.Fatal("engine missed the trace's code-red-ii instances")
		}
	}
	for _, shards := range []int{1, 2, 4} {
		cfg := engine.Config{
			Classify:         classify.Config{Disabled: true},
			Shards:           shards,
			VerdictCacheSize: -1,
		}
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			e := engine.New(cfg)
			defer e.Stop()
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pkts {
					e.Process(p)
				}
				e.Drain()
			}
			assertCRII(b, e)
		})
		b.Run(fmt.Sprintf("shards-%d/parallel", shards), func(b *testing.B) {
			e := engine.New(cfg)
			defer e.Stop()
			parts := make([][]*netpkt.Packet, shards)
			for _, p := range pkts {
				fi := engine.FlowHash(p.Flow(), shards)
				parts[fi] = append(parts[fi], p)
			}
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for fi := range parts {
					wg.Add(1)
					go func(part []*netpkt.Packet) {
						defer wg.Done()
						f := e.NewFeeder()
						for _, p := range part {
							f.Process(p)
						}
						f.Flush()
					}(parts[fi])
				}
				wg.Wait()
				e.Drain()
			}
			assertCRII(b, e)
		})
	}
}

// BenchmarkEngineThroughputUDP measures datagram-flow throughput: the
// IoT botnet trace (CoAP sensor chatter plus block-split exploit
// deliveries) with datagram flows on and classification disabled, so
// every datagram joins a buffered conversation. The tight idle window
// keeps conversation state from accumulating across iterations (the
// trace clock stops at trace end, so only the window bounds carryover).
// Detection is asserted — a run that stops reassembling the block
// transfer fails rather than reporting a flattering number.
func BenchmarkEngineThroughputUDP(b *testing.B) {
	pkts := traffic.IoTBotnet(traffic.IoTSpec{Seed: 9, Generations: 2, FanoutPerHost: 3, BenignSessions: 6})
	var total int64
	for _, p := range pkts {
		total += int64(len(p.Payload))
	}
	assertDecodeLoop := func(b *testing.B, e *engine.Engine) {
		b.StopTimer()
		for _, a := range e.Alerts() {
			if a.Detection.Template == "xor-decrypt-loop" {
				return
			}
		}
		b.Fatal("engine missed the block-split decryption loop")
	}
	for _, shards := range []int{1, 2, 4} {
		cfg := engine.Config{
			Classify:          classify.Config{Disabled: true},
			Shards:            shards,
			VerdictCacheSize:  -1,
			DatagramFlows:     true,
			DatagramIdleUS:    1e6,
			FlowIdleTimeoutUS: 60e6,
		}
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			e := engine.New(cfg)
			defer e.Stop()
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pkts {
					e.Process(p)
				}
				e.Drain()
			}
			assertDecodeLoop(b, e)
		})
		b.Run(fmt.Sprintf("shards-%d/parallel", shards), func(b *testing.B) {
			e := engine.New(cfg)
			defer e.Stop()
			// Partition by the conversation-canonical key so each UDP
			// exchange stays on one feeder, preserving per-flow order.
			parts := make([][]*netpkt.Packet, shards)
			for _, p := range pkts {
				fi := engine.FlowHash(p.Flow().Canonical(), shards)
				parts[fi] = append(parts[fi], p)
			}
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for fi := range parts {
					wg.Add(1)
					go func(part []*netpkt.Packet) {
						defer wg.Done()
						f := e.NewFeeder()
						for _, p := range part {
							f.Process(p)
						}
						f.Flush()
					}(parts[fi])
				}
				wg.Wait()
				e.Drain()
			}
			assertDecodeLoop(b, e)
		})
	}
}

// BenchmarkEngineThroughputTelemetry is the telemetry-overhead
// ablation: the BenchmarkEngineThroughput serial workload with a
// registry attached and the Prometheus exposition rendered every
// iteration — a scrape cadence far denser than production. Compare
// shards-N here against shards-N in BenchmarkEngineThroughput: the
// delta is the full cost of instrumentation plus scraping, and must
// stay within noise (the acceptance budget is 3%).
func BenchmarkEngineThroughputTelemetry(b *testing.B) {
	spec := traffic.TraceSpec{Seed: 9, BenignSessions: 120, CodeRedInstances: 2}
	pkts := traffic.Synthesize(spec)
	var total int64
	for _, p := range pkts {
		total += int64(len(p.Payload))
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			reg := telemetry.NewRegistry()
			e := engine.New(engine.Config{
				Classify:         classify.Config{Disabled: true},
				Shards:           shards,
				VerdictCacheSize: -1,
				Telemetry:        reg,
			})
			defer e.Stop()
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pkts {
					e.Process(p)
				}
				e.Drain()
				if err := telemetry.WritePrometheus(io.Discard, reg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if e.Snapshot().Packets == 0 {
				b.Fatal("engine processed nothing")
			}
		})
	}
}

// BenchmarkEngineVerdictCache is the ablation for the payload-
// fingerprint verdict cache: the same worm payload delivered from
// many sources, analyzed once when the cache is on and every time
// when it is off — the worm-outbreak shape the cache exists for.
func BenchmarkEngineVerdictCache(b *testing.B) {
	payload := exploits.Table1Exploits()[0].Payload
	const sources = 64
	run := func(b *testing.B, cacheSize int) {
		b.SetBytes(int64(len(payload)) * sources)
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.Config{
				Classify:         classify.Config{Disabled: true},
				Shards:           1,
				VerdictCacheSize: cacheSize,
			})
			for s := 0; s < sources; s++ {
				e.Process(&netpkt.Packet{
					SrcIP: netip.AddrFrom4([4]byte{10, 2, byte(s >> 8), byte(s)}),
					DstIP: traffic.WebServer, SrcPort: uint16(1024 + s), DstPort: 80,
					Proto: netpkt.ProtoUDP, HasUDP: true,
					Payload: payload, TimestampUS: uint64(s) * 100,
				})
			}
			e.Stop()
			if got := len(e.Alerts()); got < sources {
				b.Fatalf("alerts = %d, want >= %d", got, sources)
			}
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, 0) })
	b.Run("uncached", func(b *testing.B) { run(b, -1) })
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

// BenchmarkAnalyzeFrameBenign measures the analyzer's allocation
// behavior on frames with nothing to detect — the dominant case on a
// live sensor, and the allocation-regression harness for the hot
// path: run with -benchmem and expect ~0 allocs/op in steady state.
func BenchmarkAnalyzeFrameBenign(b *testing.B) {
	frame := make([]byte, 4096)
	rng := uint32(0x9e3779b9)
	for i := range frame {
		rng = rng*1664525 + 1013904223
		frame[i] = byte(rng >> 24)
	}
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.AnalyzeFrame(frame)) != 0 {
			b.Fatal("benign frame detected")
		}
	}
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
		stop, err := m.Run(0)
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
			for _, d := range core.AnalyzeBytes(f.Data, nil) {
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
		w, err := netpkt.NewPcapWriter(discard{})
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

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkCorrelator measures the incident path: a trace through the
// streaming engine with the correlator detached ("off" — the tap is a
// nil check on the hot path) and attached ("on" — events cross the
// bounded channel and drive the kill-chain state machines). Two
// workloads: "mixed" is the engine-throughput trace (benign-dominated,
// classification prunes most packets, so events are rare — the ≤5%
// overhead target applies here), and "outbreak" is the adversarial
// ceiling (a worm trace where every packet is selected and event
// density is maximal).
func BenchmarkCorrelator(b *testing.B) {
	ccfg := classify.Config{
		Honeypots:     []netip.Addr{traffic.HoneypotAddr},
		DarkSpace:     []netip.Prefix{traffic.DarkNet},
		ScanThreshold: 3,
	}
	run := func(b *testing.B, pkts []*netpkt.Packet, correlate, wantPropagation bool) {
		// Engine and correlator are long-lived (Drain keeps them hot
		// across traces), so setup sits outside the timed loop: the
		// measurement is the steady-state per-trace cost of the tap,
		// the event channel and the state machines.
		var total int64
		for _, p := range pkts {
			total += int64(len(p.Payload))
		}
		var corr *incident.Correlator
		ecfg := engine.Config{Classify: ccfg, Shards: 4}
		if correlate {
			corr = incident.New(incident.Config{})
			ecfg.OnEvent = corr.Publish
			defer corr.Stop()
		}
		e := engine.New(ecfg)
		defer e.Stop()
		// One work unit is several passes over the trace per drain, as
		// a live sensor drains rarely relative to traffic volume; this
		// keeps the per-drain barriers from dominating a short trace.
		const passes = 10
		b.SetBytes(total * passes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := 0; p < passes; p++ {
				for _, pkt := range pkts {
					e.Process(pkt)
				}
			}
			e.Drain()
			if correlate {
				corr.Flush()
			}
		}
		b.StopTimer()
		if len(e.Alerts()) == 0 {
			b.Fatal("trace produced no alerts")
		}
		if wantPropagation {
			reached := false
			for _, inc := range corr.Incidents() {
				if inc.Stage == incident.StagePropagation {
					reached = true
				}
			}
			if !reached {
				b.Fatal("outbreak produced no PROPAGATION incident")
			}
		}
	}
	mixed := traffic.Synthesize(traffic.TraceSpec{Seed: 9, BenignSessions: 120, CodeRedInstances: 2})
	outbreak := traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 2, FanoutPerHost: 2, BenignSessions: 6})
	b.Run("mixed/off", func(b *testing.B) { run(b, mixed, false, false) })
	b.Run("mixed/on", func(b *testing.B) { run(b, mixed, true, false) })
	b.Run("outbreak/off", func(b *testing.B) { run(b, outbreak, false, false) })
	b.Run("outbreak/on", func(b *testing.B) { run(b, outbreak, true, true) })
}
