package main

import (
	"bufio"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	nids "semnids"
	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/extract"
	"semnids/internal/incident"
	"semnids/internal/ir"
	"semnids/internal/lineage"
	"semnids/internal/netpkt"
	"semnids/internal/reasm"
	"semnids/internal/sem"
	"semnids/internal/x86"
)

// The staged pass is the packet pipeline taken apart: one goroutine
// runs read → classify → reasm → extract → fingerprint → decode →
// lift → analyze → sketch → publish → observe → render over the same
// pcap file, each stage consuming the previous stage's materialized
// outputs through the layer's exported functions in chunks of at most
// chunkInputs inputs. It mirrors engine.shard's progression (analysis
// watermarks, lifecycle ticks, alert dedup) so that its report equals a
// shards-1 job's, which the traced run checks.

const (
	chunkInputs = 4096
	// decodeChunk is the decode and lift stages' chunk: every frame of
	// a chunk keeps a decode cache alive until the lift stage has
	// consumed it, and a small chunk re-uses those caches warm, as the
	// analyzer's pooled cache is.
	decodeChunk = 64

	// Engine defaults the pass mirrors (engine.Config).
	minAnalyzeBytes = 256
	tickUS          = 1e6
	flowIdleUS      = 60e6
	shardByteBudget = 64 << 20
)

// selected is a packet that passed classification.
type selected struct {
	pkt    *netpkt.Packet
	reason classify.Reason
}

// view is one stream view handed to extraction: the bytes analysed,
// the flow they belong to and the trace time of the analysis.
type view struct {
	data   []byte
	bounds []int
	dgram  bool
	flow   netpkt.FlowKey
	reason classify.Reason
	ts     uint64
}

// frame is one extracted frame with the view it came from.
type frame struct {
	extract.Frame
	view *view
	fp   core.Fingerprint
}

// verdict is what the semantic stages decided about one distinct
// frame (the verdict cache's value).
type verdict struct {
	ds []sem.Detection
	sk sem.Sketch
}

// arena hands out stable copies of stream views from large blocks, so
// materializing a view costs the reasm stage no allocation of its own.
type arena struct{ block []byte }

func (a *arena) copy(b []byte) []byte {
	if len(b) > cap(a.block)-len(a.block) {
		a.block = make([]byte, 0, max(4<<20, len(b)))
	}
	n := len(a.block)
	a.block = append(a.block, b...)
	return a.block[n:len(a.block):len(a.block)]
}

// stagedOut carries the counts that are not span fields, and the
// pass's report.
type stagedOut struct {
	packets, parseErrors    int
	readAllocs, reasmAllocs uint64
	analyzeAllocs           uint64
	bufferedPeak            int
	dgramEvicted            int
	viewBytes, frameBytes   int64
	tcpViews                int
	frames, uniqueFrames    int
	starts, viableStarts    int
	liftedInsts             int64
	detectedFrames          int
	benignNS, benignBytes   int64
	events, eventsReceived  int
	shardLoad               [shards]int
	alerts                  []nids.Alert
	digest                  string
	wall                    time.Duration
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// classifyConfig translates the public classifier settings the way
// nids.NewEngine does.
func classifyConfig(cfg nids.Config) classify.Config {
	out := classify.Config{ScanThreshold: cfg.ScanThreshold, Disabled: cfg.DisableClassification}
	for _, h := range cfg.Honeypots {
		out.Honeypots = append(out.Honeypots, netip.MustParseAddr(h))
	}
	for _, d := range cfg.DarkSpace {
		out.DarkSpace = append(out.DarkSpace, netip.MustParsePrefix(d))
	}
	return out
}

// chunks calls fn for consecutive [lo,hi) ranges of at most
// chunkInputs of n inputs.
func chunks(n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += chunkInputs {
		fn(lo, min(lo+chunkInputs, n))
	}
}

// stagedPass runs the pass; rec == nil runs it without recording.
func stagedPass(w *workload, dir string, rec *recorder) (*stagedOut, error) {
	out := &stagedOut{}
	start := time.Now()
	root := rec.begin("pass")

	pkts, err := stageRead(filepath.Join(dir, traceFile), rec, out)
	if err != nil {
		return nil, err
	}
	sel := stageClassify(w, pkts, rec, out)
	tcpViews, dgramViews, flowEvents := stageReasm(w, sel, rec, out)
	frames := stageExtract(tcpViews, dgramViews, rec, out)
	unique := stageFingerprint(frames, rec, out)

	analyzer := sem.NewAnalyzer(sem.BuiltinTemplates())
	stageDecodeLift(analyzer, unique, rec, out)
	verdicts := stageAnalyze(w, analyzer, unique, rec, out)

	alerts, events := emit(frames, verdicts, flowEvents)
	out.events = len(events)
	incidents, trees := stageCorrelate(w, events, rec, out)

	h := rec.begin("render")
	c := rec.begin("report.render")
	out.digest, err = reportDigest(alerts, incidents, trees)
	rec.end(c, int64(len(alerts)+len(incidents)+len(trees)), 1, 0)
	rec.end(h, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	rec.end(root, int64(out.packets), int64(len(alerts)), 0)
	out.wall = time.Since(start)
	return out, nil
}

// stageRead times the engine's read path — the pooled
// TraceReader.NextPacket, each packet released at once — and then, as
// harness work, reads the file again without a pool to materialize the
// packets for the stages that follow.
func stageRead(path string, rec *recorder, out *stagedOut) ([]*netpkt.Packet, error) {
	h := rec.begin("read")
	defer func() { rec.end(h, 0, int64(out.packets), 0) }()

	open := func() (netpkt.TraceReader, *os.File, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		tr, err := netpkt.NewTraceReader(bufio.NewReaderSize(f, 1<<18))
		if err != nil {
			f.Close()
		}
		return tr, f, err
	}
	tr, f, err := open()
	if err != nil {
		return nil, err
	}
	tr.SetPool(netpkt.NewPacketPool())
	m0 := mallocs()
	for done := false; !done; {
		c := rec.begin("netpkt.read")
		n, nbytes := 0, 0
		for ; n < chunkInputs; n++ {
			p, err := tr.NextPacket(&out.parseErrors)
			if err != nil {
				if err != io.EOF {
					f.Close()
					return nil, err
				}
				done = true
				break
			}
			nbytes += len(p.Payload)
			p.Release()
		}
		rec.end(c, int64(n), int64(n), int64(nbytes))
		out.packets += n
	}
	out.readAllocs = mallocs() - m0
	f.Close()

	c := rec.begin("bench.materialize")
	defer func() { rec.end(c, int64(out.packets), int64(out.packets), 0) }()
	tr, f, err = open()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pkts := make([]*netpkt.Packet, 0, out.packets)
	for {
		p, err := tr.NextPacket(nil)
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
}

func stageClassify(w *workload, pkts []*netpkt.Packet, rec *recorder, out *stagedOut) []selected {
	h := rec.begin("classify")
	cl := classify.New(classifyConfig(w.engine.Config))
	var sel []selected
	chunks(len(pkts), func(lo, hi int) {
		c := rec.begin("classify.classify")
		before := len(sel)
		for _, p := range pkts[lo:hi] {
			if ok, reason := cl.Classify(p); ok {
				sel = append(sel, selected{p, reason})
			}
		}
		rec.end(c, int64(hi-lo), int64(len(sel)-before), 0)
	})
	rec.end(h, int64(len(pkts)), int64(len(sel)), 0)
	// Where the engine would send each selected packet: UDP dispatches
	// on the conversation-canonical key (engine.Feeder.Process).
	for _, s := range sel {
		k := s.pkt.Flow()
		if s.pkt.HasUDP {
			k = k.Canonical()
		}
		out.shardLoad[engine.FlowHash(k, shards)]++
	}
	return sel
}

// flowInfo is the classification reason and trace time of a flow's
// last packet: what an analysis triggered by eviction is stamped with.
type flowInfo struct {
	reason classify.Reason
	ts     uint64
}

// flowState is the per-flow bookkeeping engine.shard keeps beside the
// reassembler.
type flowState struct {
	lastAnalyzed map[netpkt.FlowKey]int
	meta         map[netpkt.FlowKey]flowInfo
	events       []core.Event
	maxTS        uint64
	lastTick     uint64
}

func newFlowState() *flowState {
	return &flowState{lastAnalyzed: make(map[netpkt.FlowKey]int), meta: make(map[netpkt.FlowKey]flowInfo)}
}

func flowEvent(kind core.EventKind, k netpkt.FlowKey, ts uint64) core.Event {
	return core.Event{Kind: kind, TimestampUS: ts, Src: k.SrcIP, Dst: k.DstIP, SrcPort: k.SrcPort, DstPort: k.DstPort}
}

// track notes one packet of a flow, publishing flow-open the first
// time, and reports whether a lifecycle tick is due.
func (fs *flowState) track(p *netpkt.Packet, reason classify.Reason) (tick bool) {
	if p.TimestampUS > fs.maxTS {
		fs.maxTS = p.TimestampUS
	}
	k := p.Flow()
	if _, tracked := fs.meta[k]; !tracked {
		fs.events = append(fs.events, flowEvent(core.EventFlowOpen, k, p.TimestampUS))
	}
	fs.meta[k] = flowInfo{reason, p.TimestampUS}
	if fs.maxTS-fs.lastTick >= tickUS {
		fs.lastTick = fs.maxTS
		return true
	}
	return false
}

func (fs *flowState) forget(k netpkt.FlowKey) {
	delete(fs.lastAnalyzed, k)
	delete(fs.meta, k)
}

// stageReasm feeds the selected packets through reassembly the way a
// shard does and materializes every stream view the shard would have
// analysed. TCP and datagram traffic run as two passes over their own
// assemblers — flows never interact, and it keeps Feed's time apart
// from FeedDatagram's.
func stageReasm(w *workload, sel []selected, rec *recorder, out *stagedOut) (tcpViews, dgramViews []*view, events []core.Event) {
	h := rec.begin("reasm")
	var tcp, udp []selected
	for _, s := range sel {
		if s.pkt.HasTCP {
			tcp = append(tcp, s)
		} else if len(s.pkt.Payload) > 0 {
			udp = append(udp, s)
		}
	}
	var mem arena
	materialize := func(dst *[]*view, st *reasm.Stream, info flowInfo) {
		c := rec.begin("bench.materialize")
		v := &view{data: mem.copy(st.Data), dgram: st.Dgram, flow: st.Key, reason: info.reason, ts: info.ts}
		if st.Dgram {
			v.bounds = slices.Clone(st.Bounds)
		}
		*dst = append(*dst, v)
		out.viewBytes += int64(len(v.data))
		rec.end(c, 1, 1, int64(len(v.data)))
	}
	// evicted is the shard's evict handler: analyse the unanalysed
	// tail, drop the side state, publish flow-evict, recycle.
	evicted := func(asm *reasm.Assembler, fs *flowState, dst *[]*view) func(*reasm.Stream) {
		return func(st *reasm.Stream) {
			if len(st.Data) > fs.lastAnalyzed[st.Key] {
				materialize(dst, st, fs.meta[st.Key])
			}
			fs.forget(st.Key)
			fs.events = append(fs.events, flowEvent(core.EventFlowEvict, st.Key, fs.maxTS))
			asm.Recycle(st.Data)
		}
	}
	drain := func(asm *reasm.Assembler, fs *flowState, dst *[]*view) {
		for _, st := range asm.Drain() {
			if len(st.Data) > fs.lastAnalyzed[st.Key] {
				materialize(dst, st, fs.meta[st.Key])
			}
			asm.Recycle(st.Data)
		}
	}
	peak := func(asm *reasm.Assembler) {
		if b := asm.TotalBytes(); b > out.bufferedPeak {
			out.bufferedPeak = b
		}
	}

	// TCP.
	asm, fs := reasm.New(), newFlowState()
	asm.SetEvictHandler(evicted(asm, fs, &tcpViews))
	m0 := mallocs()
	chunks(len(tcp), func(lo, hi int) {
		c := rec.begin("reasm.feed")
		nbytes := 0
		for _, s := range tcp[lo:hi] {
			p := s.pkt
			nbytes += len(p.Payload)
			tick := fs.track(p, s.reason)
			k := p.Flow()
			if st := asm.Feed(p); st != nil {
				if st.Rewritten {
					delete(fs.lastAnalyzed, k)
				}
				if core.ShouldAnalyze(st.Finished, len(st.Data), fs.lastAnalyzed[k], minAnalyzeBytes) {
					fs.lastAnalyzed[k] = len(st.Data)
					materialize(&tcpViews, st, flowInfo{s.reason, p.TimestampUS})
				}
				if st.Finished {
					if closed := asm.Close(k); closed != nil {
						asm.Recycle(closed.Data)
					}
					fs.forget(k)
				}
			}
			peak(asm)
			if tick {
				if fs.maxTS > flowIdleUS {
					asm.EvictIdle(fs.maxTS - flowIdleUS)
				}
				asm.EvictLRUUntil(shardByteBudget)
			}
		}
		rec.end(c, int64(hi-lo), 0, int64(nbytes))
	})
	c := rec.begin("reasm.feed")
	drain(asm, fs, &tcpViews)
	rec.end(c, 0, 0, 0)
	out.reasmAllocs = mallocs() - m0
	events = fs.events

	// Datagrams. Without datagram flows every payload-bearing datagram
	// is a view of its own and reassembly is not involved.
	if !w.engine.DatagramFlows {
		seen := make(map[netpkt.FlowKey]bool)
		for _, s := range udp {
			k := s.pkt.Flow()
			if !seen[k] {
				seen[k] = true
				events = append(events, flowEvent(core.EventFlowOpen, k, s.pkt.TimestampUS))
			}
			dgramViews = append(dgramViews, &view{data: s.pkt.Payload, flow: k, reason: s.reason, ts: s.pkt.TimestampUS})
			out.viewBytes += int64(len(s.pkt.Payload))
		}
		rec.end(h, int64(len(sel)), int64(len(tcpViews)+len(dgramViews)), 0)
		return tcpViews, dgramViews, events
	}
	dgramIdleUS := uint64(w.engine.DatagramIdle / time.Microsecond)
	asm, fs = reasm.New(), newFlowState()
	asm.SetEvictHandler(evicted(asm, fs, &dgramViews))
	chunks(len(udp), func(lo, hi int) {
		c := rec.begin("reasm.dgram_feed")
		nbytes := 0
		for _, s := range udp[lo:hi] {
			p := s.pkt
			nbytes += len(p.Payload)
			tick := fs.track(p, s.reason)
			k := p.Flow()
			if st := asm.FeedDatagram(k, p.Payload, p.TimestampUS); st != nil &&
				core.ShouldAnalyze(false, len(st.Data), fs.lastAnalyzed[k], minAnalyzeBytes) {
				fs.lastAnalyzed[k] = len(st.Data)
				materialize(&dgramViews, st, flowInfo{s.reason, p.TimestampUS})
			}
			peak(asm)
			if tick && fs.maxTS > dgramIdleUS {
				e := rec.begin("reasm.dgram_evict")
				n := asm.EvictDgramIdle(fs.maxTS - dgramIdleUS)
				rec.end(e, int64(n), int64(n), 0)
				out.dgramEvicted += n
			}
		}
		rec.end(c, int64(hi-lo), 0, int64(nbytes))
	})
	c = rec.begin("reasm.dgram_feed")
	drain(asm, fs, &dgramViews)
	rec.end(c, 0, 0, 0)
	events = append(events, fs.events...)
	rec.end(h, int64(len(sel)), int64(len(tcpViews)+len(dgramViews)), 0)
	return tcpViews, dgramViews, events
}

func stageExtract(tcpViews, dgramViews []*view, rec *recorder, out *stagedOut) []frame {
	h := rec.begin("extract")
	var frames []frame
	run := func(name string, views []*view) {
		chunks(len(views), func(lo, hi int) {
			c := rec.begin(name)
			before, nbytes := len(frames), 0
			for _, v := range views[lo:hi] {
				nbytes += len(v.data)
				var fs []extract.Frame
				if v.dgram {
					fs = extract.ExtractDatagrams(v.data, v.bounds)
				} else {
					fs = extract.Extract(v.data)
				}
				for _, f := range fs {
					frames = append(frames, frame{Frame: f, view: v})
					out.frameBytes += int64(len(f.Data))
				}
			}
			rec.end(c, int64(hi-lo), int64(len(frames)-before), int64(nbytes))
		})
	}
	run("extract.extract", tcpViews)
	var plain, convs []*view
	for _, v := range dgramViews {
		if v.dgram {
			convs = append(convs, v)
		} else {
			plain = append(plain, v)
		}
	}
	run("extract.extract", plain)
	run("extract.datagrams", convs)
	out.frames = len(frames)
	rec.end(h, int64(len(tcpViews)+len(dgramViews)), int64(len(frames)), 0)
	return frames
}

// stageFingerprint computes every frame's cache key and returns the
// distinct frames — what a verdict cache that never evicts would send
// on to analysis.
func stageFingerprint(frames []frame, rec *recorder, out *stagedOut) []*frame {
	h := rec.begin("fingerprint")
	chunks(len(frames), func(lo, hi int) {
		c := rec.begin("core.fingerprint")
		nbytes := 0
		for i := lo; i < hi; i++ {
			frames[i].fp = core.FingerprintOf(frames[i].Data)
			nbytes += len(frames[i].Data)
		}
		rec.end(c, int64(hi-lo), int64(hi-lo), int64(nbytes))
	})
	seen := make(map[core.Fingerprint]bool, len(frames))
	var unique []*frame
	for i := range frames {
		if !seen[frames[i].fp] {
			seen[frames[i].fp] = true
			unique = append(unique, &frames[i])
		}
	}
	out.uniqueFrames = len(unique)
	rec.end(h, int64(len(frames)), int64(len(unique)), 0)
	return unique
}

// stageDecodeLift sweeps each distinct frame at the analyzer's offsets
// through a decode cache, counts the starts that survive the viability
// check, and lifts the surviving sweeps — the decode and lift work
// sem.Analyzer does inside AnalyzeFrameCached, done here on its own so
// each has a row.
func stageDecodeLift(a *sem.Analyzer, unique []*frame, rec *recorder, out *stagedOut) {
	hd := rec.begin("decode+lift")
	pr := newPruner(a.Templates)
	var prog ir.Program
	caches := make([]x86.DecodeCache, decodeChunk)
	for lo := 0; lo < len(unique); lo += decodeChunk {
		hi, nbytes := min(lo+decodeChunk, len(unique)), 0
		for _, f := range unique[lo:hi] {
			nbytes += len(f.Data)
		}
		c := rec.begin("x86.sweep")
		for i, f := range unique[lo:hi] {
			caches[i].Reset(f.Data)
			for _, off := range a.SweepOffsets {
				caches[i].Sweep(off)
			}
		}
		rec.end(c, int64(hi-lo), int64(hi-lo), int64(nbytes))

		viable := make([][]int, hi-lo)
		c = rec.begin("x86.viable")
		for i, f := range unique[lo:hi] {
			for _, off := range a.SweepOffsets {
				if off >= len(f.Data) {
					break
				}
				out.starts++
				if pr.viable(&caches[i], f.Data, off) {
					viable[i] = append(viable[i], off)
					out.viableStarts++
				}
			}
		}
		rec.end(c, int64(hi-lo), int64(hi-lo), int64(nbytes))

		c = rec.begin("ir.lift")
		var insts int64
		for i := range viable {
			for _, off := range viable[i] {
				sweep := caches[i].Sweep(off)
				prog.Reuse(sweep)
				insts += int64(len(sweep))
			}
		}
		rec.end(c, int64(hi-lo), insts, int64(nbytes))
		out.liftedInsts += insts
	}
	rec.end(hd, int64(len(unique)), int64(len(unique)), 0)
}

// stageAnalyze runs the analyzer over each distinct frame and, with
// lineage on, sketches the detected ones.
func stageAnalyze(w *workload, a *sem.Analyzer, unique []*frame, rec *recorder, out *stagedOut) map[core.Fingerprint]*verdict {
	h := rec.begin("analyze")
	verdicts := make(map[core.Fingerprint]*verdict, len(unique))
	m0 := mallocs()
	chunks(len(unique), func(lo, hi int) {
		c := rec.begin("sem.analyze")
		nbytes, detected := 0, 0
		for _, f := range unique[lo:hi] {
			t0 := time.Now()
			ds := a.AnalyzeFrameCached(f.Data, f.Code)
			if len(ds) == 0 {
				out.benignNS += time.Since(t0).Nanoseconds()
				out.benignBytes += int64(len(f.Data))
			} else {
				detected++
			}
			verdicts[f.fp] = &verdict{ds: ds}
			nbytes += len(f.Data)
		}
		rec.end(c, int64(hi-lo), int64(detected), int64(nbytes))
		out.detectedFrames += detected
	})
	out.analyzeAllocs = mallocs() - m0
	rec.end(h, int64(len(unique)), int64(out.detectedFrames), 0)

	h = rec.begin("sketch")
	n := 0
	if w.engine.Lineage {
		chunks(len(unique), func(lo, hi int) {
			c := rec.begin("sem.sketch")
			k := 0
			for _, f := range unique[lo:hi] {
				if v := verdicts[f.fp]; len(v.ds) > 0 {
					v.sk = a.Sketch(f.Data, v.ds)
					k++
				}
			}
			rec.end(c, int64(k), int64(k), 0)
			n += k
		})
	}
	rec.end(h, int64(n), int64(n), 0)
	return verdicts
}

// emit turns verdicts into the alerts and events a shard would have
// produced: one fingerprint event per frame, one alert per (flow,
// template), in trace-time order.
func emit(frames []frame, verdicts map[core.Fingerprint]*verdict, flowEvents []core.Event) ([]nids.Alert, []core.Event) {
	type alertKey struct {
		flow     netpkt.FlowKey
		template string
	}
	seen := make(map[alertKey]bool)
	var alerts []nids.Alert
	events := flowEvents
	for i := range frames {
		f, v := &frames[i], frames[i].view
		vd := verdicts[f.fp]
		ev := flowEvent(core.EventFingerprint, v.flow, v.ts)
		ev.Fingerprint, ev.Sketch = f.fp, vd.sk
		events = append(events, ev)
		for _, d := range vd.ds {
			if k := (alertKey{v.flow, d.Template}); !seen[k] {
				seen[k] = true
				alerts = append(alerts, nids.Alert{
					TimestampUS: v.ts, Src: v.flow.SrcIP, Dst: v.flow.DstIP,
					SrcPort: v.flow.SrcPort, DstPort: v.flow.DstPort,
					Reason: v.reason, FrameSource: f.Source, Detection: d,
				})
				ev.Kind, ev.Template, ev.Severity = core.EventAlert, d.Template, d.Severity
				events = append(events, ev)
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TimestampUS < events[j].TimestampUS })
	return alerts, events
}

// stageCorrelate publishes the events to a correlator and a lineage
// store, the two consumers of the engine's event tap.
func stageCorrelate(w *workload, events []core.Event, rec *recorder, out *stagedOut) ([]nids.Incident, []nids.AncestryTree) {
	if !w.engine.Correlate {
		return nil, nil
	}
	h := rec.begin("publish")
	corr := incident.New(incident.Config{})
	defer corr.Stop()
	chunks(len(events), func(lo, hi int) {
		c := rec.begin("incident.publish")
		for _, ev := range events[lo:hi] {
			corr.Publish(ev)
		}
		if hi == len(events) {
			corr.Flush()
		}
		rec.end(c, int64(hi-lo), int64(hi-lo), 0)
	})
	out.eventsReceived = int(corr.Metrics().Events)
	c := rec.begin("incident.export")
	ex := corr.Export("sensor")
	rec.end(c, int64(len(ex.Sources)), 1, 0)
	c = rec.begin("incident.derive")
	_, err := incident.DeriveIncidents(ex)
	rec.end(c, int64(len(ex.Sources)), 1, 0)
	if err != nil {
		panic(err) // the export came from a live correlator
	}
	incidents := corr.Incidents()
	rec.end(h, int64(len(events)), int64(len(incidents)), 0)

	if !w.engine.Lineage {
		return incidents, nil
	}
	h = rec.begin("observe")
	store := lineage.NewStore(lineage.StoreConfig{Sensor: "sensor"})
	chunks(len(events), func(lo, hi int) {
		c := rec.begin("lineage.observe")
		for _, ev := range events[lo:hi] {
			store.Observe(ev)
		}
		rec.end(c, int64(hi-lo), int64(hi-lo), 0)
	})
	obs := store.Export()
	c = rec.begin("lineage.trace")
	trees := lineage.Trace(obs)
	rec.end(c, int64(len(obs)), int64(len(trees)), 0)
	rec.end(h, int64(len(events)), int64(len(obs)), 0)
	return incidents, trees
}
