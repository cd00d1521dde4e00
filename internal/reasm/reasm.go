// Package reasm implements per-flow TCP stream reassembly: it merges
// in-order and out-of-order segments into contiguous stream payloads
// so that exploit content split across packets is analyzed whole.
package reasm

import (
	"cmp"
	"slices"
	"sort"

	"semnids/internal/netpkt"
)

// Limits protecting the reassembler from state-exhaustion.
const (
	// MaxStreamBytes caps how much payload is buffered per flow; a
	// remote exploit's interesting content arrives in the first few
	// kilobytes.
	MaxStreamBytes = 1 << 20
	// MaxFlows caps tracked flows; oldest-idle flows are evicted.
	MaxFlows = 1 << 14
	// MaxGapSegments caps buffered out-of-order segments per flow.
	MaxGapSegments = 256
	// MaxDgramBounds caps recorded datagram boundaries per flow; a
	// flow spraying more datagrams than this keeps buffering payload
	// (up to MaxStreamBytes) but further boundaries merge into the
	// last one, bounding boundary memory the way MaxGapSegments
	// bounds gap memory.
	MaxDgramBounds = 4096
)

type segment struct {
	seq  uint32
	data []byte
}

// stream is one direction of a TCP connection, or — when dgram is set —
// the ordered concatenation of one direction of a datagram
// conversation, with per-datagram start offsets preserved in bounds.
type stream struct {
	key       netpkt.FlowKey
	baseSeq   uint32 // sequence number of the first byte of Data
	haveBase  bool
	data      []byte
	pending   []segment // out-of-order segments, sorted by seq
	pendBytes int       // total payload bytes buffered in pending
	lastSeen  uint64    // timestamp of last activity
	finished  bool
	dgram     bool  // datagram flow (FeedDatagram) rather than TCP
	bounds    []int // start offset in data of each buffered datagram
	side      FlowState
}

// FlowState is the side state of whoever drives the assembler, kept on
// the flow's own record so that the driver needs no second table keyed
// by the same FlowKey. The assembler zeroes it when it creates the flow
// and never reads it. It is reached through Stream.Flow and Touched.
type FlowState struct {
	Reason   string // why the flow's latest packet was selected
	LastTS   uint64 // that packet's timestamp
	Analyzed int    // length of the prefix of Data already analyzed
	Opened   bool   // the flow's opening has been published
}

// footprint is the stream's buffered-memory cost, used for the
// assembler's byte accounting.
func (st *stream) footprint() int { return len(st.data) + st.pendBytes }

// Stream is the reassembled view handed to the next pipeline stage.
type Stream struct {
	Key      netpkt.FlowKey
	Data     []byte
	Finished bool

	// Rewritten is always false: overlapping segments resolve
	// first-wins, so buffered bytes are never rewritten. It remains
	// only for a reader in the benchmark module.
	Rewritten bool

	// Dgram marks a datagram flow (built by FeedDatagram): Data is
	// the in-order concatenation of the flow's datagram payloads and
	// Bounds holds each datagram's start offset within Data, so
	// boundary-sensitive extractors (CoAP has no length framing below
	// the datagram) can walk the individual messages. Bounds is a
	// reused buffer with the same lifetime as the view itself.
	Dgram  bool
	Bounds []int

	// Flow is the driver's side state for this flow (see FlowState),
	// with the view's own lifetime.
	Flow *FlowState
}

// Pool limits. One lifecycle tick can evict thousands of flows and the
// traffic behind it opens as many again, so the free lists hold what a
// tick returns: flow records up to maxFreeStreams (~1 MiB of structs),
// and as many stream-data buffers at most, up to maxFreeBufBytes of
// capacity in total. The
// largest buffer worth keeping is maxRecycledBuf (oversized buffers are
// dropped so one huge flow cannot pin its worth of memory forever).
const (
	maxFreeBufBytes = 1 << 20
	maxRecycledBuf  = 1 << 18
	maxFreeStreams  = 4096
	maxFreePendSegs = 16
	maxFreeBounds   = 256
)

// Assembler reassembles many flows concurrently-fed from one goroutine.
type Assembler struct {
	flows      map[netpkt.FlowKey]*stream
	bytes      int // sum of per-flow footprints
	dgramFlows int // tracked datagram flows (subset of flows)
	dgramBytes int // bytes buffered by datagram flows (subset of bytes)

	// onEvict, when set, is invoked for every flow the assembler drops
	// on its own (capacity overflow, EvictIdle, EvictLRUUntil) — NOT
	// for Close or Drain, whose streams are returned to the caller.
	// The stream's Finished field is false: the flow did not end, the
	// assembler gave up on it. The handler must not call back into the
	// assembler, with one exception: Recycle, so a handler that
	// finishes with the evicted data synchronously can return its
	// buffer.
	onEvict func(*Stream)

	// res is the reused Feed result: one Stream view handed out per
	// Feed call instead of one allocation per packet. It is valid
	// until the next Feed/Close/Drain call. ev is the same for the
	// evict handler, apart so that an eviction inside or after a Feed
	// leaves the caller's view alone.
	res, ev Stream

	// touched is the flow the latest Feed or FeedDatagram fed.
	touched *stream

	// freeBufs and freeStreams recycle stream-data buffers (returned
	// by the owner via Recycle) and flow-state structs (recycled
	// internally when a flow is closed, drained or evicted), so
	// steady-state flow churn does not allocate.
	freeBufs     [][]byte
	freeBufBytes int // summed capacity of freeBufs
	freeStreams  []*stream

	// leaving is the reused scratch list of flows about to leave the
	// table, in hand-over order (see departing).
	leaving []*stream
}

// New returns an empty assembler.
func New() *Assembler {
	return &Assembler{flows: make(map[netpkt.FlowKey]*stream)}
}

// SetEvictHandler registers a callback receiving the final reassembled
// view of every flow the assembler evicts, so callers can analyze the
// tail and release per-flow side state instead of silently losing it.
func (a *Assembler) SetEvictHandler(h func(*Stream)) { a.onEvict = h }

// Recycle returns a stream-data buffer (the Data of a stream obtained
// from Close, Drain or the evict handler) to the assembler's free
// list, to back a future flow without allocating. The caller asserts
// no live reference to the buffer remains — typically right after
// synchronously analyzing an evicted or closed stream. Unsuitable
// buffers are simply dropped.
func (a *Assembler) Recycle(data []byte) {
	if data == nil || cap(data) > maxRecycledBuf || len(a.freeBufs) >= maxFreeStreams || a.freeBufBytes+cap(data) > maxFreeBufBytes {
		return
	}
	a.freeBufs = append(a.freeBufs, data[:0])
	a.freeBufBytes += cap(data)
}

// getBuf pops a recycled data buffer, or returns nil (append grows
// from scratch, exactly as an unpooled assembler would).
func (a *Assembler) getBuf() []byte {
	if n := len(a.freeBufs); n > 0 {
		b := a.freeBufs[n-1]
		a.freeBufs = a.freeBufs[:n-1]
		a.freeBufBytes -= cap(b)
		return b
	}
	return nil
}

// getStream pops a recycled flow-state struct (fully reset) or
// allocates one.
func (a *Assembler) getStream(key netpkt.FlowKey) *stream {
	if n := len(a.freeStreams); n > 0 {
		st := a.freeStreams[n-1]
		a.freeStreams = a.freeStreams[:n-1]
		pending := st.pending[:0]
		bounds := st.bounds[:0]
		*st = stream{key: key, pending: pending, bounds: bounds}
		st.data = a.getBuf()
		return st
	}
	return &stream{key: key, data: a.getBuf()}
}

// putStream recycles a flow-state struct after its removal from the
// flow table. The data buffer is NOT recycled here — its ownership
// moved to whoever received the final Stream view; they hand it back
// through Recycle when done.
func (a *Assembler) putStream(st *stream) {
	if len(a.freeStreams) >= maxFreeStreams || cap(st.pending) > maxFreePendSegs || cap(st.bounds) > maxFreeBounds {
		return
	}
	st.data = nil
	for i := range st.pending {
		st.pending[i] = segment{}
	}
	st.pending = st.pending[:0]
	st.bounds = st.bounds[:0]
	a.freeStreams = append(a.freeStreams, st)
}

// TotalBytes reports the bytes currently buffered across all flows
// (contiguous data plus out-of-order segments).
func (a *Assembler) TotalBytes() int { return a.bytes }

// seqLess compares TCP sequence numbers with wraparound.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// Feed adds a packet to its flow, returning the flow's reassembled
// stream when this packet completed new contiguous data (nil
// otherwise). A FIN or RST marks the stream finished. Where segments
// overlap, the first copy of every byte wins: a retransmission cannot
// rewrite data already buffered. The returned
// Stream is a reused view, valid until the next Feed, Close or Drain
// call on this assembler; callers that need it longer must copy it.
func (a *Assembler) Feed(p *netpkt.Packet) *Stream {
	if !p.HasTCP {
		return nil
	}
	key := p.Flow()
	st := a.flows[key]
	if st == nil {
		if len(a.flows) >= MaxFlows {
			a.evictIdle()
		}
		st = a.getStream(key)
		a.flows[key] = st
	}
	a.touched = st
	st.lastSeen = p.TimestampUS

	if p.Flags&(netpkt.FlagFIN|netpkt.FlagRST) != 0 {
		st.finished = true
	}

	seq := p.Seq
	if p.Flags&netpkt.FlagSYN != 0 {
		// SYN consumes one sequence number; data begins at seq+1.
		st.baseSeq = seq + 1
		st.haveBase = true
		if len(p.Payload) == 0 {
			return a.result(st, false)
		}
		seq++
	}
	if len(p.Payload) == 0 {
		return a.result(st, false)
	}
	if !st.haveBase {
		st.baseSeq = seq
		st.haveBase = true
	}

	before := st.footprint()
	grew := st.insert(seq, p.Payload)
	a.bytes += st.footprint() - before
	return a.result(st, grew)
}

func (a *Assembler) result(st *stream, grew bool) *Stream {
	if !grew && !st.finished {
		return nil
	}
	if len(st.data) == 0 {
		return nil
	}
	a.res = Stream{Key: st.key, Data: st.data, Finished: st.finished, Dgram: st.dgram, Bounds: st.bounds, Flow: &st.side}
	return &a.res
}

// Touched returns the side state of the flow the latest Feed (of a TCP
// packet) or FeedDatagram call fed, whether or not that call returned a
// view; nil before the first. Valid until the next call on the
// assembler.
func (a *Assembler) Touched() *FlowState {
	if a.touched == nil {
		return nil
	}
	return &a.touched.side
}

// FeedDatagram appends one datagram's payload to its flow's buffer,
// creating the flow on first sight and recording the datagram's start
// offset so message boundaries survive concatenation. It returns the
// flow's accumulated stream when the buffer grew (nil otherwise) —
// the same reused-view contract as Feed. Datagram flows share the
// assembler's flow table, byte accounting and eviction machinery with
// TCP streams; their keys never collide (the Proto field differs).
func (a *Assembler) FeedDatagram(key netpkt.FlowKey, payload []byte, tsUS uint64) *Stream {
	st := a.flows[key]
	if st == nil {
		if len(a.flows) >= MaxFlows {
			a.evictIdle()
		}
		st = a.getStream(key)
		st.dgram = true
		a.flows[key] = st
		a.dgramFlows++
	}
	a.touched = st
	st.lastSeen = tsUS
	if len(payload) == 0 {
		return a.result(st, false)
	}
	before := len(st.data)
	st.data = appendCapped(st.data, payload)
	added := len(st.data) - before
	if added == 0 {
		return a.result(st, false)
	}
	if len(st.bounds) < MaxDgramBounds {
		st.bounds = append(st.bounds, before)
	}
	a.bytes += added
	a.dgramBytes += added
	return a.result(st, true)
}

// insert merges a segment, returning true if contiguous data grew.
// Bytes already buffered keep their first copy.
func (st *stream) insert(seq uint32, data []byte) bool {
	end := st.baseSeq + uint32(len(st.data))
	switch {
	case seq == end:
		// In-order append.
		st.data = appendCapped(st.data, data)
	case seqLess(seq, end):
		// Overlap/retransmission: keep the existing bytes, append any
		// new tail.
		skip := end - seq
		if uint32(len(data)) <= skip {
			return false
		}
		st.data = appendCapped(st.data, data[skip:])
	default:
		// Gap: buffer out of order.
		if len(st.pending) < MaxGapSegments {
			st.pending = append(st.pending, segment{seq: seq, data: append([]byte(nil), data...)})
			st.pendBytes += len(data)
			sort.Slice(st.pending, func(i, j int) bool {
				return seqLess(st.pending[i].seq, st.pending[j].seq)
			})
		}
		return false
	}
	// Drain any pending segments now contiguous.
	progressed := true
	for progressed {
		progressed = false
		end = st.baseSeq + uint32(len(st.data))
		rest := st.pending[:0]
		for _, sg := range st.pending {
			switch {
			case seqLess(sg.seq, end) || sg.seq == end:
				st.pendBytes -= len(sg.data)
				skip := end - sg.seq
				if uint32(len(sg.data)) > skip {
					st.data = appendCapped(st.data, sg.data[skip:])
					progressed = true
					end = st.baseSeq + uint32(len(st.data))
				}
			default:
				rest = append(rest, sg)
			}
		}
		st.pending = rest
	}
	return true
}

func appendCapped(dst, src []byte) []byte {
	room := MaxStreamBytes - len(dst)
	if room <= 0 {
		return dst
	}
	if len(src) > room {
		src = src[:room]
	}
	return append(dst, src...)
}

// evict removes one flow, updates the byte accounting, and notifies
// the evict handler. With no handler attached nobody ever sees the
// flow's data, so its buffer is recycled directly; with a handler, the
// handler decides (by calling Recycle when it is done synchronously).
func (a *Assembler) evict(st *stream) {
	a.noteRemove(st)
	delete(a.flows, st.key)
	if a.onEvict != nil {
		a.ev = Stream{Key: st.key, Data: st.data, Finished: false, Dgram: st.dgram, Bounds: st.bounds, Flow: &st.side}
		a.onEvict(&a.ev)
	} else {
		a.Recycle(st.data)
	}
	a.putStream(st)
}

// noteRemove updates the byte and datagram accounting for a stream
// leaving the flow table (evict, Close, Drain).
func (a *Assembler) noteRemove(st *stream) {
	a.bytes -= st.footprint()
	if st.dgram {
		a.dgramFlows--
		a.dgramBytes -= len(st.data)
	}
}

// olderFirst orders flows by last activity, oldest first, ties broken
// by flow key, so flows leave the table in the same order on every run
// (the map's own order is random).
func olderFirst(x, y *stream) int {
	if c := cmp.Compare(x.lastSeen, y.lastSeen); c != 0 {
		return c
	}
	kx, ky := &x.key, &y.key
	if c := kx.SrcIP.Compare(ky.SrcIP); c != 0 {
		return c
	}
	if c := kx.DstIP.Compare(ky.DstIP); c != 0 {
		return c
	}
	if c := cmp.Compare(kx.SrcPort, ky.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(kx.DstPort, ky.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(kx.Proto, ky.Proto)
}

// departing returns the flows sel selects (every flow when sel is
// nil) in olderFirst order. The slice is reused scratch, valid until
// the next call.
func (a *Assembler) departing(sel func(*stream) bool) []*stream {
	out := a.leaving[:0]
	for _, st := range a.flows {
		if sel == nil || sel(st) {
			out = append(out, st)
		}
	}
	slices.SortFunc(out, olderFirst)
	a.leaving = out
	return out
}

// evictWhere evicts the flows sel selects in departing order and
// reports how many. Each caller of departing clears the scratch list
// when done, so it pins no flow record.
func (a *Assembler) evictWhere(sel func(*stream) bool) int {
	sts := a.departing(sel)
	for _, st := range sts {
		a.evict(st)
	}
	clear(sts)
	return len(sts)
}

// evictIdle drops the least recently active half of the flow table.
func (a *Assembler) evictIdle() {
	entries := a.departing(nil)
	for _, st := range entries[:len(entries)/2] {
		a.evict(st)
	}
	clear(entries)
}

// EvictIdle drops every flow whose last activity predates olderThanUS,
// oldest first, reporting how many were evicted. Each evicted flow is
// handed to the evict handler first, so its unanalyzed tail can still
// be inspected.
func (a *Assembler) EvictIdle(olderThanUS uint64) int {
	return a.evictWhere(func(st *stream) bool { return st.lastSeen < olderThanUS })
}

// EvictDgramIdle drops datagram flows whose last activity predates
// olderThanUS, oldest first, leaving TCP streams alone — the tighter
// idle window datagram conversations get when configured separately
// from the flow-wide timeout. Each evicted flow is handed to the evict
// handler first.
func (a *Assembler) EvictDgramIdle(olderThanUS uint64) int {
	return a.evictWhere(func(st *stream) bool { return st.dgram && st.lastSeen < olderThanUS })
}

// EvictLRUUntil drops least-recently-active flows until the buffered
// byte total is at or below budget, reporting how many were evicted.
func (a *Assembler) EvictLRUUntil(budget int) int {
	if a.bytes <= budget {
		return 0
	}
	entries := a.departing(nil)
	n := 0
	for _, st := range entries {
		if a.bytes <= budget {
			break
		}
		a.evict(st)
		n++
	}
	clear(entries)
	return n
}

// Close removes a finished flow's state and returns its final stream
// (a reused view, valid until the next Feed/Close/Drain call). The
// data buffer's ownership moves to the caller; hand it back with
// Recycle when done with it.
func (a *Assembler) Close(key netpkt.FlowKey) *Stream {
	st := a.flows[key]
	if st == nil {
		return nil
	}
	a.noteRemove(st)
	delete(a.flows, key)
	data, bounds, dg := st.data, st.bounds, st.dgram
	a.putStream(st)
	if len(data) == 0 {
		a.Recycle(data)
		return nil
	}
	a.res = Stream{Key: key, Data: data, Finished: true, Dgram: dg, Bounds: bounds, Flow: &st.side}
	return &a.res
}

// FlowCount reports the number of tracked flows (for metrics).
func (a *Assembler) FlowCount() int { return len(a.flows) }

// DgramFlowCount reports the number of tracked datagram flows.
func (a *Assembler) DgramFlowCount() int { return a.dgramFlows }

// DgramBytes reports the bytes buffered by datagram flows.
func (a *Assembler) DgramBytes() int { return a.dgramBytes }

// Drain removes and returns every tracked flow's stream (used when a
// trace ends without FINs on all connections), oldest first. Each
// returned stream's data buffer belongs to the caller; Recycle returns
// it when done.
func (a *Assembler) Drain() []*Stream {
	var out []*Stream
	all := a.departing(nil)
	for _, st := range all {
		if len(st.data) > 0 {
			out = append(out, &Stream{Key: st.key, Data: st.data, Finished: true, Dgram: st.dgram, Bounds: st.bounds, Flow: &st.side})
		} else {
			a.Recycle(st.data)
		}
		a.noteRemove(st)
		delete(a.flows, st.key)
		a.putStream(st)
	}
	clear(all)
	return out
}
