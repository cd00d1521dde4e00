package engine

import (
	"time"

	"semnids/internal/classify"
	"semnids/internal/netpkt"
)

// batchEntry is one selected packet riding a dispatch batch: the
// batch's own copy, header by value, Payload a slice of its arena.
type batchEntry struct {
	pkt    netpkt.Packet
	reason classify.Reason
}

// batchArenaBytes bounds the payload bytes one batch carries: the arena
// is allocated once at this size and never grows under a slot that
// points into it. Full-MTU segments cross 11 to a batch, which measured
// no slower; at 32 and 64 KiB, one fresh engine per capture raised a
// 27 MB process's peak RSS by 7 and 10 MB.
const batchArenaBytes = 16 << 10

// pktBatch is one unit of shard dispatch: up to BatchSize selected
// packets and batchArenaBytes of payload in a single channel send, so
// one handoff (with its potential futex wake) covers a whole batch. The
// feeder copies the packets that pass classification into the batch,
// which owns them from then on: the shard works on &entries[i].pkt, and
// recycling a batch is truncating its two slices. Batches shuttle
// between feeder and shard through a ring per shard (the free channel),
// so steady-state dispatch does not allocate.
type pktBatch struct {
	entries []batchEntry
	arena   []byte

	// created is stamped when the batch receives its first packet and
	// read by the shard after the last packet is analyzed — the
	// ingest→verdict latency series at one clock read per batch.
	created time.Time
}

// Feeder is a per-goroutine ingestion handle. The engine's Process is
// a convenience wrapper over a default feeder; parallel capture loops
// create one Feeder each (NewFeeder) and feed packets through it from
// that goroutine only. Packets of one flow must go through one feeder
// (or the per-flow arrival order the shards rely on is lost).
//
// A feeder accumulates selected packets into per-shard batches and
// dispatches a batch when it fills, or when trace time advances a tick
// past the last flush (so a trickle of traffic cannot strand packets
// in a partial batch forever). Flush dispatches everything buffered;
// call it before Engine.Drain, and on every feeder before relying on
// cross-feeder completion.
type Feeder struct {
	e           *Engine
	pkt         netpkt.Packet // ProcessFrame's parse target, reused
	pending     []*pktBatch   // per shard; nil when empty
	maxTS       uint64
	lastFlushTS uint64
}

// NewFeeder returns an ingestion handle bound to the engine. Each
// feeder is single-goroutine; any number of feeders may run
// concurrently (the classification stage and all engine counters are
// concurrency-safe, and shard queues are multiple-producer).
func (e *Engine) NewFeeder() *Feeder {
	return &Feeder{e: e, pending: make([]*pktBatch, len(e.shards))}
}

// ProcessFrame parses one raw Ethernet frame into the feeder's reused
// packet and offers it; a frame the parser rejects is counted
// (Metrics.Unparsed) and its error returned. frame is only borrowed.
func (f *Feeder) ProcessFrame(frame []byte, tsUS uint64) error {
	if err := netpkt.ParseInto(&f.pkt, frame); err != nil {
		if !f.e.stopped.Load() {
			f.e.m.unparsed.Add(1)
		}
		return err
	}
	f.pkt.TimestampUS = tsUS
	f.Process(&f.pkt)
	return nil
}

// Process offers one parsed packet to the engine, which consumes it:
// p and its payload are only read during the call (a packet that passes
// classification is copied into the batch it rides) and p is released
// before Process returns, a no-op unless p was drawn from a pool — the
// caller may reuse or scribble both at once.
// Packets offered after Stop are ignored.
func (f *Feeder) Process(p *netpkt.Packet) {
	defer p.Release()
	e := f.e
	if e.stopped.Load() {
		return
	}
	e.m.packets.Add(1)
	ok, reason := e.classifier.Classify(p)
	if !ok {
		return
	}
	e.m.selected.Add(1)
	if p.TimestampUS > f.maxTS {
		f.maxTS = p.TimestampUS
	}

	// UDP dispatches on the conversation-canonical key so both
	// directions of one exchange land on the same shard — a datagram
	// flow's request and reply must share the shard's flow view. TCP
	// keeps directional dispatch (each direction is reassembled
	// independently). Shard assignment never affects report content,
	// so this holds with datagram flows off too.
	k := p.Flow()
	if p.HasUDP {
		k = k.Canonical()
	}
	si := shardIndex(k, len(e.shards))
	s := e.shards[si]
	b := f.pending[si]
	if b != nil && !b.fits(len(p.Payload)) {
		f.dispatch(si)
		b = nil
	}
	if b == nil {
		if b = s.getBatch(e.cfg.Overload); b == nil {
			// Shed policy with every batch buffer in flight: the shard
			// is saturated and its queue full.
			e.m.dropped.Add(1)
			return
		}
		b.created = time.Now()
		f.pending[si] = b
	}
	b.add(p, reason)
	if len(b.entries) == cap(b.entries) {
		f.dispatch(si)
	}

	// Trace time advanced a tick since the last flush: hand over every
	// partial batch so analysis (and shard lifecycle ticks) keep up
	// with trace time even under a trickle of selected traffic.
	if f.maxTS-f.lastFlushTS >= e.cfg.TickIntervalUS {
		f.Flush()
	}
}

// fits reports whether the batch has a slot and arena room for one
// more packet with n payload bytes. An empty batch takes any packet: a
// payload above the arena bound rides alone, in an arena append grows.
func (b *pktBatch) fits(n int) bool {
	return len(b.entries) == 0 || len(b.entries) < cap(b.entries) && len(b.arena)+n <= cap(b.arena)
}

// add copies p into the batch's next slot and its payload into the
// arena. The caller has checked fits.
func (b *pktBatch) add(p *netpkt.Packet, reason classify.Reason) {
	start := len(b.arena)
	b.arena = append(b.arena, p.Payload...)
	b.entries = append(b.entries, batchEntry{reason: reason})
	p.CopyTo(&b.entries[len(b.entries)-1].pkt, b.arena[start:])
}

// dispatch sends shard si's pending batch. Under the shed policy a
// full queue drops the whole batch (counted per packet) rather than
// blocking the feeder. After Stop the batch is recycled instead of
// sent (the shard queues are closed), so a straggling feeder's Flush
// is safe rather than a panic.
func (f *Feeder) dispatch(si int) {
	b := f.pending[si]
	if b == nil {
		return
	}
	f.pending[si] = nil
	s := f.e.shards[si]
	if len(b.entries) == 0 || f.e.stopped.Load() {
		s.putBatch(b)
		return
	}
	// Count the packets as queued before the send so the gauge never
	// misses in-queue work (the shard decrements after processing).
	s.queued.Add(int64(len(b.entries)))
	select {
	case s.in <- shardMsg{batch: b}:
		// Fast path: queue had room, no backpressure to record.
	default:
		if f.e.cfg.Overload == PolicyShed {
			s.queued.Add(-int64(len(b.entries)))
			f.e.m.dropped.Add(uint64(len(b.entries)))
			s.putBatch(b)
			return
		}
		t0 := time.Now()
		s.in <- shardMsg{batch: b}
		f.e.tel.dispatchWaitNS.Observe(time.Since(t0).Nanoseconds())
	}
}

// Flush dispatches every pending partial batch.
func (f *Feeder) Flush() {
	for si := range f.pending {
		f.dispatch(si)
	}
	f.lastFlushTS = f.maxTS
}

// getBatch draws a batch buffer from the shard's ring, or allocates
// one when the ring is empty: every buffer is in flight, or traffic has
// not needed this many yet. Backpressure comes from the bounded queue
// send, and the ring declines to grow at putBatch. Under shed an empty
// ring alone is not overload — other feeders may be holding partial
// batches — so only an empty ring WITH a full queue makes the caller
// drop: allocation stops the moment the queue fills.
func (s *shard) getBatch(policy OverloadPolicy) *pktBatch {
	select {
	case b := <-s.free:
		return b
	default:
	}
	if policy == PolicyShed && len(s.in) >= cap(s.in) {
		return nil
	}
	return &pktBatch{entries: make([]batchEntry, 0, s.eng.cfg.BatchSize), arena: make([]byte, 0, batchArenaBytes)}
}

// putBatch empties a processed (or dropped) batch buffer and returns it
// to the ring — unless the ring is full (an overflow buffer) or the
// arena grew for an oversized payload: those are let go.
func (s *shard) putBatch(b *pktBatch) {
	if cap(b.arena) > batchArenaBytes {
		return
	}
	b.entries, b.arena = b.entries[:0], b.arena[:0]
	select {
	case s.free <- b:
	default:
	}
}
