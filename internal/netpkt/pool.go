package netpkt

import (
	"sync"
	"sync/atomic"
)

// PacketPool recycles Packet structs and their payload buffers across
// a capture loop. Reading a trace (or a live capture) through a pooled
// reader allocates nothing per packet in steady state: the reader
// draws a packet and a payload buffer from the pool, the pipeline
// takes ownership, and whoever finishes with the packet calls
// Packet.Release to hand both back.
//
// Packets are reference-counted (starting at 1) so a consumer that
// must hold a packet past its own scope can Retain it; the buffers
// return to the pool when the last reference releases. Packets not
// drawn from a pool ignore Retain/Release entirely, so producers that
// build packets by hand (generators, tests) interoperate with
// release-discipline consumers at zero cost.
//
// A PacketPool is safe for concurrent use.
type PacketPool struct {
	pkts sync.Pool // *Packet
	bufs sync.Pool // *[]byte
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a reset packet owned by the pool with reference count 1.
func (pl *PacketPool) Get() *Packet {
	p, _ := pl.pkts.Get().(*Packet)
	if p == nil {
		p = new(Packet)
	}
	*p = Packet{pool: pl, refs: 1}
	return p
}

// attachPayload copies src into a pooled buffer and points the
// packet's Payload at it.
func (pl *PacketPool) attachPayload(p *Packet, src []byte) {
	bp, _ := pl.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < len(src) {
		*bp = make([]byte, len(src))
	}
	b := (*bp)[:len(src)]
	copy(b, src)
	p.buf = bp
	p.Payload = b
}

// CopyTo copies p's layer fields and timestamp into dst, with payload —
// the caller's own copy of p.Payload — as dst's payload. dst carries no
// pooling state: it belongs to whoever owns its storage, and outlives
// p's release.
func (p *Packet) CopyTo(dst *Packet, payload []byte) {
	*dst = *p
	dst.Payload = payload
	dst.pool, dst.buf, dst.refs = nil, nil, 0
}

// Retain adds a reference to a pooled packet (no-op otherwise): the
// packet and its payload stay valid until a matching Release.
func (p *Packet) Retain() {
	if p.pool != nil {
		atomic.AddInt32(&p.refs, 1)
	}
}

// Release drops one reference; the last release returns the packet and
// its payload buffer to their pool for reuse. No-op for packets that
// did not come from a pool, so consumers can release unconditionally.
// The packet must not be touched after its final Release.
func (p *Packet) Release() {
	if p == nil || p.pool == nil {
		return
	}
	if atomic.AddInt32(&p.refs, -1) != 0 {
		return
	}
	pl := p.pool
	buf := p.buf
	*p = Packet{}
	if buf != nil {
		pl.bufs.Put(buf)
	}
	pl.pkts.Put(p)
}
