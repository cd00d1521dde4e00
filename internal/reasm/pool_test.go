package reasm

import (
	"net/netip"
	"testing"

	"semnids/internal/netpkt"
)

func tcpSeg(src byte, seq uint32, payload []byte, flags uint8) *netpkt.Packet {
	return &netpkt.Packet{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, src}), DstIP: netip.AddrFrom4([4]byte{10, 0, 1, 1}),
		SrcPort: 1000 + uint16(src), DstPort: 80,
		Proto: netpkt.ProtoTCP, HasTCP: true,
		Seq: seq, Flags: flags, Payload: payload,
	}
}

// TestRecycleReusesBuffer proves the explicit buffer hand-back path: a
// closed flow's data buffer, returned through Recycle, backs the next
// flow instead of a fresh allocation.
func TestRecycleReusesBuffer(t *testing.T) {
	a := New()
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}

	if s := a.Feed(tcpSeg(1, 100, payload, netpkt.FlagACK)); s == nil {
		t.Fatal("no stream from first flow")
	}
	s := a.Feed(tcpSeg(1, 100+uint32(len(payload)), nil, netpkt.FlagFIN))
	if s == nil || !s.Finished {
		t.Fatal("first flow did not finish")
	}
	closed := a.Close(s.Key)
	if closed == nil || len(closed.Data) != len(payload) {
		t.Fatalf("close returned %v", closed)
	}
	first := &closed.Data[:1][0]
	a.Recycle(closed.Data)

	s2 := a.Feed(tcpSeg(2, 500, payload, netpkt.FlagACK))
	if s2 == nil || len(s2.Data) != len(payload) {
		t.Fatalf("no stream from second flow: %v", s2)
	}
	if &s2.Data[:1][0] != first {
		t.Error("recycled buffer was not reused for the next flow")
	}
}

// TestRecycleLimits pins the pool's safety valves: nil and oversized
// buffers are dropped, and the free list is bounded by count (small
// buffers) and by bytes (large ones), with the byte count following
// what getBuf takes back out.
func TestRecycleLimits(t *testing.T) {
	a := New()
	a.Recycle(nil)
	if got := len(a.freeBufs); got != 0 {
		t.Errorf("nil recycled: free list %d", got)
	}
	a.Recycle(make([]byte, 0, maxRecycledBuf+1))
	if got := len(a.freeBufs); got != 0 {
		t.Errorf("oversized buffer recycled: free list %d", got)
	}
	for i := 0; i < maxFreeStreams+10; i++ {
		a.Recycle(make([]byte, 16))
	}
	if got := len(a.freeBufs); got != maxFreeStreams {
		t.Errorf("free list grew to %d buffers, cap %d", got, maxFreeStreams)
	}

	a = New()
	const big = 64 << 10
	for i := 0; i < maxFreeBufBytes/big+10; i++ {
		a.Recycle(make([]byte, big))
	}
	if a.freeBufBytes != maxFreeBufBytes || len(a.freeBufs) != maxFreeBufBytes/big {
		t.Errorf("free list holds %d bytes in %d buffers, cap %d bytes", a.freeBufBytes, len(a.freeBufs), maxFreeBufBytes)
	}
	for a.getBuf() != nil {
	}
	if a.freeBufBytes != 0 {
		t.Errorf("emptied free list still counts %d bytes", a.freeBufBytes)
	}
}

// TestSideStateFollowsTheFlow pins the FlowState contract: it is
// reachable after a Feed that returns no view, shared by every view of
// the flow (Feed, Close, Drain, the evict handler), and zeroed when the
// record is reused for another flow.
func TestSideStateFollowsTheFlow(t *testing.T) {
	a := New()
	var evicted *FlowState
	a.SetEvictHandler(func(st *Stream) { evicted = st.Flow })
	if a.Touched() != nil {
		t.Fatal("side state before any flow")
	}

	// A bare SYN returns no view; the side state is there all the same.
	if st := a.Feed(tcpSeg(1, 99, nil, netpkt.FlagSYN)); st != nil {
		t.Fatalf("view from a bare SYN: %v", st)
	}
	fl := a.Touched()
	if fl == nil || *fl != (FlowState{}) {
		t.Fatalf("new flow's side state: %+v", fl)
	}
	*fl = FlowState{Reason: "r", LastTS: 7, Analyzed: 3, Opened: true}
	st := a.Feed(tcpSeg(1, 100, []byte("data"), netpkt.FlagACK))
	if st == nil || st.Flow != fl || a.Touched() != fl {
		t.Fatalf("view does not carry the flow's side state: %+v", st)
	}
	key := st.Key // the view is reused by the next call
	// Another flow has its own.
	a.FeedDatagram(netpkt.FlowKey{SrcPort: 1, Proto: netpkt.ProtoUDP}, []byte("x"), 5)
	if got := a.Touched(); got == fl || *got != (FlowState{}) {
		t.Fatalf("second flow's side state: %+v", got)
	}
	a.Touched().Analyzed = 1

	if n := a.EvictDgramIdle(6); n != 1 || evicted == nil || evicted.Analyzed != 1 {
		t.Fatalf("evicted %d, side state %+v", n, evicted)
	}
	if closed := a.Close(key); closed == nil || *closed.Flow != *fl {
		t.Fatalf("closed view: %+v", closed)
	}
	// Both records are on the free list now; the next flows reuse them
	// and must start clean.
	for src := byte(2); src < 4; src++ {
		a.Feed(tcpSeg(src, 1, []byte("y"), netpkt.FlagACK))
		if got := a.Touched(); *got != (FlowState{}) {
			t.Errorf("reused record kept side state %+v", got)
		}
		a.Touched().Analyzed = 9
	}
	for _, d := range a.Drain() {
		if d.Flow == nil || d.Flow.Analyzed != 9 {
			t.Errorf("drained view's side state: %+v", d.Flow)
		}
	}
}

// TestFeedSteadyStateAllocs pins the allocation behavior of warm flow
// churn: with buffers recycled after Close, repeatedly opening,
// filling and closing a flow must not allocate per cycle.
func TestFeedSteadyStateAllocs(t *testing.T) {
	a := New()
	payload := make([]byte, 1024)
	cycle := func(src byte) {
		a.Feed(tcpSeg(src, 10, payload, netpkt.FlagACK))
		s := a.Feed(tcpSeg(src, 10+uint32(len(payload)), nil, netpkt.FlagFIN))
		if s == nil {
			t.Fatal("flow did not report")
		}
		if closed := a.Close(s.Key); closed != nil {
			a.Recycle(closed.Data)
		}
	}
	// Warm the pools.
	for i := 0; i < 4; i++ {
		cycle(byte(i))
	}
	allocs := testing.AllocsPerRun(100, func() { cycle(9) })
	// Map churn costs a little; per-packet stream/buffer allocations
	// would push this over 2.
	if allocs > 2 {
		t.Errorf("flow cycle allocates %.1f objects, want <= 2", allocs)
	}
}

// TestDgramEvictSteadyStateAllocs pins warm datagram churn at zero
// allocations: a tick's worth of flows opened, fed, and handed over by
// the idle sweep (their buffers recycled by the evict handler), again
// and again.
func TestDgramEvictSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	a := New()
	a.SetEvictHandler(func(st *Stream) { a.Recycle(st.Data) })
	keys := make([]netpkt.FlowKey, 64)
	for i := range keys {
		keys[i] = netpkt.FlowKey{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), DstIP: netip.AddrFrom4([4]byte{10, 0, 1, 1}),
			SrcPort: 5683, DstPort: 5683, Proto: netpkt.ProtoUDP,
		}
	}
	payload := make([]byte, 16)
	ts := uint64(0)
	cycle := func() {
		for round := 0; round < 4; round++ {
			for _, k := range keys {
				ts++
				a.FeedDatagram(k, payload, ts)
			}
		}
		if n := a.EvictDgramIdle(ts + 1); n != len(keys) {
			t.Fatalf("idle sweep evicted %d flows, want %d", n, len(keys))
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm datagram feed+evict cycle allocates %.1f objects, want 0", allocs)
	}
}
