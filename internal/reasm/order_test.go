package reasm

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"semnids/internal/netpkt"
)

// refFlow is the reference model's record of one tracked flow.
type refFlow struct {
	key      netpkt.FlowKey
	lastSeen uint64
	dgram    bool
	bytes    int
	nextSeq  uint32
}

// refModel drives an Assembler and a shadow table side by side. The
// shadow answers every hand-over by brute force: select the flows from
// the whole table, then slices.SortFunc(selected, olderFirst).
type refModel struct {
	t      *testing.T
	a      *Assembler
	flows  map[netpkt.FlowKey]*refFlow
	handed []netpkt.FlowKey // keys the evict handler saw, in order
}

func newRefModel(t *testing.T) *refModel {
	m := &refModel{t: t, a: New(), flows: make(map[netpkt.FlowKey]*refFlow)}
	m.a.SetEvictHandler(func(st *Stream) {
		m.handed = append(m.handed, st.Key)
		m.a.Recycle(st.Data)
	})
	return m
}

func refKey(dgram bool, i int) netpkt.FlowKey {
	k := netpkt.FlowKey{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{10, 1, 0, byte(i % 3)}),
		SrcPort: uint16(1000 + i%7), DstPort: 80,
		Proto: netpkt.ProtoTCP,
	}
	if dgram {
		k.Proto, k.DstPort = netpkt.ProtoUDP, 5683
	}
	return k
}

// feed sends n payload bytes on the flow at ts, to both the assembler
// and the shadow; a new flow beyond MaxFlows first evicts the older
// half, which the shadow predicts and checks.
func (m *refModel) feed(key netpkt.FlowKey, dgram bool, ts uint64, n int) {
	f := m.flows[key]
	if f == nil && len(m.flows) >= MaxFlows {
		all := m.order(func(*refFlow) bool { return true })
		m.expect("MaxFlows half-eviction", all[:len(all)/2], func() int {
			m.push(key, dgram, ts, n, f)
			return len(all) / 2
		})
		return
	}
	m.push(key, dgram, ts, n, f)
}

func (m *refModel) push(key netpkt.FlowKey, dgram bool, ts uint64, n int, f *refFlow) {
	if f == nil {
		f = &refFlow{key: key, dgram: dgram, nextSeq: 1}
		m.flows[key] = f
	}
	f.lastSeen = ts
	f.bytes += n
	payload := make([]byte, n)
	if dgram {
		m.a.FeedDatagram(key, payload, ts)
		return
	}
	m.a.Feed(&netpkt.Packet{
		SrcIP: key.SrcIP, DstIP: key.DstIP, SrcPort: key.SrcPort, DstPort: key.DstPort,
		Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagACK,
		Seq: f.nextSeq, Payload: payload, TimestampUS: ts,
	})
	f.nextSeq += uint32(n)
}

// order is the brute-force hand-over order of the flows sel selects.
func (m *refModel) order(sel func(*refFlow) bool) []*stream {
	var out []*stream
	for _, f := range m.flows {
		if sel(f) {
			out = append(out, &stream{key: f.key, lastSeen: f.lastSeen})
		}
	}
	slices.SortFunc(out, olderFirst)
	return out
}

// expect runs op, which must hand over exactly want, in order, and
// report len(want); the handed-over flows leave the shadow.
func (m *refModel) expect(what string, want []*stream, op func() int) {
	m.t.Helper()
	m.handed = m.handed[:0]
	n := op()
	if n != len(want) || len(m.handed) != len(want) {
		m.t.Fatalf("%s: evicted %d (handler saw %d), reference %d", what, n, len(m.handed), len(want))
	}
	for i, st := range want {
		if m.handed[i] != st.key {
			m.t.Fatalf("%s: hand-over %d is %v, reference %v (lastSeen %d)", what, i, m.handed[i], st.key, st.lastSeen)
		}
		delete(m.flows, st.key)
	}
	m.check(what)
}

func (m *refModel) check(what string) {
	m.t.Helper()
	total, dgrams := 0, 0
	for _, f := range m.flows {
		total += f.bytes
		if f.dgram {
			dgrams++
		}
	}
	if m.a.FlowCount() != len(m.flows) || m.a.DgramFlowCount() != dgrams || m.a.TotalBytes() != total {
		m.t.Fatalf("%s: assembler holds %d flows (%d datagram) and %d bytes, reference %d (%d) and %d",
			what, m.a.FlowCount(), m.a.DgramFlowCount(), m.a.TotalBytes(), len(m.flows), dgrams, total)
	}
}

func (m *refModel) evictIdle(cut uint64) {
	m.expect("EvictIdle", m.order(func(f *refFlow) bool { return f.lastSeen < cut }),
		func() int { return m.a.EvictIdle(cut) })
}

func (m *refModel) evictDgramIdle(cut uint64) {
	m.expect("EvictDgramIdle", m.order(func(f *refFlow) bool { return f.dgram && f.lastSeen < cut }),
		func() int { return m.a.EvictDgramIdle(cut) })
}

func (m *refModel) evictLRUUntil(budget int) {
	all := m.order(func(*refFlow) bool { return true })
	total := m.a.TotalBytes()
	var want []*stream
	for _, st := range all {
		if total <= budget {
			break
		}
		want = append(want, st)
		total -= m.flows[st.key].bytes
	}
	m.expect("EvictLRUUntil", want, func() int { return m.a.EvictLRUUntil(budget) })
}

func (m *refModel) drain() {
	m.t.Helper()
	want := m.order(func(*refFlow) bool { return true })
	got := m.a.Drain()
	if len(got) != len(want) {
		m.t.Fatalf("Drain returned %d flows, reference %d", len(got), len(want))
	}
	for i, st := range want {
		if got[i].Key != st.key || got[i].Dgram != m.flows[st.key].dgram || len(got[i].Data) != m.flows[st.key].bytes {
			m.t.Fatalf("Drain %d is %v (dgram %v, %d bytes), reference %v", i, got[i].Key, got[i].Dgram, len(got[i].Data), st.key)
		}
	}
	clear(m.flows)
	m.check("Drain")
}

// TestHandOverOrderMatchesReference holds every way flows leave the
// table — EvictIdle, EvictDgramIdle, EvictLRUUntil, the MaxFlows
// half-eviction and Drain — to the brute-force order over a shadow
// table, on random mixes of TCP and datagram flows with equal
// timestamps, timestamps that step back, and flows touched again.
func TestHandOverOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		m := newRefModel(t)
		pool := 2 + r.Intn(40)
		clock := uint64(1000)
		for op := 0; op < 400; op++ {
			switch x := r.Intn(20); {
			case x < 16:
				// Mostly a clock that stands still or creeps, so ties are
				// common; sometimes a late packet from the past.
				switch y := r.Intn(10); {
				case y < 4:
				case y < 9:
					clock += uint64(r.Intn(3))
				default:
					clock -= uint64(r.Intn(int(min(clock, 8))))
				}
				dgram := x%2 == 0
				m.feed(refKey(dgram, r.Intn(pool)), dgram, clock, 1+r.Intn(8))
			case x == 16:
				m.evictIdle(clock - uint64(r.Intn(10)))
			case x == 17:
				m.evictDgramIdle(clock - uint64(r.Intn(10)))
			case x == 18:
				m.evictLRUUntil(r.Intn(m.a.TotalBytes() + 1))
			default:
				m.check("feed")
			}
		}
		m.drain()
	}
}

// TestHalfEvictionMatchesReference fills the table to MaxFlows with a
// mix of TCP and datagram flows on a few timestamps, so the half that
// leaves is cut inside a run of ties, and holds the half-eviction a
// new flow triggers to the reference order.
func TestHalfEvictionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := newRefModel(t)
	for i := 0; i < MaxFlows; i++ {
		dgram := r.Intn(2) == 0
		m.feed(refKey(dgram, i), dgram, uint64(r.Intn(9)), 1)
	}
	// Touch some again, some at earlier times.
	for i := 0; i < MaxFlows/4; i++ {
		k := refKey(false, r.Intn(MaxFlows))
		if m.flows[k] == nil {
			k.Proto, k.DstPort = netpkt.ProtoUDP, 5683
		}
		m.feed(k, m.flows[k].dgram, uint64(r.Intn(9)), 1)
	}
	m.feed(refKey(true, MaxFlows+1), true, 3, 1)
	m.drain()
}
