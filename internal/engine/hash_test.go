package engine

import (
	"math/rand"
	"net/netip"
	"testing"

	"semnids/internal/netpkt"
)

// hashKeys generates the flow populations shard balance is held over:
// the shapes real captures are made of (one server and counting client
// addresses or ports, a scanner walking a subnet, IPv6 hosts that
// differ in their last bytes only) and uniformly random keys.
func hashKeys() map[string][]netpkt.FlowKey {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	server4 := netip.MustParseAddr("10.9.255.1")
	server6 := netip.MustParseAddr("2001:db8::1")
	sets := make(map[string][]netpkt.FlowKey)
	for i := 0; i < n; i++ {
		hi, lo := byte(i>>8), byte(i)
		sets["v4 clients count up"] = append(sets["v4 clients count up"], netpkt.FlowKey{
			SrcIP: netip.AddrFrom4([4]byte{10, 1, hi, lo}), DstIP: server4, SrcPort: 40000, DstPort: 80, Proto: netpkt.ProtoTCP})
		sets["v4 ports count up"] = append(sets["v4 ports count up"], netpkt.FlowKey{
			SrcIP: netip.AddrFrom4([4]byte{10, 1, 0, 7}), DstIP: server4, SrcPort: uint16(1024 + i), DstPort: 80, Proto: netpkt.ProtoTCP})
		sets["v4 scan walks a subnet"] = append(sets["v4 scan walks a subnet"], netpkt.FlowKey{
			SrcIP: server4, DstIP: netip.AddrFrom4([4]byte{172, 16, hi, lo}), SrcPort: 31337, DstPort: 5683, Proto: netpkt.ProtoUDP})
		v6 := server6.As16()
		v6[14], v6[15] = hi, lo
		sets["v6 hosts count up"] = append(sets["v6 hosts count up"], netpkt.FlowKey{
			SrcIP: netip.AddrFrom16(v6), DstIP: server6, SrcPort: 40000, DstPort: 443, Proto: netpkt.ProtoTCP})
		var r4 [4]byte
		var r16 [16]byte
		rng.Read(r4[:])
		rng.Read(r16[:])
		sets["random"] = append(sets["random"], netpkt.FlowKey{
			SrcIP: netip.AddrFrom4(r4), DstIP: netip.AddrFrom16(r16),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)), Proto: uint8(rng.Intn(256))})
	}
	return sets
}

// TestFlowHashBalance holds the shard-ownership function to an even
// spread: over every generated population, at 2 to 8 shards, the
// busiest shard owns at most 1.1 times the mean.
func TestFlowHashBalance(t *testing.T) {
	for name, keys := range hashKeys() {
		for n := 2; n <= 8; n++ {
			load := make([]int, n)
			for _, k := range keys {
				b := FlowHash(k, n)
				if b < 0 || b >= n {
					t.Fatalf("%s: FlowHash(%v, %d) = %d", name, k, n, b)
				}
				load[b]++
			}
			busiest := 0
			for _, l := range load {
				busiest = max(busiest, l)
			}
			if skew := float64(busiest) * float64(n) / float64(len(keys)); skew > 1.1 {
				t.Errorf("%s at %d shards: busiest/mean = %.3f (%v)", name, n, skew, load)
			}
		}
	}
}

// TestFlowHashKeepsConversations: a datagram flow's request and reply
// dispatch on the conversation-canonical key, so both directions land
// on one shard at every shard count; the two directions of a TCP
// connection need not, and mostly do not.
func TestFlowHashKeepsConversations(t *testing.T) {
	split := 0
	keys := hashKeys()["v4 scan walks a subnet"]
	for _, k := range keys {
		for n := 2; n <= 8; n++ {
			if a, b := shardIndex(k.Canonical(), n), shardIndex(k.Reverse().Canonical(), n); a != b {
				t.Fatalf("%v: request on shard %d of %d, reply on shard %d", k, a, n, b)
			}
		}
		if FlowHash(k, 4) != FlowHash(k.Reverse(), 4) {
			split++
		}
	}
	if split < len(keys)/2 {
		t.Errorf("only %d of %d keys hash apart from their reverse: the hash ignores direction", split, len(keys))
	}
}
