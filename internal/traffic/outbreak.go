package traffic

import (
	"net/netip"

	"semnids/internal/netpkt"
)

// tree is the infection-tree shape every outbreak spec (WormSpec,
// PolymorphSpec, IoTSpec) declares, with the shared defaults applied:
// 2 generations, 2 victims per infected host, 4 scans before each
// delivery and 2 background exchanges before each infection (none if
// the spec asks for fewer than zero).
type tree struct {
	generations, fanout, scans, benign int
}

func newTree(generations, fanout, scans, benign int) tree {
	t := tree{generations, fanout, scans, benign}
	if t.generations <= 0 {
		t.generations = 2
	}
	if t.fanout <= 0 {
		t.fanout = 2
	}
	if t.scans <= 0 {
		t.scans = 4
	}
	if t.benign < 0 {
		t.benign = 0
	} else if t.benign == 0 {
		t.benign = 2
	}
	return t
}

// walk renders the outbreak: patient zero is a random client, and in
// each generation every infected host attacks fanout fresh victims
// from 172.victimNet.0.0/16 (disjoint from benign clients and servers,
// so attribution in tests is unambiguous), each attack preceded by
// benign background exchanges. chatter renders one exchange and
// deliver one attack on target; the walk advances the clock after
// each.
func (t tree) walk(g *Gen, victimNet byte, chatter func() []*netpkt.Packet,
	deliver func(host, target netip.Addr) []*netpkt.Packet) []*netpkt.Packet {
	var out []*netpkt.Packet
	victims := 0
	infected := []netip.Addr{g.RandClient()} // patient zero
	for gen := 0; gen < t.generations; gen++ {
		var nextGen []netip.Addr
		for _, host := range infected {
			for v := 0; v < t.fanout; v++ {
				for b := 0; b < t.benign; b++ {
					out = append(out, chatter()...)
					g.Advance(2000)
				}
				victims++
				target := netip.AddrFrom4([4]byte{172, victimNet, byte(victims >> 8), byte(victims)})
				out = append(out, deliver(host, target)...)
				g.Advance(3000)
				nextGen = append(nextGen, target)
			}
		}
		infected = nextGen
	}
	return out
}
