package emu

import (
	"net/netip"
	"testing"

	"semnids/internal/ir"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
	"semnids/internal/x86"
)

// TestLiftKnowsWhatOldKnewOnTraffic holds the lifter to the old
// evaluator (refAnalyze) on every frame the outbreak generators
// produce at test scale, seeds 1-3: each packet payload, and each
// flow's payloads back to back (what reassembly hands the analyzer),
// lifted from sweep offsets 0-3 in both instruction orders. Every
// register bit the old evaluator knew, the lifter must know, with the
// same value.
func TestLiftKnowsWhatOldKnewOnTraffic(t *testing.T) {
	var (
		cache x86.DecodeCache
		prog  ir.Program
		order []*x86.Inst
	)
	check := func(name string, frame []byte) {
		cache.Reset(frame)
		for off := 0; off < 4 && off < len(frame); off++ {
			sweep := cache.Sweep(off)
			prog.Reuse(sweep)
			order = x86.ThreadOrderAppend(order[:0], sweep)
			for _, o := range []struct {
				nodes []ir.Node
				insts []*x86.Inst
			}{{prog.Nodes, order}, {prog.Raw, sweep}} {
				old := refAnalyze(o.insts)
				for k := range o.nodes {
					for f, r := range diffRegs32 {
						val, mask := o.nodes[k].Pre.Bits(r)
						ov := old[k][f]
						if ov.mask&^mask != 0 || (ov.val^val)&ov.mask != 0 {
							t.Fatalf("%s offset %d node %d (%v): %v old knows %#x/%#x, lifter %#x/%#x",
								name, off, k, o.nodes[k].Inst, r, ov.val&ov.mask, ov.mask, val, mask)
						}
					}
				}
			}
		}
	}
	type flowKey struct {
		src, dst netip.Addr
		sp, dp   uint16
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, g := range []struct {
			name string
			pkts []*netpkt.Packet
		}{
			{"worm", traffic.WormOutbreak(traffic.WormSpec{Seed: seed, Generations: 2, FanoutPerHost: 3})},
			{"polymorph", traffic.PolymorphOutbreak(traffic.PolymorphSpec{Seed: seed, Generations: 2, FanoutPerHost: 3})},
			{"iot", traffic.IoTBotnet(traffic.IoTSpec{Seed: seed, Generations: 2, FanoutPerHost: 3})},
		} {
			flows := map[flowKey][]byte{}
			var keys []flowKey
			for _, p := range g.pkts {
				if len(p.Payload) == 0 {
					continue
				}
				check(g.name, p.Payload)
				k := flowKey{p.SrcIP, p.DstIP, p.SrcPort, p.DstPort}
				if _, ok := flows[k]; !ok {
					keys = append(keys, k)
				}
				flows[k] = append(flows[k], p.Payload...)
			}
			for _, k := range keys {
				check(g.name+" flow", flows[k])
			}
		}
	}
}
