package traffic

import (
	"fmt"
	"net/netip"

	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/polymorph"
	"semnids/internal/shellcode"
)

// PolymorphSpec describes a polymorphic outbreak: the same infection
// tree shape as WormSpec, but every delivery re-encodes the worm's
// cleartext through a polymorphic engine with a fresh per-hop seed, so
// no two wire payloads share bytes. Exact fingerprints therefore never
// repeat across hops — the adversarial workload that defeats exact-FP
// propagation evidence and that structural lineage fingerprints exist
// to survive (the decoded tail is invariant: every variant must
// reproduce the same cleartext to run).
type PolymorphSpec struct {
	Seed int64

	// Cleartext is the worm body every hop delivers (default: the
	// classic push /bin/sh shellcode). Each hop packs a freshly
	// encoded variant into the traditional overflow layout.
	Cleartext []byte

	// Generations, FanoutPerHost, ScansPerHost and BenignSessions
	// mirror WormSpec (same defaults).
	Generations    int
	FanoutPerHost  int
	ScansPerHost   int
	BenignSessions int
}

// PolymorphOutbreak renders the outbreak as an ordered packet slice.
// Hops alternate between the CLET- and ADMmutate-style engines so the
// trace mixes decoder families the way a real mutated outbreak would;
// each hop's engine is seeded from spec.Seed and the hop index, so the
// trace is reproducible. Encoding failures panic: they indicate a
// cleartext the engines cannot carry, a generator bug, not a runtime
// condition.
func PolymorphOutbreak(spec PolymorphSpec) []*netpkt.Packet {
	if spec.Cleartext == nil {
		spec.Cleartext = shellcode.ClassicPush().Bytes
	}
	t := newTree(spec.Generations, spec.FanoutPerHost, spec.ScansPerHost, spec.BenignSessions)
	g := NewGen(spec.Seed)
	hop := 0
	mutate := func() []byte {
		hop++
		seed := spec.Seed*1000003 + int64(hop)
		var (
			enc []byte
			err error
		)
		if hop%2 == 0 {
			enc, _, err = polymorph.NewADMmutate(seed).Encode(spec.Cleartext)
		} else {
			enc, _, err = polymorph.NewClet(seed).Encode(spec.Cleartext)
		}
		if err != nil {
			panic(fmt.Sprintf("traffic: polymorph encode hop %d: %v", hop, err))
		}
		return exploits.PackOverflow(enc, exploits.OverflowOpts{})
	}
	return t.walk(g, 16, g.BenignSession, func(host, target netip.Addr) []*netpkt.Packet {
		return g.ScanThenExploit(host, target, 80, mutate(), t.scans)
	})
}
