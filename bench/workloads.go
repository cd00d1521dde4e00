package main

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	nids "semnids"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// shards is fixed, not derived from the CPU count: the sandbox has two
// cores and a snapshot must mean the same thing on every box.
const shards = 2

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string

	// generate renders the trace for a seed at a size scale (1 = the
	// benchmark's size; tests use a small fraction).
	generate func(seed int64, scale float64) []*netpkt.Packet

	// engine is the configuration of every engine job on this trace
	// (Shards is filled in per job).
	engine nids.EngineConfig

	// victims is where this generator's malicious deliveries land; a
	// payload-bearing flow from a scanning source into it is a
	// ground-truth delivery.
	victims netip.Prefix

	// templates are the template names a delivery may be alerted with.
	templates []string

	// latencySpeed, when non-zero, is the capture-timestamp speed-up of
	// the open-loop latency phase: chosen once so the pass lasts about
	// five seconds and offers less than a third of the closed-loop
	// capacity. Zero means the workload has no latency phase.
	latencySpeed float64

	// fed marks the federation workload: its jobs push evidence
	// checkpoints to an aggregator instead of running an engine.
	fed bool
}

var classified = nids.Config{
	Honeypots: []string{traffic.HoneypotAddr.String()},
	DarkSpace: []string{traffic.DarkNet.String()},
}

var (
	outbreakVictims = netip.MustParsePrefix("172.16.0.0/16")
	iotVictims      = netip.MustParsePrefix("172.17.0.0/16")
)

var decoderTemplates = []string{"xor-decrypt-loop", "admmutate-alt-decode-loop"}

func polymorphTrace(seed int64, scale float64) []*netpkt.Packet {
	gens, fan := outbreakShape(scale)
	return traffic.PolymorphOutbreak(traffic.PolymorphSpec{
		Seed: seed, Generations: gens, FanoutPerHost: fan, BenignSessions: scaled(4, scale),
	})
}

var workloads = []workload{
	{
		name: "tcp-mix-full",
		why:  "classifier off: every benign HTTP/SMTP/FTP/POP3 payload reaches reasm, extract and sem's sweep pruning, the worst-case CPU path",
		generate: func(seed int64, scale float64) []*netpkt.Packet {
			return traffic.Synthesize(traffic.TraceSpec{
				Seed: seed, BenignSessions: scaled(40000, scale), CodeRedInstances: scaled(40, scale),
			})
		},
		engine:    nids.EngineConfig{Config: nids.Config{DisableClassification: true}},
		victims:   netip.PrefixFrom(traffic.WebServer, 32),
		templates: []string{"code-red-ii"},
	},
	{
		name: "worm-classified",
		why:  "the paper's operating point: the classifier discards almost everything and identical worm payloads hit the verdict cache, so per-packet layers carry the time and sem does almost none",
		generate: func(seed int64, scale float64) []*netpkt.Packet {
			gens, fan := outbreakShape(scale)
			return traffic.WormOutbreak(traffic.WormSpec{
				Seed: seed, Generations: gens, FanoutPerHost: fan, BenignSessions: scaled(40, scale),
			})
		},
		engine:       nids.EngineConfig{Config: classified, Correlate: true},
		victims:      outbreakVictims,
		templates:    []string{"code-red-ii"},
		latencySpeed: 24,
	},
	{
		name:         "polymorph-lineage",
		why:          "every hop is re-encoded, so the verdict cache always misses and x86 decode, ir lift, sem match and sketch, and lineage carry the time; shard scaling is observable here",
		generate:     polymorphTrace,
		engine:       nids.EngineConfig{Config: classified, Correlate: true, Lineage: true},
		victims:      outbreakVictims,
		templates:    decoderTemplates,
		latencySpeed: 4,
	},
	{
		name: "iot-udp-full",
		why:  "smallest packets, so per-packet cost sets the rate; the datagram path uses reasm and extract differently (FeedDatagram, CoAP block reassembly), so a TCP-path gain that costs it shows",
		generate: func(seed int64, scale float64) []*netpkt.Packet {
			gens, fan := outbreakShape(scale)
			return traffic.IoTBotnet(traffic.IoTSpec{
				Seed: seed, Generations: gens, FanoutPerHost: fan, BenignSessions: scaled(20, scale),
			})
		},
		engine: nids.EngineConfig{
			Config:        nids.Config{DisableClassification: true},
			DatagramFlows: true, DatagramIdle: 2 * time.Second, Correlate: true,
		},
		victims:   iotVictims,
		templates: []string{"xor-decrypt-loop"},
	},
	{
		name:      "fed-fanin",
		why:       "8 sensors push 8 growing evidence checkpoints each to one aggregator: the only workload where fed decode and merge, compress, transport fold and fsynced checkpoint carry the time",
		generate:  polymorphTrace,
		engine:    nids.EngineConfig{Config: classified, Correlate: true, Lineage: true},
		victims:   outbreakVictims,
		templates: decoderTemplates,
		fed:       true,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a generator count, never below one.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// outbreakShape is the infection tree of the outbreak generators: four
// generations of fan-out six (259 attackers, 1554 deliveries), or a
// twelve-delivery tree for the self-test scale.
func outbreakShape(scale float64) (generations, fanout int) {
	if scale < 0.25 {
		return 2, 3
	}
	return 4, 6
}
