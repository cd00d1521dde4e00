package engine

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// goldenTrace is one trace whose alert set is pinned in
// testdata/batch_alerts.txt. That file was written by the batch
// pipeline (core.New with the same Classify and FullScan settings, one
// feeder, Flush) at commit a88870e, the last one that had it: the
// reference is data taken from code that no longer exists, so it cannot
// drift with the engine it checks.
type goldenTrace struct {
	name string
	cfg  Config
	pkts func() []*netpkt.Packet
}

func goldenTraces() []goldenTrace {
	classified := Config{Classify: testClassify()}
	all := Config{Classify: classify.Config{Disabled: true}}
	seed4 := func() []*netpkt.Packet {
		return traffic.Synthesize(traffic.TraceSpec{
			Seed: 4, BenignSessions: 200, CodeRedInstances: 3,
			ExploitPayloads: [][]byte{exploits.IISASPOverflow().Payload},
		})
	}
	traces := []goldenTrace{
		{"seed11", classified, func() []*netpkt.Packet {
			return traffic.Synthesize(traffic.TraceSpec{Seed: 11, BenignSessions: 60, CodeRedInstances: 3})
		}},
		{"worm-seed7", classified, func() []*netpkt.Packet {
			return traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 3, FanoutPerHost: 3})
		}},
		{"polymorph-seed14", classified, func() []*netpkt.Packet {
			return traffic.PolymorphOutbreak(traffic.PolymorphSpec{Seed: 14, Generations: 3, FanoutPerHost: 3})
		}},
		{"table1-honeypot", classified, func() []*netpkt.Packet {
			g := traffic.NewGen(1)
			var pkts []*netpkt.Packet
			for i, exp := range exploits.Table1Exploits() {
				src := netip.AddrFrom4([4]byte{10, 66, 0, byte(1 + i)})
				pkts = append(pkts, g.ExploitAtHoneypot(src, exp.DstPort, exp.Payload)...)
			}
			return pkts
		}},
		{"udp-exploits", classified, func() []*netpkt.Packet {
			var pkts []*netpkt.Packet
			for i, exp := range exploits.Table1Exploits() {
				src := netip.AddrFrom4([4]byte{10, 67, 0, byte(1 + i)})
				pkts = append(pkts, udpTo(src, uint16(4000+i), exp.Payload, uint64(1000*i)))
			}
			return pkts
		}},
		{"seed4-all", all, seed4},
		{"seed4-fullscan", Config{FullScan: true}, seed4},
	}
	// The paper's Table 3: twelve traces, planted instance counts.
	for i, instances := range []int{3, 1, 4, 2, 5, 2, 1, 3, 6, 2, 4, 3} {
		spec := traffic.TraceSpec{Seed: int64(100 + i), BenignSessions: 200, CodeRedInstances: instances}
		traces = append(traces, goldenTrace{
			fmt.Sprintf("table3-seed%d", spec.Seed),
			classified,
			func() []*netpkt.Packet { return traffic.Synthesize(spec) },
		})
	}
	return traces
}

// goldenIoTTraces are the IoT botnet outbreaks with DatagramFlows off.
// Their pinned sets are empty on purpose: every datagram is analyzed
// alone, and the block-split body is not detectable that way
// (iot_test.go).
func goldenIoTTraces() []goldenTrace {
	classified := Config{Classify: testClassify()}
	return []goldenTrace{
		{"iot-seed5", classified, func() []*netpkt.Packet {
			return traffic.IoTBotnet(traffic.IoTSpec{Seed: 5})
		}},
		{"iot-seed7", classified, func() []*netpkt.Packet {
			return traffic.IoTBotnet(traffic.IoTSpec{Seed: 7, Generations: 3, FanoutPerHost: 2})
		}},
	}
}

// loadGolden reads testdata/batch_alerts.txt: "== name" opens a
// trace's section, every other non-empty line is one alertSet key.
func loadGolden(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open("testdata/batch_alerts.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]string)
	var name string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== "):
			name = strings.TrimPrefix(line, "== ")
			out[name] = []string{}
		case line != "":
			out[name] = append(out[name], line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkGolden runs each trace at every shard count and compares the
// alert set with the pinned one.
func checkGolden(t *testing.T, golden map[string][]string, traces []goldenTrace) {
	t.Helper()
	for _, tr := range traces {
		want, ok := golden[tr.name]
		if !ok {
			t.Errorf("%s: no section in testdata/batch_alerts.txt", tr.name)
			continue
		}
		pkts := tr.pkts()
		for _, shards := range []int{1, 2, 3, 4, 8} {
			cfg := tr.cfg
			cfg.Shards = shards
			e := New(cfg)
			feedAll(t, e, pkts)
			if got := alertSet(e.Alerts()); !equalSets(got, want) {
				t.Errorf("%s shards=%d: alert set diverged from the batch pipeline's\n got: %v\nwant: %v",
					tr.name, shards, got, want)
			}
		}
	}
}

// TestShardDeterminism checks the tentpole invariant: at every shard
// count the engine produces the alert set the batch pipeline produced
// for the same trace and settings.
func TestShardDeterminism(t *testing.T) {
	golden := loadGolden(t)
	traces := goldenTraces()
	for _, tr := range traces {
		if len(golden[tr.name]) == 0 {
			t.Errorf("%s: pinned alert set is empty; trace spec is wrong", tr.name)
		}
	}
	checkGolden(t, golden, traces)
}
