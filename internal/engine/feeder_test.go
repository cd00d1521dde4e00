package engine

import (
	"fmt"
	"sync"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// TestParallelFeeders runs one Feeder per goroutine, each fed its own
// flow partition of a capture's frames, at 1, 2 and 4 shards: the
// layout of a multi-queue capture loop. It must raise the alert set a
// single serial feed raises, and account for every frame (frames read
// = unparsed + packets, with a few frames the parser rejects mixed into
// every partition). Run under -race it checks that feeders sharing
// the classifier, the counters and the shard queues stay data-race
// free. Classification is off: whether a selected source's later
// packets are selected depends on cross-feeder order, so only an
// unclassified capture has one right answer.
func TestParallelFeeders(t *testing.T) {
	all := classify.Config{Disabled: true}
	cases := []struct {
		name string
		cfg  Config
		pkts []*netpkt.Packet
	}{
		{"tcp-mix", Config{Classify: all, VerdictCacheSize: -1},
			traffic.Synthesize(traffic.TraceSpec{Seed: 9, BenignSessions: 120, CodeRedInstances: 2})},
		{"iot-flows", Config{Classify: all, VerdictCacheSize: -1, DatagramFlows: true},
			traffic.IoTBotnet(traffic.IoTSpec{Seed: 9, Generations: 2, FanoutPerHost: 3, BenignSessions: 6})},
	}
	junk := []byte{0xde, 0xad, 0xbe, 0xef}
	for _, c := range cases {
		frames := make([][]byte, len(c.pkts))
		for i, p := range c.pkts {
			frames[i] = p.Serialize()
		}

		serial := New(c.cfg)
		for i, f := range frames {
			serial.ProcessFrame(f, c.pkts[i].TimestampUS)
		}
		serial.Stop()
		want := alertSet(serial.Alerts())
		if len(want) == 0 {
			t.Fatalf("%s: the serial feed raised no alerts", c.name)
		}

		for _, feeders := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards-%d", c.name, feeders), func(t *testing.T) {
				cfg := c.cfg
				cfg.Shards = feeders
				e := New(cfg)
				// Both directions of a conversation go to one feeder,
				// so each flow's arrival order is the capture's.
				parts := make([][]int, feeders)
				for i, p := range c.pkts {
					fi := FlowHash(p.Flow().Canonical(), feeders)
					parts[fi] = append(parts[fi], i)
				}
				var wg sync.WaitGroup
				for _, part := range parts {
					wg.Add(1)
					go func() {
						defer wg.Done()
						f := e.NewFeeder()
						for n, i := range part {
							if n%100 == 0 {
								f.ProcessFrame(junk, c.pkts[i].TimestampUS)
							}
							f.ProcessFrame(frames[i], c.pkts[i].TimestampUS)
						}
						f.Flush()
					}()
				}
				wg.Wait()
				e.Stop()

				read := uint64(len(frames))
				for _, part := range parts {
					read += uint64(len(part)+99) / 100
				}
				if m := e.Snapshot(); m.Unparsed+m.Packets != read || m.Unparsed == 0 {
					t.Errorf("frames read %d, unparsed %d + packets %d = %d", read, m.Unparsed, m.Packets, m.Unparsed+m.Packets)
				}
				if got := alertSet(e.Alerts()); !equalSets(got, want) {
					t.Errorf("alert set diverged from the serial feed's\n got: %v\nwant: %v", got, want)
				}
			})
		}
	}
}
