package nids

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// capFrame is one record of a test capture: a raw frame and its
// timestamp.
type capFrame struct {
	data []byte
	ts   uint64
	bad  bool // the parser rejects it
}

// framesOf serializes a generated trace.
func framesOf(pkts []*netpkt.Packet) []capFrame {
	out := make([]capFrame, len(pkts))
	for i, p := range pkts {
		out[i] = capFrame{data: p.Serialize(), ts: p.TimestampUS}
	}
	return out
}

// pcapOf renders frames as a classic pcap; ends[i] is the file offset
// just past record i.
func pcapOf(t testing.TB, frames []capFrame) (file []byte, ends []int) {
	var buf bytes.Buffer
	w, err := netpkt.NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f.data, f.ts); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// pcapngOf renders frames as a pcapng section: header, one Ethernet
// interface at the default microsecond resolution, one enhanced packet
// block per frame.
func pcapngOf(frames []capFrame) (file []byte, ends []int) {
	le := binary.LittleEndian
	block := func(typ uint32, body []byte) {
		total := uint32(12 + len(body))
		file = le.AppendUint32(le.AppendUint32(file, typ), total)
		file = le.AppendUint32(append(file, body...), total)
	}
	shb := le.AppendUint32(nil, 0x1a2b3c4d)
	shb = le.AppendUint64(append(shb, 1, 0, 0, 0), ^uint64(0)) // version 1.0, length unknown
	block(0x0a0d0d0a, shb)
	block(1, []byte{1, 0, 0, 0, 0, 0, 4, 0}) // linktype Ethernet, snaplen 256 KiB
	for _, f := range frames {
		body := le.AppendUint32(nil, 0)
		body = le.AppendUint32(body, uint32(f.ts>>32))
		body = le.AppendUint32(body, uint32(f.ts))
		body = le.AppendUint32(body, uint32(len(f.data)))
		body = le.AppendUint32(body, uint32(len(f.data)))
		body = append(body, f.data...)
		body = append(body, make([]byte, -len(f.data)&3)...)
		block(6, body)
		ends = append(ends, len(file))
	}
	return file, ends
}

// stopAfter hands out r's first n bytes, then calls stop before it
// reads on. A capture reader asks for more only when a record runs
// past what it has buffered, so with n at a record boundary stop runs
// after exactly the records before it went through the engine.
type stopAfter struct {
	r    io.Reader
	n    int
	stop func()
}

func (s *stopAfter) Read(p []byte) (int, error) {
	if s.n > 0 {
		if len(p) > s.n {
			p = p[:s.n]
		}
		n, err := s.r.Read(p)
		s.n -= n
		return n, err
	}
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
	return s.r.Read(p)
}

func sortedAlerts(e *Engine) []string {
	var out []string
	for _, a := range e.Alerts() {
		out = append(out, fmt.Sprintf("%d %s:%d>%s:%d %s %s %s", a.TimestampUS, a.Src, a.SrcPort, a.Dst, a.DstPort,
			a.Reason, a.FrameSource, a.Detection.Template))
	}
	sort.Strings(out)
	return out
}

// TestRunMatchesReadAllProcess holds the one ingest path — frames
// borrowed from the capture's read buffer, classified in place, copied
// only when selected — to the path it replaced: the same capture read
// into packets that own their payloads (netpkt.ReadAll) and offered one
// by one. Alerts and every counter must agree, on classic pcap and on
// pcapng, with records that straddle the 256 KiB read buffer (any
// capture this size has them), a padded frame as large as the buffer
// itself (in pcapng its block is larger, and is copied out), frames the
// parser rejects spliced in, a capture cut inside its last record, and
// a Stop that lands while a shard batch is half full. The counters also
// have to add up: frames read = Unparsed + Packets.
func TestRunMatchesReadAllProcess(t *testing.T) {
	frames := framesOf(traffic.WormOutbreak(traffic.WormSpec{Seed: 5, Generations: 3, FanoutPerHost: 3, BenignSessions: 30}))
	// A datagram to the honeypot padded out to the snap length: the
	// parser takes the IP length's word for where the packet ends.
	jumbo := (&netpkt.Packet{
		SrcIP: netip.MustParseAddr("10.77.0.1"), DstIP: traffic.HoneypotAddr,
		SrcPort: 4000, DstPort: 4444, Proto: netpkt.ProtoUDP, HasUDP: true,
		Payload: bytes.Repeat([]byte("jumbo "), 200),
	}).Serialize()
	jumbo = append(jumbo, make([]byte, 256<<10-len(jumbo))...)
	garbage := [][]byte{
		{},                                      // empty record
		{1, 2, 3},                               // shorter than an Ethernet header
		bytes.Repeat([]byte{0}, 60),             // not IPv4
		frames[3].data[:30],                     // clipped inside the IP header
		append([]byte(nil), jumbo[:14+20+4]...), // UDP header cut short
	}
	var mixed []capFrame
	for i, f := range frames {
		if i%97 == 0 {
			mixed = append(mixed, capFrame{garbage[(i/97)%len(garbage)], f.ts, true})
		}
		if i == len(frames)/2 {
			mixed = append(mixed, capFrame{data: jumbo, ts: f.ts})
		}
		mixed = append(mixed, f)
	}
	if len(mixed) < 2000 {
		t.Fatalf("capture of %d records is too small for a mid-batch stop", len(mixed))
	}

	classified := Config{Honeypots: []string{traffic.HoneypotAddr.String()}, DarkSpace: []string{traffic.DarkNet.String()}}
	all := Config{DisableClassification: true}
	formats := []struct {
		name   string
		render func([]capFrame) ([]byte, []int)
	}{
		{"pcap", func(f []capFrame) ([]byte, []int) { return pcapOf(t, f) }},
		{"pcapng", pcapngOf},
	}
	for _, format := range formats {
		file, ends := format.render(mixed)
		if len(file) < 4*256<<10 {
			t.Fatalf("%s capture of %d bytes refills the read buffer too rarely", format.name, len(file))
		}
		cases := []struct {
			name string
			cfg  Config
			file []byte
			// stopAt, when positive, is the number of records fed
			// before Stop; wantErr is the read error Run must report.
			stopAt  int
			wantErr error
		}{
			{"classified", classified, file, 0, nil},
			{"all", all, file, 0, nil},
			{"cut inside the last record", classified, file[:len(file)-7], 0, netpkt.ErrBadPcap},
			{"stop mid-batch", all, file, 1000 + 37, nil},
		}
		for _, tc := range cases {
			t.Run(format.name+"/"+tc.name, func(t *testing.T) {
				if format.name == "pcapng" && tc.wantErr != nil {
					tc.wantErr = netpkt.ErrBadPcapNG
				}
				newEngine := func() *Engine {
					e, err := NewEngine(EngineConfig{Config: tc.cfg, Shards: 1})
					if err != nil {
						t.Fatal(err)
					}
					return e
				}

				got := newEngine()
				var src io.Reader = bytes.NewReader(tc.file)
				records := len(mixed)
				if tc.stopAt > 0 {
					records = tc.stopAt
					src = &stopAfter{r: src, n: ends[tc.stopAt-1], stop: got.Stop}
				} else if tc.wantErr != nil {
					records-- // the cut one is never delivered
				}
				if err := got.Run(src); !errors.Is(err, tc.wantErr) {
					t.Fatalf("Run: %v, want %v", err, tc.wantErr)
				}
				got.Stop()

				want := newEngine()
				pkts, err := netpkt.ReadAll(bytes.NewReader(tc.file))
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("ReadAll: %v, want %v", err, tc.wantErr)
				}
				// ReadAll drops what it cannot parse, so the reference
				// stops that many packets earlier.
				stopIdx := 0
				for _, f := range mixed[:tc.stopAt] {
					if !f.bad {
						stopIdx++
					}
				}
				for i, p := range pkts {
					if tc.stopAt > 0 && i == stopIdx {
						want.Stop()
					}
					want.Process(p)
				}
				want.Stop()

				gm, wm := got.Stats(), want.Stats()
				if gm.Unparsed+gm.Packets != uint64(records) {
					t.Errorf("%d records read, but Unparsed %d + Packets %d", records, gm.Unparsed, gm.Packets)
				}
				if gm.Unparsed == 0 || gm.Packets == 0 || gm.Selected == 0 || gm.Alerts == 0 {
					t.Errorf("capture did not exercise the path: %+v", gm)
				}
				if tc.cfg.DisableClassification != (gm.Selected == gm.Packets) {
					t.Errorf("Selected %d of %d packets with classification disabled=%v", gm.Selected, gm.Packets, tc.cfg.DisableClassification)
				}
				// The reference path never sees the frames ReadAll
				// skipped, and its PacketsPerSec gauge is a float.
				wm.Unparsed = gm.Unparsed
				if !reflect.DeepEqual(gm, wm) {
					t.Errorf("metrics differ:\n Run     %+v\n ReadAll %+v", gm, wm)
				}
				if g, w := sortedAlerts(got), sortedAlerts(want); !reflect.DeepEqual(g, w) {
					t.Errorf("alerts differ: Run raised %d, ReadAll+Process %d", len(g), len(w))
				}
			})
		}
	}
}

// TestRunDiscardAllocs pins the cost of a packet nobody will look at.
// At the paper's operating point the classifier discards almost every
// packet, and a discarded packet is parsed in place in the capture's
// read buffer and dropped: no pooled struct, no payload copy, no
// allocation. Everything a pass does allocate — the capture reader, and
// reassembly, extraction and alerts for the few percent selected — is
// charged to the discarded packets here, and must stay under a tenth of
// an object each.
func TestRunDiscardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	file, _ := pcapOf(t, framesOf(traffic.WormOutbreak(traffic.WormSpec{
		Seed: 3, Generations: 3, FanoutPerHost: 3, BenignSessions: 40,
	})))
	e, err := NewEngine(EngineConfig{
		Config: Config{Honeypots: []string{traffic.HoneypotAddr.String()}, DarkSpace: []string{traffic.DarkNet.String()}},
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	run := func() {
		if err := e.Run(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	}
	run()            // warm: shard maps, reassembly pools, verdict cache
	const passes = 5 // AllocsPerRun makes one more, unmeasured
	before := e.Stats()
	allocs := testing.AllocsPerRun(passes, run)
	after := e.Stats()
	packets := (after.Packets - before.Packets) / (passes + 1)
	discarded := packets - (after.Selected-before.Selected)/(passes+1)
	if discarded < packets*9/10 {
		t.Fatalf("only %d of %d packets discarded: not the classified operating point", discarded, packets)
	}
	if per := allocs / float64(discarded); per >= 0.1 {
		t.Errorf("a pass allocates %.0f objects over %d discarded packets: %.3f each, budget 0.1", allocs, discarded, per)
	} else {
		t.Logf("%.0f objects a pass, %d of %d packets discarded: %.4f each", allocs, discarded, packets, per)
	}
}
