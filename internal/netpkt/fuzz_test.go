package netpkt

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func FuzzParse(f *testing.F) {
	p := &Packet{
		SrcIP: mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2"),
		Proto: ProtoTCP, HasTCP: true, SrcPort: 1, DstPort: 2,
		Payload: []byte("x"),
	}
	f.Add(p.Serialize())
	u := &Packet{
		SrcIP: mustAddr("10.0.0.3"), DstIP: mustAddr("10.0.0.4"),
		Proto: ProtoUDP, HasUDP: true, SrcPort: 5683, DstPort: 5683,
		Payload: []byte("block transfer payload bytes"),
	}
	uf := u.Serialize()
	f.Add(uf)
	f.Add(uf[:len(uf)-9]) // snaplen-clipped datagram: truncated-prefix path
	f.Add([]byte{})
	// reused is parsed into again and again, as a capture loop does. It
	// starts out with every field set, and whatever it holds from the
	// frame before, nothing of that may show after the next parse.
	reused := Packet{
		SrcMAC: MAC{1, 2, 3, 4, 5, 6}, DstMAC: MAC{6, 5, 4, 3, 2, 1}, EtherType: EtherTypeIPv4,
		SrcIP: mustAddr("192.0.2.1"), DstIP: mustAddr("192.0.2.2"), Proto: ProtoTCP, TTL: 9, IPID: 9,
		HasTCP: true, HasUDP: true, SrcPort: 9, DstPort: 9, Seq: 9, Ack: 9, Flags: 0xff, Window: 9,
		Payload: []byte("stale"), Truncated: true, TimestampUS: 9,
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pkt, err := Parse(b)
		if rerr := ParseInto(&reused, b); rerr != err {
			t.Fatalf("ParseInto: %v, Parse: %v", rerr, err)
		}
		if err != nil {
			// What a failed parse leaves behind is the fresh struct's
			// partial decode, never the previous packet.
			var fresh Packet
			_ = ParseInto(&fresh, b)
			pkt = &fresh
		}
		if !reflect.DeepEqual(reused, *pkt) {
			t.Fatalf("reused struct differs from a fresh parse:\n reused %+v\n fresh  %+v", reused, *pkt)
		}
		if err != nil {
			return
		}
		// A parsed packet must re-serialize and re-parse to the same
		// addressing (payload may be normalized by length fields).
		again, err := Parse(pkt.Serialize())
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if again.SrcIP != pkt.SrcIP || again.DstIP != pkt.DstIP ||
			again.SrcPort != pkt.SrcPort || again.DstPort != pkt.DstPort {
			t.Fatal("re-parse changed addressing")
		}
		if !bytes.Equal(again.Payload, pkt.Payload) {
			t.Fatal("re-parse changed payload")
		}
	})
}

func FuzzPcapNGReader(f *testing.F) {
	var b ngBuf
	b.shb()
	b.idb(linkTypeEthernet, 9)
	b.epb(0, 1700000000_000000000, testFrame("seed"))
	f.Add(b.Bytes())
	f.Add([]byte{0x0a, 0x0d, 0x0d, 0x0a})
	f.Add([]byte{0x0a, 0x0d, 0x0d, 0x0a, 28, 0, 0, 0, 0x4d, 0x3c, 0x2b, 0x1a})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 64; i++ {
			frame, _, err := r.NextFrame()
			if err != nil {
				return
			}
			if len(frame) > maxSnapLen {
				t.Fatalf("frame of %d bytes exceeds snap length", len(frame))
			}
		}
	})
}

func FuzzPcapReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	p := &Packet{
		SrcIP: mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2"),
		Proto: ProtoUDP, HasUDP: true, Payload: []byte("abc"),
	}
	_ = w.WritePacket(p)
	f.Add(buf.Bytes())
	f.Add([]byte{0xd4, 0xc3, 0xb2, 0xa1})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := NewPcapReader(bytes.NewReader(b))
		if err != nil {
			return
		}
		for i := 0; i < 64; i++ {
			if _, _, err := r.NextFrame(); err != nil {
				return
			}
		}
	})
}
