package netpkt

import (
	"bytes"
	"testing"
)

func udpFrame(payload []byte) []byte {
	p := &Packet{
		SrcIP: mustAddr("10.0.0.2"), DstIP: mustAddr("10.0.0.3"),
		Proto: ProtoUDP, HasUDP: true, SrcPort: 5683, DstPort: 5683,
		Payload: payload,
	}
	return p.Serialize()
}

// A snaplen-clipped UDP datagram must deliver its captured prefix
// flagged Truncated, not reject the whole packet (the old behavior
// dropped every clipped datagram on the floor).
func TestUDPSnaplenClipDeliversPrefix(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab, 0xcd}, 32)
	frame := udpFrame(payload)

	full, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Error("full capture flagged truncated")
	}
	if !bytes.Equal(full.Payload, payload) {
		t.Errorf("full payload: %d bytes", len(full.Payload))
	}

	const cut = 24
	clipped, err := Parse(frame[:len(frame)-cut])
	if err != nil {
		t.Fatalf("clipped UDP frame rejected: %v", err)
	}
	if !clipped.Truncated {
		t.Error("clipped capture not flagged truncated")
	}
	if !clipped.HasUDP || clipped.SrcPort != 5683 || clipped.DstPort != 5683 {
		t.Errorf("clipped addressing: %+v", clipped)
	}
	if !bytes.Equal(clipped.Payload, payload[:len(payload)-cut]) {
		t.Errorf("clipped payload: got %d bytes, want %d", len(clipped.Payload), len(payload)-cut)
	}

	// The captured prefix must re-serialize into a consistent packet:
	// length fields describe the bytes actually present.
	again, err := Parse(clipped.Serialize())
	if err != nil {
		t.Fatalf("re-parse of truncated packet: %v", err)
	}
	if again.Truncated {
		t.Error("re-serialized packet still truncated")
	}
	if !bytes.Equal(again.Payload, clipped.Payload) {
		t.Error("re-serialize changed payload")
	}
}

// A UDP length field promising more than the capture holds (inflated
// by the sender, or clipped below the IP layer) clamps to the captured
// bytes and flags the packet.
func TestUDPLengthFieldBeyondCapture(t *testing.T) {
	payload := []byte("coap block transfer bytes")
	frame := udpFrame(payload)
	// Inflate the UDP length field (ether 14 + IP 20 + ports 4).
	frame[14+20+4] = 0xff
	frame[14+20+5] = 0xff
	got, err := Parse(frame)
	if err != nil {
		t.Fatalf("inflated UDP length rejected: %v", err)
	}
	if !got.Truncated {
		t.Error("inflated length not flagged truncated")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Errorf("payload: %q", got.Payload)
	}
}

// Truncation leniency is UDP-only: a snaplen-clipped TCP segment would
// corrupt stream reassembly, so the hard reject stays.
func TestTCPSnaplenClipStillRejected(t *testing.T) {
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1234, 80, bytes.Repeat([]byte{0x90}, 64))
	frame := p.Serialize()
	if _, err := Parse(frame[:len(frame)-16]); err == nil {
		t.Error("clipped TCP frame parsed without error")
	}
}

// Truncated must never leak across pooled-packet reuse: a clipped
// parse followed by a clean one on the same storage reports clean.
func TestTruncatedResetsOnReuse(t *testing.T) {
	pl := NewPacketPool()
	frame := udpFrame(bytes.Repeat([]byte{0x11}, 40))
	clipped := pl.Get()
	if err := ParseInto(clipped, frame[:len(frame)-10]); err != nil {
		t.Fatal(err)
	}
	if !clipped.Truncated {
		t.Fatal("clipped parse not flagged")
	}
	clipped.Release()
	clean := pl.Get()
	defer clean.Release()
	if err := ParseInto(clean, frame); err != nil {
		t.Fatal(err)
	}
	if clean.Truncated {
		t.Error("Truncated leaked across pooled reuse")
	}
}

func TestFlowKeyCanonical(t *testing.T) {
	k := FlowKey{
		SrcIP: mustAddr("10.0.0.9"), DstIP: mustAddr("10.0.0.1"),
		SrcPort: 40000, DstPort: 5683, Proto: ProtoUDP,
	}
	if k.Canonical() != k.Reverse().Canonical() {
		t.Error("canonical differs across directions")
	}
	if k.Canonical() != k.Reverse() {
		t.Error("canonical did not order by address")
	}
	// Equal addresses order by port.
	same := FlowKey{
		SrcIP: mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.1"),
		SrcPort: 9, DstPort: 5, Proto: ProtoUDP,
	}
	if got := same.Canonical(); got.SrcPort != 5 || got.DstPort != 9 {
		t.Errorf("equal-address canonical: %+v", got)
	}
	if same.Canonical() != same.Reverse().Canonical() {
		t.Error("equal-address canonical differs across directions")
	}
}
