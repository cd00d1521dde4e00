// Package netpkt implements the packet model used throughout the NIDS:
// Ethernet, IPv4, TCP and UDP layers with parsing, serialization and
// checksumming, plus a classic libpcap-format trace reader/writer.
//
// It replaces the live capture substrate of the paper's prototype: the
// pipeline consumes a stream of parsed packets and does not care
// whether they come from a NIC, a pcap file, or an in-memory generator.
package netpkt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Errors returned by the layer parsers.
var (
	ErrTruncated   = errors.New("netpkt: truncated packet")
	ErrBadVersion  = errors.New("netpkt: not an IPv4 packet")
	ErrBadLength   = errors.New("netpkt: bad length field")
	ErrBadChecksum = errors.New("netpkt: bad checksum")
)

// EtherType values understood by the decoder.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Packet is a fully parsed frame. Layers that are absent are left at
// their zero values; HasTCP/HasUDP discriminate the transport.
type Packet struct {
	// Link layer.
	SrcMAC, DstMAC MAC
	EtherType      uint16

	// Network layer (IPv4).
	SrcIP, DstIP netip.Addr
	Proto        uint8
	TTL          uint8
	IPID         uint16

	// Transport layer.
	HasTCP  bool
	HasUDP  bool
	SrcPort uint16
	DstPort uint16

	// TCP-specific.
	Seq, Ack uint32
	Flags    uint8
	Window   uint16

	// Application payload.
	Payload []byte

	// Truncated reports that the capture clipped the packet short of
	// what its length fields promise (snaplen cuts): Payload holds the
	// captured prefix only. Set for UDP, where a prefix is still
	// analyzable; clipped TCP segments are rejected at parse instead
	// because a short segment would corrupt stream reassembly.
	Truncated bool

	// Timestamp in microseconds since the trace epoch.
	TimestampUS uint64

	// Pooling state (see PacketPool): the owning pool, the pooled
	// backing buffer Payload aliases, and the reference count. All
	// zero for packets built by hand, which makes Retain/Release
	// no-ops for them.
	pool *PacketPool
	buf  *[]byte
	refs int32
}

// FlowKey identifies one direction of a transport flow.
type FlowKey struct {
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Flow returns the packet's directional flow key.
func (p *Packet) Flow() FlowKey {
	return FlowKey{SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Reverse returns the opposite direction's key.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Canonical returns the direction-independent form of the key: the
// endpoint that sorts lower (by address, then port) becomes the
// source, so both directions of one conversation map to the same
// value. Shard dispatch for datagram flows keys on this — a request
// and its reply must land on the same shard.
func (k FlowKey) Canonical() FlowKey {
	if c := k.SrcIP.Compare(k.DstIP); c > 0 || (c == 0 && k.SrcPort > k.DstPort) {
		return k.Reverse()
	}
	return k
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
}

// checksum computes the ones-complement internet checksum over b,
// seeded with sum (for pseudo-headers).
func checksum(b []byte, sum uint32) uint16 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the TCP/UDP pseudo-header partial sum.
func pseudoHeaderSum(src, dst netip.Addr, proto uint8, length int) uint32 {
	s4 := src.As4()
	d4 := dst.As4()
	var sum uint32
	sum += uint32(s4[0])<<8 | uint32(s4[1])
	sum += uint32(s4[2])<<8 | uint32(s4[3])
	sum += uint32(d4[0])<<8 | uint32(d4[1])
	sum += uint32(d4[2])<<8 | uint32(d4[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// Serialize renders the packet as an Ethernet frame with correct IPv4
// and transport checksums.
func (p *Packet) Serialize() []byte {
	transLen := 0
	switch {
	case p.HasTCP:
		transLen = 20 + len(p.Payload)
	case p.HasUDP:
		transLen = 8 + len(p.Payload)
	default:
		transLen = len(p.Payload)
	}
	ipLen := 20 + transLen
	buf := make([]byte, 14+ipLen)

	// Ethernet.
	copy(buf[0:6], p.DstMAC[:])
	copy(buf[6:12], p.SrcMAC[:])
	et := p.EtherType
	if et == 0 {
		et = EtherTypeIPv4
	}
	binary.BigEndian.PutUint16(buf[12:14], et)

	// IPv4.
	ip := buf[14:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipLen))
	binary.BigEndian.PutUint16(ip[4:6], p.IPID)
	ttl := p.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip[8] = ttl
	ip[9] = p.Proto
	src4 := p.SrcIP.As4()
	dst4 := p.DstIP.As4()
	copy(ip[12:16], src4[:])
	copy(ip[16:20], dst4[:])
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip[:20], 0))

	trans := ip[20:]
	switch {
	case p.HasTCP:
		binary.BigEndian.PutUint16(trans[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(trans[2:4], p.DstPort)
		binary.BigEndian.PutUint32(trans[4:8], p.Seq)
		binary.BigEndian.PutUint32(trans[8:12], p.Ack)
		trans[12] = 5 << 4 // data offset
		trans[13] = p.Flags
		win := p.Window
		if win == 0 {
			win = 65535
		}
		binary.BigEndian.PutUint16(trans[14:16], win)
		copy(trans[20:], p.Payload)
		sum := pseudoHeaderSum(p.SrcIP, p.DstIP, ProtoTCP, transLen)
		binary.BigEndian.PutUint16(trans[16:18], checksum(trans[:transLen], sum))
	case p.HasUDP:
		binary.BigEndian.PutUint16(trans[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(trans[2:4], p.DstPort)
		binary.BigEndian.PutUint16(trans[4:6], uint16(transLen))
		copy(trans[8:], p.Payload)
		sum := pseudoHeaderSum(p.SrcIP, p.DstIP, ProtoUDP, transLen)
		binary.BigEndian.PutUint16(trans[6:8], checksum(trans[:transLen], sum))
	default:
		copy(trans, p.Payload)
	}
	return buf
}

// Parse decodes an Ethernet frame into a Packet. Unknown EtherTypes
// and non-IPv4 packets return ErrBadVersion; transports other than
// TCP/UDP are returned with the raw IP payload.
func Parse(frame []byte) (*Packet, error) {
	p := &Packet{}
	if err := ParseInto(p, frame); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto is Parse decoding into caller-provided storage: a capture
// loop parses every frame into one reused Packet. Every layer field and
// the timestamp are reset first, so nothing of the packet p held before
// survives, whatever the frame's layers and whether or not it parses;
// pooling state is preserved. Payload aliases frame: it is valid for as
// long as frame is.
func ParseInto(p *Packet, frame []byte) error {
	*p = Packet{pool: p.pool, buf: p.buf, refs: p.refs}
	if len(frame) < 14 {
		return ErrTruncated
	}
	copy(p.DstMAC[:], frame[0:6])
	copy(p.SrcMAC[:], frame[6:12])
	p.EtherType = binary.BigEndian.Uint16(frame[12:14])
	if p.EtherType != EtherTypeIPv4 {
		return ErrBadVersion
	}
	ip := frame[14:]
	if len(ip) < 20 {
		return ErrTruncated
	}
	if ip[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(ip[0]&0xf) * 4
	if ihl < 20 || len(ip) < ihl {
		return ErrBadLength
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen < ihl {
		return ErrBadLength
	}
	if totalLen > len(ip) {
		// The capture clipped the packet (snaplen) short of what the
		// IP header promises. A UDP datagram has no framing below the
		// transport header, so the captured prefix is still worth
		// delivering; for anything else a short packet would corrupt
		// downstream reassembly, so keep the hard reject.
		if ip[9] != ProtoUDP {
			return ErrBadLength
		}
		totalLen = len(ip)
		p.Truncated = true
	}
	p.IPID = binary.BigEndian.Uint16(ip[4:6])
	p.TTL = ip[8]
	p.Proto = ip[9]
	var src4, dst4 [4]byte
	copy(src4[:], ip[12:16])
	copy(dst4[:], ip[16:20])
	p.SrcIP = netip.AddrFrom4(src4)
	p.DstIP = netip.AddrFrom4(dst4)

	trans := ip[ihl:totalLen]
	switch p.Proto {
	case ProtoTCP:
		if len(trans) < 20 {
			return ErrTruncated
		}
		p.HasTCP = true
		p.SrcPort = binary.BigEndian.Uint16(trans[0:2])
		p.DstPort = binary.BigEndian.Uint16(trans[2:4])
		p.Seq = binary.BigEndian.Uint32(trans[4:8])
		p.Ack = binary.BigEndian.Uint32(trans[8:12])
		dataOff := int(trans[12]>>4) * 4
		if dataOff < 20 || dataOff > len(trans) {
			return ErrBadLength
		}
		p.Flags = trans[13]
		p.Window = binary.BigEndian.Uint16(trans[14:16])
		p.Payload = trans[dataOff:]
	case ProtoUDP:
		if len(trans) < 8 {
			return ErrTruncated
		}
		p.HasUDP = true
		p.SrcPort = binary.BigEndian.Uint16(trans[0:2])
		p.DstPort = binary.BigEndian.Uint16(trans[2:4])
		udpLen := int(binary.BigEndian.Uint16(trans[4:6]))
		if udpLen < 8 {
			return ErrBadLength
		}
		if udpLen > len(trans) {
			// Length field promises more bytes than were captured:
			// deliver the prefix, flagged, instead of dropping the
			// whole datagram.
			udpLen = len(trans)
			p.Truncated = true
		}
		p.Payload = trans[8:udpLen]
	default:
		p.Payload = trans
	}
	return nil
}

// VerifyChecksums recomputes the IPv4 header checksum and the
// transport checksum of a serialized frame, reporting whether both are
// valid. Used by tests and trace validation.
func VerifyChecksums(frame []byte) error {
	if len(frame) < 34 {
		return ErrTruncated
	}
	ip := frame[14:]
	ihl := int(ip[0]&0xf) * 4
	if checksum(ip[:ihl], 0) != 0 {
		return fmt.Errorf("%w: ip header", ErrBadChecksum)
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen > len(ip) {
		return ErrBadLength
	}
	proto := ip[9]
	if proto != ProtoTCP && proto != ProtoUDP {
		return nil
	}
	var src4, dst4 [4]byte
	copy(src4[:], ip[12:16])
	copy(dst4[:], ip[16:20])
	trans := ip[ihl:totalLen]
	sum := pseudoHeaderSum(netip.AddrFrom4(src4), netip.AddrFrom4(dst4), proto, len(trans))
	if checksum(trans, sum) != 0 {
		return fmt.Errorf("%w: transport", ErrBadChecksum)
	}
	return nil
}
