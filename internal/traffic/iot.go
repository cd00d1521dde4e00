package traffic

import (
	"fmt"
	"net/netip"

	"semnids/internal/exploits"
	"semnids/internal/netpkt"
)

// IoT workload: constrained devices speaking CoAP (RFC 7252) over UDP
// to a gateway, and a botnet propagating through them. The benign side
// is sensor chatter — small readings POSTed to the gateway, resource
// discovery GETs — and the malicious side is the worm kill chain
// translated to datagrams: infected devices probe dark space with CoAP
// discovery requests, then deliver a packed exploit body to fresh
// victims as an RFC 7959 Block1 firmware-update transfer, 16 bytes per
// datagram, so no single packet carries an analyzable slice.

// IoTGateway is the CoAP gateway collecting sensor readings (inside
// the protected server network).
var IoTGateway = netip.MustParseAddr("192.168.1.150")

// CoAPPort is the default CoAP UDP port.
const CoAPPort = 5683

// CoAP protocol constants used by the generator (kept independent of
// the extractor's parser so that generator and parser validate each
// other in tests).
const (
	coapCON = 0 // confirmable
	coapACK = 2 // acknowledgement

	coapGET  = 0x01
	coapPOST = 0x02
	coapPUT  = 0x03

	coapChanged  = 0x44 // 2.04
	coapContent  = 0x45 // 2.05
	coapContinue = 0x5f // 2.31

	coapOptUriPath       = 11
	coapOptContentFormat = 12
	coapOptBlock2        = 23
	coapOptBlock1        = 27
)

// coapOpt is one option for the encoder; options must be appended in
// ascending number order.
type coapOpt struct {
	num int
	val []byte
}

// coapNib splits an option delta or length into its header nibble and
// extension bytes (RFC 7252 §3.1).
func coapNib(v int) (nib byte, ext []byte) {
	switch {
	case v < 13:
		return byte(v), nil
	case v < 269:
		return 13, []byte{byte(v - 13)}
	default:
		return 14, []byte{byte((v - 269) >> 8), byte(v - 269)}
	}
}

// coapEncode renders one CoAP message.
func coapEncode(typ, code byte, msgID uint16, token []byte, opts []coapOpt, payload []byte) []byte {
	msg := []byte{0x40 | typ<<4 | byte(len(token)), code, byte(msgID >> 8), byte(msgID)}
	msg = append(msg, token...)
	prev := 0
	for _, o := range opts {
		dn, de := coapNib(o.num - prev)
		ln, le := coapNib(len(o.val))
		msg = append(msg, dn<<4|ln)
		msg = append(msg, de...)
		msg = append(msg, le...)
		msg = append(msg, o.val...)
		prev = o.num
	}
	if len(payload) > 0 {
		msg = append(msg, 0xff)
		msg = append(msg, payload...)
	}
	return msg
}

// coapUintBytes renders a block option value in its minimal big-endian
// form (zero-length for 0, per RFC 7252 uint options).
func coapUintBytes(v uint32) []byte {
	var out []byte
	for v > 0 {
		out = append([]byte{byte(v)}, out...)
		v >>= 8
	}
	return out
}

// coapToken draws a fresh 4-byte token.
func (g *Gen) coapToken() []byte {
	t := make([]byte, 4)
	for i := range t {
		t[i] = byte(g.rng.Intn(256))
	}
	return t
}

// CoAPSensorReading is one benign exchange: a device POSTs a small
// text reading to the gateway, which acknowledges with 2.04 Changed.
func (g *Gen) CoAPSensorReading(device netip.Addr) []*netpkt.Packet {
	sport := uint16(g.rng.Intn(28000) + 1025)
	mid := uint16(g.rng.Intn(1 << 16))
	tok := g.coapToken()
	reading := fmt.Sprintf("t=%d.%d;h=%d", 15+g.rng.Intn(15), g.rng.Intn(10), 30+g.rng.Intn(40))
	req := coapEncode(coapCON, coapPOST, mid, tok, []coapOpt{
		{coapOptUriPath, []byte("sensors")},
		{coapOptUriPath, []byte("temp")},
		{coapOptContentFormat, nil}, // text/plain (0)
	}, []byte(reading))
	out := []*netpkt.Packet{g.udp(device, IoTGateway, sport, CoAPPort, req)}
	g.Advance(400)
	ack := coapEncode(coapACK, coapChanged, mid, tok, nil, nil)
	out = append(out, g.udp(IoTGateway, device, CoAPPort, sport, ack))
	g.Advance(300)
	return out
}

// CoAPDiscovery is one benign resource-discovery exchange: GET
// /.well-known/core answered with a link-format listing.
func (g *Gen) CoAPDiscovery(device netip.Addr) []*netpkt.Packet {
	sport := uint16(g.rng.Intn(28000) + 1025)
	mid := uint16(g.rng.Intn(1 << 16))
	tok := g.coapToken()
	req := coapEncode(coapCON, coapGET, mid, tok, []coapOpt{
		{coapOptUriPath, []byte(".well-known")},
		{coapOptUriPath, []byte("core")},
	}, nil)
	out := []*netpkt.Packet{g.udp(device, IoTGateway, sport, CoAPPort, req)}
	g.Advance(500)
	links := `</sensors/temp>;rt="temperature";ct=0,</sensors/hum>;rt="humidity";ct=0,</firmware>;rt="fw"`
	resp := coapEncode(coapACK, coapContent, mid, tok, []coapOpt{
		{coapOptContentFormat, []byte{40}}, // application/link-format
	}, []byte(links))
	out = append(out, g.udp(IoTGateway, device, CoAPPort, sport, resp))
	g.Advance(300)
	return out
}

// CoAPScan probes `scans` distinct dark-space addresses with CoAP
// discovery requests — the datagram version of the worm's SYN sweep,
// tripping the dark-address-space classifier the same way.
func (g *Gen) CoAPScan(attacker netip.Addr, scans int) []*netpkt.Packet {
	var out []*netpkt.Packet
	base := DarkNet.Addr().As4()
	for i := 0; i < scans; i++ {
		dst := netip.AddrFrom4([4]byte{base[0], base[1], base[2], byte(10 + i)})
		req := coapEncode(coapCON, coapGET, uint16(g.rng.Intn(1<<16)), g.coapToken(), []coapOpt{
			{coapOptUriPath, []byte(".well-known")},
			{coapOptUriPath, []byte("core")},
		}, nil)
		out = append(out, g.udp(attacker, dst, uint16(41000+i), CoAPPort, req))
		g.Advance(2000)
	}
	return out
}

// CoAPBlockPut delivers body to the target as a Block1 PUT transfer in
// 16-byte blocks (SZX=0), the target acknowledging each block with
// 2.31 Continue and the last with 2.04 Changed. One exchange uses one
// token and one source port, so the whole transfer is one conversation.
func (g *Gen) CoAPBlockPut(src, dst netip.Addr, path string, body []byte) []*netpkt.Packet {
	const bs = 16
	sport := uint16(g.rng.Intn(28000) + 1025)
	mid := uint16(g.rng.Intn(1 << 16))
	tok := g.coapToken()
	var out []*netpkt.Packet
	n := (len(body) + bs - 1) / bs
	for i := 0; i < n; i++ {
		end := (i + 1) * bs
		if end > len(body) {
			end = len(body)
		}
		more := uint32(0)
		if i < n-1 {
			more = 1
		}
		blk := uint32(i)<<4 | more<<3 // SZX=0: 16-byte blocks
		req := coapEncode(coapCON, coapPUT, mid, tok, []coapOpt{
			{coapOptUriPath, []byte(path)},
			{coapOptBlock1, coapUintBytes(blk)},
		}, body[i*bs:end])
		out = append(out, g.udp(src, dst, sport, CoAPPort, req))
		g.Advance(500)
		code := byte(coapContinue)
		if more == 0 {
			code = coapChanged
		}
		ack := coapEncode(coapACK, code, mid, tok, []coapOpt{
			{coapOptBlock1, coapUintBytes(blk)},
		}, nil)
		out = append(out, g.udp(dst, src, CoAPPort, sport, ack))
		g.Advance(400)
		mid++
	}
	return out
}

// IoTSpec describes a propagating IoT botnet with known ground truth,
// the datagram mirror of WormSpec: patient zero probes dark space with
// CoAP discovery and sprays the exploit body at its victims as Block1
// firmware transfers; each infected device then scans and re-delivers
// the same bytes. Benign sensor chatter (readings and discovery from
// uninvolved devices) interleaves throughout.
type IoTSpec struct {
	Seed int64

	// Payload is the packed body every infection delivers (default:
	// exploits.CoAPFirmware, the block-split decryption-loop body).
	Payload []byte

	// Generations is the propagation depth (default 2).
	Generations int

	// FanoutPerHost is how many victims each infected device attacks
	// (default 2).
	FanoutPerHost int

	// ScansPerHost is the dark-space probe count preceding each
	// device's first delivery (default 4).
	ScansPerHost int

	// BenignSessions interleaves sensor-chatter exchanges before each
	// infection (default 2; negative for none).
	BenignSessions int
}

// IoTBotnet renders the outbreak as an ordered packet slice.
func IoTBotnet(spec IoTSpec) []*netpkt.Packet {
	if spec.Payload == nil {
		spec.Payload = exploits.CoAPFirmware()
	}
	t := newTree(spec.Generations, spec.FanoutPerHost, spec.ScansPerHost, spec.BenignSessions)
	g := NewGen(spec.Seed)
	// Benign sensors report from their own pool.
	sensor := func() netip.Addr {
		return netip.AddrFrom4([4]byte{172, 18, byte(g.rng.Intn(4)), byte(g.rng.Intn(250) + 1)})
	}
	chatter := func() []*netpkt.Packet {
		if g.rng.Intn(3) == 0 {
			return g.CoAPDiscovery(sensor())
		}
		return g.CoAPSensorReading(sensor())
	}
	return t.walk(g, 17, chatter, func(host, target netip.Addr) []*netpkt.Packet {
		out := g.CoAPScan(host, t.scans)
		g.Advance(3000)
		return append(out, g.CoAPBlockPut(host, target, "firmware", spec.Payload)...)
	})
}
