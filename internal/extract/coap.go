package extract

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// CoAP extraction (RFC 7252): the constrained-device protocol IoT
// deployments run over UDP. CoAP has no length framing of its own —
// one message is exactly one datagram — so this extractor works on the
// datagram-flow view (concatenated payloads plus per-datagram
// boundaries) rather than a byte stream. Its job mirrors the SMTP
// extractor's: recognize conformant protocol usage, reassemble the
// one place the protocol legitimately splits content across messages
// (block-wise transfer, RFC 7959), and forward only plausible
// executable content to the semantic stages. Shellcode sprayed across
// Block1/Block2 transfers in 16-byte slices is invisible to
// per-packet analysis — every slice is below MinBinaryWindow — and
// only becomes detectable on the reassembled body.

// CoAP option numbers the extractor interprets.
const (
	coapOptBlock2 = 23 // RFC 7959 Block2 (response payload blocks)
	coapOptBlock1 = 27 // RFC 7959 Block1 (request payload blocks)
)

// coapMsg is one parsed CoAP message.
type coapMsg struct {
	typ          byte // CON/NON/ACK/RST (2 bits)
	code         byte // class.detail request/response code
	msgID        uint16
	token        []byte
	hasB1, hasB2 bool
	block1       uint32 // raw block option value: NUM<<4 | M<<3 | SZX
	block2       uint32
	payload      []byte
	payloadOff   int // payload start offset within the datagram
}

// blockNum extracts the block sequence number from a raw block value.
func blockNum(v uint32) uint32 { return v >> 4 }

// blockMore reports the block value's M (more blocks follow) bit.
func blockMore(v uint32) bool { return v>>3&1 == 1 }

// coapUint decodes a 0-3 byte big-endian option value.
func coapUint(b []byte) uint32 {
	var v uint32
	for _, c := range b {
		v = v<<8 | uint32(c)
	}
	return v
}

// coapExt resolves an option-header nibble with its RFC 7252 extended
// forms: 13 adds one extension byte (+13), 14 adds two (+269), 15 is
// reserved (invalid outside the payload marker).
func coapExt(d []byte, i, nib int) (val, next int, ok bool) {
	switch nib {
	case 13:
		if i >= len(d) {
			return 0, 0, false
		}
		return int(d[i]) + 13, i + 1, true
	case 14:
		if i+1 >= len(d) {
			return 0, 0, false
		}
		return int(binary.BigEndian.Uint16(d[i:i+2])) + 269, i + 2, true
	case 15:
		return 0, 0, false
	}
	return nib, i, true
}

// parseCoAP decodes one datagram as a CoAP message, walking the full
// option chain. It is strict — version must be 1, the token length
// and every option must fit, reserved code classes are rejected — so
// that random binary (DNS responses, raw exploit payloads) does not
// masquerade as CoAP.
func parseCoAP(d []byte) (coapMsg, bool) {
	var m coapMsg
	if len(d) < 4 || d[0]>>6 != 1 {
		return m, false
	}
	tkl := int(d[0] & 0x0f)
	if tkl > 8 || len(d) < 4+tkl {
		return m, false
	}
	m.typ = d[0] >> 4 & 3
	m.code = d[1]
	switch m.code >> 5 {
	case 1, 6, 7: // reserved code classes
		return m, false
	}
	if m.code == 0 && (tkl != 0 || len(d) != 4) {
		// An Empty message is exactly the 4-byte header.
		return m, false
	}
	m.msgID = binary.BigEndian.Uint16(d[2:4])
	m.token = d[4 : 4+tkl]

	i := 4 + tkl
	opt := 0
	for i < len(d) {
		if d[i] == 0xff {
			if i+1 >= len(d) {
				return m, false // payload marker with empty payload
			}
			m.payloadOff = i + 1
			m.payload = d[i+1:]
			return m, true
		}
		deltaNib := int(d[i] >> 4)
		lenNib := int(d[i] & 0x0f)
		i++
		delta, ni, ok := coapExt(d, i, deltaNib)
		if !ok {
			return m, false
		}
		olen, ni2, ok := coapExt(d, ni, lenNib)
		if !ok || ni2+olen > len(d) {
			return m, false
		}
		opt += delta
		val := d[ni2 : ni2+olen]
		switch opt {
		case coapOptBlock1:
			if olen > 3 {
				return m, false
			}
			m.hasB1, m.block1 = true, coapUint(val)
		case coapOptBlock2:
			if olen > 3 {
				return m, false
			}
			m.hasB2, m.block2 = true, coapUint(val)
		}
		i = ni2 + olen
	}
	return m, true
}

// IsCoAP reports whether the datagram parses as a complete CoAP
// message.
func IsCoAP(data []byte) bool {
	_, ok := parseCoAP(data)
	return ok
}

// blockXfer accumulates one block-wise transfer (keyed by token).
type blockXfer struct {
	nums   []uint32
	parts  [][]byte
	offset int // absolute offset of the first-seen block's payload
}

// ExtractDatagrams is the extraction entry point for datagram flows:
// data is the in-order concatenation of a flow's datagram payloads and
// bounds holds each datagram's start offset. A single-datagram flow is
// handed to Extract unchanged — byte-identical behavior with the plain
// per-packet path. A multi-datagram CoAP conversation is walked
// message by message with block-wise transfers reassembled; anything
// else falls back to Extract over the concatenation (the streaming
// treatment multi-datagram text carriers get).
func ExtractDatagrams(data []byte, bounds []int) []Frame {
	if len(bounds) <= 1 {
		return Extract(data)
	}
	// Defensive: bounds must be strictly increasing offsets into data
	// starting at 0; anything else gets stream treatment.
	for i, b := range bounds {
		if b >= len(data) || (i == 0 && b != 0) || (i > 0 && b <= bounds[i-1]) {
			return Extract(data)
		}
	}
	if !IsCoAP(data[bounds[0]:bounds[1]]) {
		return Extract(data)
	}
	return extractCoAPFlow(data, bounds)
}

// extractCoAPFlow walks each datagram of a CoAP conversation:
// block-wise transfers are grouped by token, reordered by block
// number, and the reassembled body forwarded when it looks
// executable; immediate (non-block) payloads are forwarded under the
// same gate. Datagrams that fail the CoAP parse mid-flow (protocol
// confusion, injected raw payloads) still get the raw-binary scan.
func extractCoAPFlow(data []byte, bounds []int) []Frame {
	var frames []Frame
	xfers := make(map[string]*blockXfer)
	var order []string // first-appearance order, for deterministic output

	for i, start := range bounds {
		end := len(data)
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		msg := data[start:end]
		m, ok := parseCoAP(msg)
		if !ok {
			for _, f := range extractRaw(msg) {
				f.Offset += start
				frames = append(frames, f)
			}
			continue
		}
		if len(m.payload) == 0 {
			continue
		}
		if m.hasB1 || m.hasB2 {
			blk := m.block1
			if !m.hasB1 {
				blk = m.block2
			}
			k := string(m.token)
			x := xfers[k]
			if x == nil {
				x = &blockXfer{offset: start + m.payloadOff}
				xfers[k] = x
				order = append(order, k)
			}
			x.nums = append(x.nums, blockNum(blk))
			x.parts = append(x.parts, m.payload)
			continue
		}
		if looksExecutable(m.payload) {
			frames = append(frames, Frame{
				Data:   capFrame(m.payload),
				Source: "coap-payload",
				Offset: start + m.payloadOff,
			})
		}
	}

	for _, k := range order {
		x := xfers[k]
		body := x.reassemble()
		if looksExecutable(body) {
			frames = append(frames, Frame{
				Data:   capFrame(body),
				Source: "coap-block",
				Offset: x.offset,
			})
		}
	}
	return frames
}

// reassemble orders the transfer's blocks by block number
// (retransmitted numbers keep the first copy) and concatenates them.
func (x *blockXfer) reassemble() []byte {
	var body []byte
	seen := uint32(0xffffffff)
	for _, i := range blockOrder(x.nums, cmp.Compare[uint32]) {
		if n := x.nums[i]; n != seen {
			seen = n
			body = append(body, x.parts[i]...)
		}
	}
	return body
}

// blockOrder returns the indices of nums sorted by block number under
// compare. The sort is stable, so the first copy of a retransmitted
// number comes first; a transfer holds up to reasm.MaxDgramBounds
// blocks, in any order.
func blockOrder(nums []uint32, compare func(a, b uint32) int) []int {
	idx := make([]int, len(nums))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return compare(nums[a], nums[b]) })
	return idx
}
