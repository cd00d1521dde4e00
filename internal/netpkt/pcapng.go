package netpkt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// pcapng block types (per the IETF pcapng draft).
const (
	ngBlockSHB = 0x0a0d0d0a // Section Header Block
	ngBlockIDB = 0x00000001 // Interface Description Block
	ngBlockSPB = 0x00000003 // Simple Packet Block
	ngBlockEPB = 0x00000006 // Enhanced Packet Block

	ngByteOrderMagic = 0x1a2b3c4d
	ngOptEnd         = 0
	ngOptIfTsresol   = 9

	// ngMaxBlockLen bounds any block we are willing to buffer: a
	// max-snaplen packet plus generous option overhead. Anything
	// larger is treated as corruption, not an allocation request.
	ngMaxBlockLen = maxSnapLen + 1<<12
)

// ErrBadPcapNG is returned for malformed pcapng input.
var ErrBadPcapNG = errors.New("netpkt: malformed pcapng")

// ngIface is one Interface Description Block's decoded state.
type ngIface struct {
	link    uint32
	tsScale uint64 // ticks per second (power-of-ten resolutions)
	tsPow2  uint8  // if nonzero, resolution is 2^-tsPow2 instead
}

// toMicros converts a raw interface timestamp to microseconds.
func (ifc *ngIface) toMicros(ts uint64) uint64 {
	if ifc.tsPow2 != 0 {
		v := uint64(ifc.tsPow2)
		// Split to avoid overflowing ts*1e6 for large tick counts.
		return (ts>>v)*1e6 + ((ts&(1<<v-1))*1e6)>>v
	}
	switch {
	case ifc.tsScale == 1e6:
		return ts
	case ifc.tsScale > 1e6:
		return ts / (ifc.tsScale / 1e6)
	default:
		return ts * (1e6 / ifc.tsScale)
	}
}

// PcapNGReader streams Ethernet frames out of a pcapng capture:
// Section Header, Interface Description, Enhanced Packet and Simple
// Packet blocks, either endianness (switching at section boundaries),
// and per-interface timestamp resolution (if_tsresol). Unknown block
// types and non-Ethernet interfaces are skipped.
type PcapNGReader struct {
	rr     recordReader
	bo     binary.ByteOrder
	ifaces []ngIface

	// pool, when set, recycles packets and payload buffers through
	// NextPacket (see SetPool).
	pool *PacketPool
}

// NewPcapNGReader validates the leading Section Header Block. r is
// read through a 256 KiB buffer (see newRecordReader).
func NewPcapNGReader(r io.Reader) (*PcapNGReader, error) {
	pr := &PcapNGReader{rr: newRecordReader(r)}
	hdr, err := pr.rr.next(8)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPcapNG, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != ngBlockSHB {
		return nil, fmt.Errorf("%w: not a section header", ErrBadPcapNG)
	}
	if err := pr.readSection([4]byte(hdr[4:8])); err != nil {
		return nil, err
	}
	return pr, nil
}

// readSection consumes a Section Header Block body given the raw
// (endianness-unknown) total-length field, establishing the section's
// byte order and resetting the interface table.
func (pr *PcapNGReader) readSection(rawLen [4]byte) error {
	bom, err := pr.rr.next(4)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadPcapNG, err)
	}
	switch binary.LittleEndian.Uint32(bom) {
	case ngByteOrderMagic:
		pr.bo = binary.LittleEndian
	case 0x4d3c2b1a:
		pr.bo = binary.BigEndian
	default:
		return fmt.Errorf("%w: bad byte-order magic", ErrBadPcapNG)
	}
	total := pr.bo.Uint32(rawLen[:])
	// 12 bytes header already read plus the 4-byte byte-order magic;
	// the body holds version, section length, options, trailing length.
	if total < 28 || total > ngMaxBlockLen || total%4 != 0 {
		return fmt.Errorf("%w: section header length %d", ErrBadPcapNG, total)
	}
	if _, err := pr.body(int(total) - 12); err != nil {
		return err
	}
	pr.ifaces = pr.ifaces[:0]
	return nil
}

// body returns the n bytes that finish the current block, as a view
// valid until the next read.
func (pr *PcapNGReader) body(n int) ([]byte, error) {
	b, err := pr.rr.next(n)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated block", ErrBadPcapNG)
	}
	return b, nil
}

// addIface decodes an Interface Description Block.
func (pr *PcapNGReader) addIface(b []byte) error {
	if len(b) < 12 {
		return fmt.Errorf("%w: short interface block", ErrBadPcapNG)
	}
	ifc := ngIface{link: uint32(pr.bo.Uint16(b[0:2])), tsScale: 1e6}
	// Options start after linktype/reserved/snaplen.
	opts := b[8 : len(b)-4]
	for len(opts) >= 4 {
		code := pr.bo.Uint16(opts[0:2])
		olen := int(pr.bo.Uint16(opts[2:4]))
		opts = opts[4:]
		if code == ngOptEnd {
			break
		}
		if olen > len(opts) {
			break // malformed option; keep defaults
		}
		if code == ngOptIfTsresol && olen >= 1 {
			v := opts[0]
			if v&0x80 != 0 {
				ifc.tsPow2 = v & 0x7f
			} else if v <= 18 {
				scale := uint64(1)
				for i := byte(0); i < v; i++ {
					scale *= 10
				}
				ifc.tsScale = scale
			}
		}
		opts = opts[(olen+3)&^3:]
	}
	pr.ifaces = append(pr.ifaces, ifc)
	return nil
}

// NextFrame returns the next captured Ethernet frame and its timestamp
// (microseconds), or io.EOF. Like PcapReader.NextFrame, the returned
// slice is a view of the read buffer valid only until the next call.
func (pr *PcapNGReader) NextFrame() ([]byte, uint64, error) {
	for {
		hdr, err := pr.rr.next(8)
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				return nil, 0, fmt.Errorf("%w: truncated block header", ErrBadPcapNG)
			}
			return nil, 0, err
		}
		typ := pr.bo.Uint32(hdr[0:4])
		if typ == ngBlockSHB {
			// A new section may flip endianness; its length field is
			// in the new section's byte order.
			if err := pr.readSection([4]byte(hdr[4:8])); err != nil {
				return nil, 0, err
			}
			continue
		}
		total := pr.bo.Uint32(hdr[4:8])
		if total < 12 || total > ngMaxBlockLen || total%4 != 0 {
			return nil, 0, fmt.Errorf("%w: block length %d", ErrBadPcapNG, total)
		}
		b, err := pr.body(int(total) - 8)
		if err != nil {
			return nil, 0, err
		}
		if trailer := pr.bo.Uint32(b[len(b)-4:]); trailer != total {
			return nil, 0, fmt.Errorf("%w: trailing length mismatch", ErrBadPcapNG)
		}
		switch typ {
		case ngBlockIDB:
			if err := pr.addIface(b); err != nil {
				return nil, 0, err
			}
		case ngBlockEPB:
			if len(b) < 24 {
				return nil, 0, fmt.Errorf("%w: short packet block", ErrBadPcapNG)
			}
			ifID := pr.bo.Uint32(b[0:4])
			if int(ifID) >= len(pr.ifaces) {
				return nil, 0, fmt.Errorf("%w: undefined interface %d", ErrBadPcapNG, ifID)
			}
			ifc := &pr.ifaces[ifID]
			ts := uint64(pr.bo.Uint32(b[4:8]))<<32 | uint64(pr.bo.Uint32(b[8:12]))
			capLen := int(pr.bo.Uint32(b[12:16]))
			if capLen < 0 || capLen > len(b)-24 || capLen > maxSnapLen {
				return nil, 0, fmt.Errorf("%w: capture length %d", ErrBadPcapNG, capLen)
			}
			if ifc.link != linkTypeEthernet {
				continue
			}
			return b[20 : 20+capLen], ifc.toMicros(ts), nil
		case ngBlockSPB:
			if len(pr.ifaces) == 0 || len(b) < 8 {
				return nil, 0, fmt.Errorf("%w: simple packet before interface", ErrBadPcapNG)
			}
			origLen := int(pr.bo.Uint32(b[0:4]))
			capLen := len(b) - 8
			if origLen >= 0 && origLen < capLen {
				capLen = origLen
			}
			if capLen > maxSnapLen {
				return nil, 0, fmt.Errorf("%w: capture length %d", ErrBadPcapNG, capLen)
			}
			if pr.ifaces[0].link != linkTypeEthernet {
				continue
			}
			return b[4 : 4+capLen], 0, nil
		default:
			// Name resolution, statistics, custom blocks: skip.
		}
	}
}

// SetPool attaches a packet pool: subsequent NextPacket calls draw
// their packet structs and payload buffers from it, and the consumer
// returns them with Packet.Release once done.
func (pr *PcapNGReader) SetPool(pl *PacketPool) { pr.pool = pl }

// NextPacket parses the next frame, skipping unparseable ones; the
// returned packet owns its payload (until released, when pooled).
func (pr *PcapNGReader) NextPacket(skipped *int) (*Packet, error) {
	return nextPacket(pr, skipped, pr.pool)
}

// TraceReader is a capture stream of either supported trace format.
type TraceReader interface {
	// NextFrame returns the next raw Ethernet frame and its timestamp
	// in microseconds; the slice is a view of the read buffer, valid
	// until the next call.
	NextFrame() ([]byte, uint64, error)
	// NextPacket parses the next frame, skipping unparseable ones.
	NextPacket(skipped *int) (*Packet, error)
	// SetPool recycles packets and payload buffers through a pool;
	// the consumer releases each packet when done with it.
	SetPool(*PacketPool)
}

// NewTraceReader sniffs the capture format from its magic number and
// returns the matching reader: classic pcap (microsecond or nanosecond
// magic, either endianness) or pcapng. r is read through a 256 KiB
// buffer unless it already is a *bufio.Reader at least that large.
func NewTraceReader(r io.Reader) (TraceReader, error) {
	br := bufio.NewReaderSize(r, traceBufSize)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPcap, err)
	}
	if binary.LittleEndian.Uint32(magic) == ngBlockSHB {
		return NewPcapNGReader(br)
	}
	return NewPcapReader(br)
}
