package netpkt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Classic libpcap file format (the format the paper's traces were
// stored in): a 24-byte global header followed by per-packet records.
const (
	pcapMagic         = 0xa1b2c3d4
	pcapMagicSwapped  = 0xd4c3b2a1
	pcapMagicNano     = 0xa1b23c4d // nanosecond-resolution variant
	pcapMagicNanoSwap = 0x4d3cb2a1
	pcapVersionMajor  = 2
	pcapVersionMinor  = 4
	linkTypeEthernet  = 1
	maxSnapLen        = 262144
)

// ErrBadPcap is returned for malformed trace files.
var ErrBadPcap = errors.New("netpkt: malformed pcap")

// PcapWriter streams packets into classic pcap format.
type PcapWriter struct {
	w     io.Writer
	count int
}

// NewPcapWriter writes the global header and returns a writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMinor)
	// thiszone=0, sigfigs=0
	binary.LittleEndian.PutUint32(hdr[16:20], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEthernet)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &PcapWriter{w: w}, nil
}

// WriteFrame appends one raw Ethernet frame with the given timestamp
// (microseconds since the epoch).
func (pw *PcapWriter) WriteFrame(frame []byte, tsUS uint64) error {
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(tsUS/1e6))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(tsUS%1e6))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	if _, err := pw.w.Write(rec); err != nil {
		return err
	}
	_, err := pw.w.Write(frame)
	if err == nil {
		pw.count++
	}
	return err
}

// WritePacket serializes and appends a parsed packet.
func (pw *PcapWriter) WritePacket(p *Packet) error {
	return pw.WriteFrame(p.Serialize(), p.TimestampUS)
}

// Count returns the number of packets written.
func (pw *PcapWriter) Count() int { return pw.count }

// recordReader hands out the next n bytes of a capture as a view of the
// read buffer under it (Peek, with the Discard deferred to the next
// call), so reading a record copies nothing beyond what bufio itself
// moves at a buffer boundary. Only a record larger than the whole
// buffer is copied, into spill.
type recordReader struct {
	br    *bufio.Reader
	held  int    // length of the view handed out last, not yet discarded
	spill []byte // reused copy of a record the buffer cannot hold
}

// traceBufSize is the read buffer under a capture: maxSnapLen, so every
// classic pcap record fits it and only a pcapng block padded past the
// snap length spills.
const traceBufSize = maxSnapLen

// newRecordReader reads r through a traceBufSize buffer, or through r
// itself when it already is a *bufio.Reader at least that large
// (bufio.NewReaderSize hands such a reader back unchanged).
func newRecordReader(r io.Reader) recordReader {
	return recordReader{br: bufio.NewReaderSize(r, traceBufSize)}
}

// next returns the capture's next n bytes, valid until the following
// call. Like io.ReadFull it fails with io.EOF when no byte is left and
// io.ErrUnexpectedEOF when fewer than n are.
func (rr *recordReader) next(n int) ([]byte, error) {
	if rr.held > 0 {
		rr.br.Discard(rr.held) // cannot fail: Peek buffered these bytes
		rr.held = 0
	}
	b, err := rr.br.Peek(n)
	switch {
	case err == nil:
		rr.held = n
		return b, nil
	case err == bufio.ErrBufferFull:
		if cap(rr.spill) < n {
			rr.spill = make([]byte, n)
		}
		b = rr.spill[:n]
		_, err = io.ReadFull(rr.br, b)
		return b, err
	case err == io.EOF && len(b) > 0:
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}

// PcapReader streams packets out of a classic pcap file
// (microsecond- or nanosecond-resolution magic, either endianness).
type PcapReader struct {
	rr      recordReader
	swapped bool
	nano    bool // timestamps are in nanoseconds (converted to µs)
	link    uint32

	// pool, when set, recycles packets and payload buffers through
	// NextPacket (see SetPool).
	pool *PacketPool
}

// NewPcapReader validates the global header. r is read through a
// 256 KiB buffer (see newRecordReader).
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	pr := &PcapReader{rr: newRecordReader(r)}
	hdr, err := pr.rr.next(24)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPcap, err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	switch magic {
	case pcapMagic:
	case pcapMagicSwapped:
		pr.swapped = true
	case pcapMagicNano:
		pr.nano = true
	case pcapMagicNanoSwap:
		pr.swapped = true
		pr.nano = true
	default:
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadPcap, magic)
	}
	pr.link = pr.u32(hdr[20:24])
	if pr.link != linkTypeEthernet {
		return nil, fmt.Errorf("%w: unsupported link type %d", ErrBadPcap, pr.link)
	}
	return pr, nil
}

func (pr *PcapReader) u32(b []byte) uint32 {
	if pr.swapped {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// NextFrame returns the next raw frame and its timestamp
// (microseconds), or io.EOF. The returned slice is a view of the read
// buffer, overwritten by the next NextFrame call; callers that retain
// the frame must copy it.
func (pr *PcapReader) NextFrame() ([]byte, uint64, error) {
	rec, err := pr.rr.next(16)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, 0, fmt.Errorf("%w: truncated record header", ErrBadPcap)
		}
		return nil, 0, err
	}
	sec := pr.u32(rec[0:4])
	frac := pr.u32(rec[4:8])
	capLen := pr.u32(rec[8:12])
	if capLen > maxSnapLen {
		return nil, 0, fmt.Errorf("%w: capture length %d too large", ErrBadPcap, capLen)
	}
	frame, err := pr.rr.next(int(capLen))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: truncated frame", ErrBadPcap)
	}
	ts := uint64(sec)*1e6 + uint64(frac)
	if pr.nano {
		ts = uint64(sec)*1e6 + uint64(frac)/1000
	}
	return frame, ts, nil
}

// SetPool attaches a packet pool: subsequent NextPacket calls draw
// their packet structs and payload buffers from it instead of
// allocating, and the consumer returns them with Packet.Release once
// done. Without a pool the historical contract holds — the packet owns
// a freshly allocated payload and never needs releasing.
func (pr *PcapReader) SetPool(pl *PacketPool) { pr.pool = pl }

// NextPacket parses the next frame; unparseable frames are skipped
// (counted in *skipped if non-nil) so a damaged trace does not stop
// analysis. The returned packet owns its payload and stays valid
// across subsequent reads; if a pool is attached (SetPool), it stays
// valid until released.
func (pr *PcapReader) NextPacket(skipped *int) (*Packet, error) {
	return nextPacket(pr, skipped, pr.pool)
}

// nextPacket implements NextPacket over any frame source, detaching
// the parsed payload from the source's reused frame buffer — into a
// pooled buffer when a pool is supplied, a fresh allocation otherwise.
func nextPacket(fr interface {
	NextFrame() ([]byte, uint64, error)
}, skipped *int, pool *PacketPool) (*Packet, error) {
	for {
		frame, ts, err := fr.NextFrame()
		if err != nil {
			return nil, err
		}
		var p *Packet
		var perr error
		if pool != nil {
			p = pool.Get()
			if perr = ParseInto(p, frame); perr == nil && len(p.Payload) > 0 {
				pool.attachPayload(p, p.Payload)
			}
			if perr != nil {
				p.Release()
			}
		} else {
			p, perr = Parse(frame)
			if perr == nil && len(p.Payload) > 0 {
				// Parse subslices the frame; copy the payload so the
				// packet survives the next read (and any asynchronous
				// analysis).
				p.Payload = append([]byte(nil), p.Payload...)
			}
		}
		if perr != nil {
			if skipped != nil {
				*skipped++
			}
			continue
		}
		p.TimestampUS = ts
		return p, nil
	}
}

// ReadAll drains a capture of either format (see NewTraceReader) into
// a slice of packets that own their payloads.
func ReadAll(r io.Reader) ([]*Packet, error) {
	pr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	var out []*Packet
	for {
		p, err := pr.NextPacket(nil)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
