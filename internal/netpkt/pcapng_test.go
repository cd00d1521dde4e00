package netpkt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// ngBuf builds pcapng test captures block by block (little-endian).
type ngBuf struct{ bytes.Buffer }

func (b *ngBuf) u16(v uint16) { binary.Write(&b.Buffer, binary.LittleEndian, v) }
func (b *ngBuf) u32(v uint32) { binary.Write(&b.Buffer, binary.LittleEndian, v) }

func (b *ngBuf) block(typ uint32, body []byte) {
	for len(body)%4 != 0 {
		body = append(body, 0)
	}
	total := uint32(len(body) + 12)
	b.u32(typ)
	b.u32(total)
	b.Write(body)
	b.u32(total)
}

func (b *ngBuf) shb() {
	var body bytes.Buffer
	binary.Write(&body, binary.LittleEndian, uint32(ngByteOrderMagic))
	binary.Write(&body, binary.LittleEndian, uint16(1)) // major
	binary.Write(&body, binary.LittleEndian, uint16(0)) // minor
	binary.Write(&body, binary.LittleEndian, uint64(0xffffffffffffffff))
	b.block(ngBlockSHB, body.Bytes())
}

// idb appends an interface block; tsresol 0 means "no option" (µs).
func (b *ngBuf) idb(link uint16, tsresol byte) {
	var body bytes.Buffer
	binary.Write(&body, binary.LittleEndian, link)
	binary.Write(&body, binary.LittleEndian, uint16(0))          // reserved
	binary.Write(&body, binary.LittleEndian, uint32(maxSnapLen)) // snaplen
	if tsresol != 0 {
		binary.Write(&body, binary.LittleEndian, uint16(ngOptIfTsresol))
		binary.Write(&body, binary.LittleEndian, uint16(1))
		body.Write([]byte{tsresol, 0, 0, 0}) // value + pad
		binary.Write(&body, binary.LittleEndian, uint32(0))
	}
	b.block(ngBlockIDB, body.Bytes())
}

func (b *ngBuf) epb(ifID uint32, ts uint64, frame []byte) {
	var body bytes.Buffer
	binary.Write(&body, binary.LittleEndian, ifID)
	binary.Write(&body, binary.LittleEndian, uint32(ts>>32))
	binary.Write(&body, binary.LittleEndian, uint32(ts))
	binary.Write(&body, binary.LittleEndian, uint32(len(frame)))
	binary.Write(&body, binary.LittleEndian, uint32(len(frame)))
	body.Write(frame)
	b.block(ngBlockEPB, body.Bytes())
}

func testFrame(payload string) []byte {
	p := &Packet{
		SrcIP: mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2"),
		Proto: ProtoUDP, HasUDP: true, SrcPort: 7, DstPort: 9,
		Payload: []byte(payload),
	}
	return p.Serialize()
}

func TestPcapNGReadBack(t *testing.T) {
	var b ngBuf
	b.shb()
	b.idb(linkTypeEthernet, 0)
	b.epb(0, 1234567, testFrame("hello"))
	b.epb(0, 1234999, testFrame("world"))

	pr, err := NewPcapNGReader(&b)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pr.NextPacket(nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pr.NextPacket(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(p1.Payload) != "hello" || string(p2.Payload) != "world" {
		t.Fatalf("payloads %q %q", p1.Payload, p2.Payload)
	}
	if p1.TimestampUS != 1234567 || p2.TimestampUS != 1234999 {
		t.Fatalf("timestamps %d %d", p1.TimestampUS, p2.TimestampUS)
	}
	if _, err := pr.NextPacket(nil); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestPcapNGNanosecondResolution(t *testing.T) {
	var b ngBuf
	b.shb()
	b.idb(linkTypeEthernet, 9) // 10^-9: nanosecond ticks
	b.epb(0, 5_000_001_500, testFrame("x"))
	pr, err := NewPcapNGReader(&b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pr.NextPacket(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.TimestampUS != 5_000_001 {
		t.Fatalf("ns timestamp converted to %d µs, want 5000001", p.TimestampUS)
	}
}

func TestPcapNGSkipsUnknownBlocksAndInterfaces(t *testing.T) {
	var b ngBuf
	b.shb()
	b.idb(101, 0) // non-Ethernet (raw IP) interface
	b.idb(linkTypeEthernet, 0)
	b.block(0x0bad, []byte{1, 2, 3, 4}) // unknown block type
	b.epb(0, 1, testFrame("skip-me"))   // wrong link type
	b.epb(1, 2, testFrame("ethernet"))  // the one we want
	pr, err := NewPcapNGReader(&b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pr.NextPacket(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Payload) != "ethernet" {
		t.Fatalf("got %q", p.Payload)
	}
}

func TestPcapNanosecondMagic(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicNano)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMinor)
	binary.LittleEndian.PutUint32(hdr[16:20], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEthernet)
	buf.Write(hdr)
	frame := testFrame("nano")
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:4], 7)           // sec
	binary.LittleEndian.PutUint32(rec[4:8], 123_456_789) // nsec
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	buf.Write(rec)
	buf.Write(frame)

	pr, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pr.NextPacket(nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = 7*1_000_000 + 123_456
	if p.TimestampUS != want {
		t.Fatalf("got %d µs, want %d", p.TimestampUS, uint64(want))
	}
}

func TestTraceReaderSniffsFormat(t *testing.T) {
	// Classic pcap.
	var classic bytes.Buffer
	w, err := NewPcapWriter(&classic)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(testFrame("classic"), 42); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&classic)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.NextPacket(nil)
	if err != nil || string(p.Payload) != "classic" {
		t.Fatalf("classic: %v %q", err, p.Payload)
	}

	// pcapng.
	var ng ngBuf
	ng.shb()
	ng.idb(linkTypeEthernet, 0)
	ng.epb(0, 42, testFrame("ng"))
	tr, err = NewTraceReader(&ng)
	if err != nil {
		t.Fatal(err)
	}
	p, err = tr.NextPacket(nil)
	if err != nil || string(p.Payload) != "ng" {
		t.Fatalf("pcapng: %v %q", err, p.Payload)
	}
}

// TestPcapReaderBufferReuse pins the satellite fix: reading a whole
// trace must not allocate per-packet record/frame buffers.
func TestPcapReaderBufferReuse(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := w.WriteFrame(testFrame("reuse-test-payload"), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(20, func() {
		pr, err := NewPcapReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, _, err := pr.NextFrame(); err != nil {
				if err == io.EOF {
					return
				}
				t.Fatal(err)
			}
		}
	})
	// Reader setup allocates a handful of objects; 64 packets used to
	// add two slices each.
	if allocs > 10 {
		t.Fatalf("reading 64 frames allocated %v objects", allocs)
	}
}

func TestPcapNGRejectsOversizedCapture(t *testing.T) {
	// An EPB whose capture length exceeds the snap limit must be
	// rejected as corruption, matching the classic reader's
	// invariant (the block-length bound alone allows ~4KB more).
	var b ngBuf
	b.shb()
	b.idb(linkTypeEthernet, 6)
	b.epb(0, 0, make([]byte, maxSnapLen+1000))
	r, err := NewPcapNGReader(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if frame, _, err := r.NextFrame(); err == nil {
		t.Fatalf("oversized capture accepted: %d-byte frame", len(frame))
	}
}

// countingReader counts the Read calls that reach the underlying
// source, the way read(2) calls reach a bare *os.File.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestTraceReaderBuffersBareReaders: a capture handed over as a bare
// reader (cmd/semnids passes an *os.File) is read in buffer-sized
// pieces, not in two reads per packet, in both formats; a reader that
// is already a large enough *bufio.Reader is used as it is.
func TestTraceReaderBuffersBareReaders(t *testing.T) {
	const packets = 20000
	var classic bytes.Buffer
	w, err := NewPcapWriter(&classic)
	if err != nil {
		t.Fatal(err)
	}
	var ng ngBuf
	ng.shb()
	ng.idb(linkTypeEthernet, 0)
	for i := 0; i < packets; i++ {
		if err := w.WriteFrame(testFrame("buffered-read-payload"), uint64(i)); err != nil {
			t.Fatal(err)
		}
		ng.epb(0, uint64(i), testFrame("buffered-read-payload"))
	}
	for name, trace := range map[string][]byte{"pcap": classic.Bytes(), "pcapng": ng.Bytes()} {
		src := &countingReader{r: bytes.NewReader(trace)}
		tr, err := NewTraceReader(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 0
		for {
			if _, err := tr.NextPacket(nil); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("%s packet %d: %v", name, n, err)
			}
			n++
		}
		if n != packets {
			t.Fatalf("%s: read %d packets, want %d", name, n, packets)
		}
		if limit := len(trace)/traceBufSize + 3; src.reads > limit {
			t.Errorf("%s: %d reads of the source for %d bytes in %d packets, want at most %d",
				name, src.reads, len(trace), packets, limit)
		}
	}

	// No second buffer under a reader that is already big enough: the
	// trace reader consumes from the caller's buffer, so what it has
	// not read is still there for the caller.
	own := bufio.NewReaderSize(bytes.NewReader(classic.Bytes()), traceBufSize)
	if _, err := NewTraceReader(own); err != nil {
		t.Fatal(err)
	}
	if own.Buffered() == 0 {
		t.Error("the caller's bufio.Reader was drained into a second buffer")
	}
}

// TestRecordReaderViews drives the readers' record source over a small
// buffer, so that every way a record can meet the buffer occurs within
// a few hundred bytes: wholly buffered, straddling the end (bufio
// slides and refills), exactly the buffer's size, larger than it
// (copied out), empty. Each view must hold the right bytes until the
// next call, and the end of input must read as io.ReadFull reports it.
func TestRecordReaderViews(t *testing.T) {
	src := make([]byte, 600)
	for i := range src {
		src[i] = byte(i*7 + i>>8)
	}
	const bufSize = 32
	for _, sizes := range [][]int{
		{8, 20, 20, 0, 32, 5, 33, 31, 100, 1, 16, 16, 64},
		{32, 32, 33, 32, 1, 0, 0, 31, 2},
		{600},
	} {
		rr := recordReader{br: bufio.NewReaderSize(bytes.NewReader(src), bufSize)}
		off := 0
		for i, n := range sizes {
			b, err := rr.next(n)
			if err != nil {
				t.Fatalf("sizes %v: record %d (%d bytes at %d): %v", sizes, i, n, off, err)
			}
			if !bytes.Equal(b, src[off:off+n]) {
				t.Fatalf("sizes %v: record %d (%d bytes at %d) holds the wrong bytes", sizes, i, n, off)
			}
			off += n
		}
		// A record running past the end, then the end itself.
		if rest := len(src) - off; rest > 0 {
			for _, n := range []int{rest + 1, rest + bufSize + 1} {
				if _, err := rr.next(n); err != io.ErrUnexpectedEOF {
					t.Fatalf("sizes %v: %d bytes with %d left: %v, want io.ErrUnexpectedEOF", sizes, n, rest, err)
				}
				rr = recordReader{br: bufio.NewReaderSize(bytes.NewReader(src[off:]), bufSize)}
			}
			if _, err := rr.next(rest); err != nil {
				t.Fatalf("sizes %v: last %d bytes: %v", sizes, rest, err)
			}
		}
		if _, err := rr.next(4); err != io.EOF {
			t.Fatalf("sizes %v: read at the end: %v, want io.EOF", sizes, err)
		}
	}
}
