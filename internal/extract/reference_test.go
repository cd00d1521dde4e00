package extract

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/reasm"
	"semnids/internal/traffic"
)

// The oracles: the byte-at-a-time scans and prefix tests the
// word-at-a-time kernels and the first-byte dispatch replaced, and the
// insertion sort blockOrder replaced. refExtract and
// refExtractDatagrams rebuild the whole stage from them (with
// scanTextProtocolCommand, the written-out specification of
// textProtocolCommand) and must agree with Extract and
// ExtractDatagrams frame for frame, byte for byte.

// LongestRun finds the longest run of a single repeated byte in data,
// returning its start and length (the first such run on a tie).
func LongestRun(data []byte) (start, length int) {
	bestStart, bestLen := 0, 0
	i := 0
	for i < len(data) {
		j := i + 1
		for j < len(data) && data[j] == data[i] {
			j++
		}
		if j-i > bestLen {
			bestStart, bestLen = i, j-i
		}
		i = j
	}
	return bestStart, bestLen
}

// windowBinaryRegion slides a MinBinaryWindow-byte window over data,
// counting non-text bytes, and stops at the first window whose density
// reaches BinaryDensity.
func windowBinaryRegion(data []byte) (start, end int) {
	n := len(data)
	if n < MinBinaryWindow {
		return -1, -1
	}
	w := MinBinaryWindow
	count := 0
	for i := 0; i < w; i++ {
		if !isTextByte(data[i]) {
			count++
		}
	}
	for i := 0; ; i++ {
		if float64(count)/float64(w) >= BinaryDensity {
			s := i
			for s > 0 && !isTextByte(data[s-1]) {
				s--
			}
			return s, n
		}
		if i+w >= n {
			break
		}
		if !isTextByte(data[i]) {
			count--
		}
		if !isTextByte(data[i+w]) {
			count++
		}
	}
	return -1, -1
}

var httpMethods = [][]byte{
	[]byte("GET "), []byte("POST "), []byte("HEAD "), []byte("PUT "),
	[]byte("DELETE "), []byte("OPTIONS "), []byte("TRACE "), []byte("SEARCH "),
	[]byte("PROPFIND "),
}

// IsHTTPRequest reports whether the payload begins like an HTTP
// request.
func IsHTTPRequest(data []byte) bool {
	for _, m := range httpMethods {
		if bytes.HasPrefix(data, m) {
			return true
		}
	}
	return false
}

// IsHTTPResponse reports whether the payload begins like an HTTP
// response.
func IsHTTPResponse(data []byte) bool {
	return bytes.HasPrefix(data, []byte("HTTP/1.")) || bytes.HasPrefix(data, []byte("HTTP/0.9"))
}

// IsSMTP reports whether the payload looks like an SMTP client
// dialogue.
func IsSMTP(data []byte) bool {
	for _, prefix := range [][]byte{
		[]byte("EHLO "), []byte("HELO "), []byte("MAIL FROM:"),
	} {
		if bytes.HasPrefix(data, prefix) {
			return true
		}
	}
	return false
}

// insertionOrder is blockOrder by insertion sort: stable, first
// arrival first among equal block numbers.
func insertionOrder(nums []uint32) []int {
	idx := make([]int, len(nums))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && nums[idx[j]] < nums[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

func refExtract(payload []byte) []Frame {
	switch {
	case len(payload) == 0:
		return nil
	case IsHTTPRequest(payload):
		return refExtractHTTP(payload)
	case IsHTTPResponse(payload):
		return refExtractHTTPResponse(payload)
	case IsSMTP(payload):
		return refExtractSMTP(payload)
	}
	if _, rest, ok := scanTextProtocolCommand(payload); ok {
		return refExtractTextCommand(payload, rest)
	}
	return refExtractRaw(payload)
}

func refExtractTextCommand(payload, rest []byte) []Frame {
	if s, e := windowBinaryRegion(rest); s >= 0 {
		off := len(payload) - len(rest) + s
		return []Frame{{Data: capFrame(rest[s:e]), Source: "text-proto", Offset: off}}
	}
	if start, length := LongestRun(rest); length >= RunThreshold {
		after := rest[start+length:]
		if len(after) >= MinBinaryWindow {
			off := len(payload) - len(rest) + start + length
			return []Frame{{Data: capFrame(after), Source: "text-proto", Offset: off}}
		}
	}
	return nil
}

func refExtractHTTPResponse(payload []byte) []Frame {
	headerEnd := bytes.Index(payload, []byte("\r\n\r\n"))
	if headerEnd < 0 {
		headerEnd = len(payload)
	}
	headers := payload[:headerEnd]
	if start, length := LongestRun(headers); length >= RunThreshold*2 {
		after := headers[start+length:]
		if len(after) >= MinBinaryWindow {
			return []Frame{{Data: capFrame(after), Source: "http-resp-header", Offset: start + length}}
		}
	}
	return nil
}

func refExtractHTTP(payload []byte) []Frame {
	var frames []Frame
	lineEnd := bytes.IndexByte(payload, '\n')
	if lineEnd < 0 {
		lineEnd = len(payload)
	}
	reqLine := payload[:lineEnd]
	if start, length := LongestRun(reqLine); length >= RunThreshold {
		after := reqLine[start+length:]
		if idx := bytes.LastIndex(after, []byte(" HTTP/")); idx >= 0 {
			after = after[:idx]
		}
		decoded := after
		src := "http-url"
		if looksPercentEncoded(after) {
			decoded = DecodePercentU(after)
			if bytes.Contains(after, []byte("%u")) {
				src = "http-unicode"
			}
		}
		if len(decoded) > 0 {
			frames = append(frames, Frame{Data: capFrame(decoded), Source: src, Offset: start + length})
		}
	}
	rest := payload[lineEnd:]
	if s, e := windowBinaryRegion(rest); s >= 0 {
		frames = append(frames, Frame{Data: capFrame(rest[s:e]), Source: "http-body", Offset: lineEnd + s})
	}
	return frames
}

func refExtractRaw(payload []byte) []Frame {
	s, e := windowBinaryRegion(payload)
	if s < 0 {
		start, length := LongestRun(payload)
		if length >= RunThreshold*2 {
			after := payload[start+length:]
			if len(after) >= MinBinaryWindow {
				return []Frame{{Data: capFrame(after), Source: "raw-binary", Offset: start + length}}
			}
		}
		return nil
	}
	return []Frame{{Data: capFrame(payload[s:e]), Source: "raw-binary", Offset: s}}
}

func refExtractSMTP(payload []byte) []Frame {
	var frames []Frame
	rest := payload
	base := 0
	for {
		idx := -1
		for _, m := range smtpAttachmentMarkers {
			if j := bytes.Index(rest, m); j >= 0 && (idx < 0 || j < idx) {
				idx = j
			}
		}
		if idx < 0 {
			return frames
		}
		bodyStart := bytes.Index(rest[idx:], []byte("\r\n\r\n"))
		if bodyStart < 0 {
			return frames
		}
		body := rest[idx+bodyStart+4:]
		enc, encLen := base64Run(body)
		if len(enc) >= 64 {
			decoded := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
			n, err := base64.StdEncoding.Decode(decoded, enc)
			if err == nil || n > 0 {
				decoded = decoded[:n]
				if len(decoded) > MaxAttachmentBytes {
					decoded = decoded[:MaxAttachmentBytes]
				}
				if refLooksExecutable(decoded) {
					frames = append(frames, Frame{Data: decoded, Source: "smtp-attachment", Offset: base + idx + bodyStart + 4})
				}
			}
		}
		advance := idx + bodyStart + 4 + encLen
		base += advance
		rest = rest[advance:]
	}
}

func refLooksExecutable(b []byte) bool {
	if len(b) < MinBinaryWindow {
		return false
	}
	if b[0] == 'M' && b[1] == 'Z' || bytes.HasPrefix(b, []byte("\x7fELF")) {
		return true
	}
	s, _ := windowBinaryRegion(b)
	return s >= 0
}

func refExtractDatagrams(data []byte, bounds []int) []Frame {
	if len(bounds) <= 1 {
		return refExtract(data)
	}
	for i, b := range bounds {
		if b >= len(data) || (i == 0 && b != 0) || (i > 0 && b <= bounds[i-1]) {
			return refExtract(data)
		}
	}
	if !IsCoAP(data[bounds[0]:bounds[1]]) {
		return refExtract(data)
	}
	var frames []Frame
	xfers := make(map[string]*blockXfer)
	var order []string
	for i, start := range bounds {
		end := len(data)
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		msg := data[start:end]
		m, ok := parseCoAP(msg)
		if !ok {
			for _, f := range refExtractRaw(msg) {
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
		if refLooksExecutable(m.payload) {
			frames = append(frames, Frame{Data: capFrame(m.payload), Source: "coap-payload", Offset: start + m.payloadOff})
		}
	}
	for _, k := range order {
		x := xfers[k]
		var body []byte
		seen := uint32(0xffffffff)
		for _, i := range insertionOrder(x.nums) {
			if n := x.nums[i]; n != seen {
				seen = n
				body = append(body, x.parts[i]...)
			}
		}
		if refLooksExecutable(body) {
			frames = append(frames, Frame{Data: capFrame(body), Source: "coap-block", Offset: x.offset})
		}
	}
	return frames
}

// sameFrames compares two extraction results: sources, offsets and
// data bytes, in order.
func sameFrames(a, b []Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Source != b[i].Source || a[i].Offset != b[i].Offset || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func checkAgainstReference(t *testing.T, data []byte, bounds []int) {
	t.Helper()
	got, want := ExtractDatagrams(data, bounds), refExtractDatagrams(data, bounds)
	if !sameFrames(got, want) {
		t.Fatalf("bounds %v, view %q:\n got  %s\n want %s", bounds, data, describe(got), describe(want))
	}
	if len(bounds) <= 1 {
		if got, want := Extract(data), refExtract(data); !sameFrames(got, want) {
			t.Fatalf("view %q:\n got  %s\n want %s", data, describe(got), describe(want))
		}
	}
}

func describe(frames []Frame) string {
	var b strings.Builder
	for _, f := range frames {
		fmt.Fprintf(&b, "[%s @%d % x] ", f.Source, f.Offset, f.Data)
	}
	return b.String()
}

// view is one input of the extraction stage: a TCP stream prefix or a
// lone datagram (no bounds), or a datagram flow's concatenated
// payloads with each datagram's start offset.
type view struct {
	data   []byte
	bounds []int
}

// trafficViews returns what the engine hands extraction for every
// internal/traffic scenario: each TCP stream's reassembled prefix at
// its analysis points (256 bytes, then at every doubling, and at its
// end), each datagram payload on its own, and each datagram flow's
// buffer at the same points.
func trafficViews() []view {
	g := traffic.NewGen(17)
	mail := g.InfectedMailSession(netip.MustParseAddr("10.99.99.99"), exploits.NetskyBinary(3, 4*1024))
	mail = append(mail, g.InfectedMailSession(netip.MustParseAddr("10.99.99.98"), exploits.BenignBinary(4, 2*1024))...)
	var table1 [][]byte
	for _, e := range exploits.Table1Exploits() {
		table1 = append(table1, e.Payload)
	}
	scenarios := [][]*netpkt.Packet{
		traffic.Synthesize(traffic.TraceSpec{Seed: 1, BenignSessions: 400, CodeRedInstances: 2, ExploitPayloads: table1}),
		traffic.WormOutbreak(traffic.WormSpec{Seed: 2}),
		traffic.PolymorphOutbreak(traffic.PolymorphSpec{Seed: 3}),
		traffic.IoTBotnet(traffic.IoTSpec{Seed: 4}),
		mail,
	}
	var out []view
	take := func(st *reasm.Stream) {
		if st == nil {
			return
		}
		n, last := len(st.Data), st.Flow.Analyzed
		if st.Finished && n > last || last == 0 && n >= 256 || last > 0 && n >= 2*last {
			st.Flow.Analyzed = n
			v := view{data: bytes.Clone(st.Data)}
			if st.Dgram {
				v.bounds = slices.Clone(st.Bounds)
			}
			out = append(out, v)
		}
	}
	for _, pkts := range scenarios {
		asm := reasm.New()
		for _, p := range pkts {
			switch {
			case p.HasTCP:
				take(asm.Feed(p))
			case p.HasUDP && len(p.Payload) > 0:
				out = append(out, view{data: bytes.Clone(p.Payload)})
				take(asm.FeedDatagram(p.Flow(), p.Payload, p.TimestampUS))
			}
		}
		// Drain hands streams back in map order; sort them so the views,
		// and the fuzz seeds sampled from them by index, are the same on
		// every run.
		drained := asm.Drain()
		slices.SortFunc(drained, func(a, b *reasm.Stream) int {
			return cmp.Or(a.Key.SrcIP.Compare(b.Key.SrcIP), a.Key.DstIP.Compare(b.Key.DstIP),
				cmp.Compare(a.Key.SrcPort, b.Key.SrcPort), cmp.Compare(a.Key.DstPort, b.Key.DstPort),
				cmp.Compare(a.Key.Proto, b.Key.Proto))
		})
		for _, st := range drained {
			take(st)
		}
	}
	return out
}

func TestExtractMatchesReferenceOnTraffic(t *testing.T) {
	views := trafficViews()
	sources := make(map[string]int)
	dgram := 0
	for _, v := range views {
		checkAgainstReference(t, v.data, v.bounds)
		for _, f := range ExtractDatagrams(v.data, v.bounds) {
			sources[f.Source]++
		}
		if len(v.bounds) > 1 {
			dgram++
		}
	}
	// The views must reach every extraction path that produces frames
	// on real traffic, or the comparison proves less than it claims.
	for _, src := range []string{"http-unicode", "http-url", "text-proto", "raw-binary", "smtp-attachment", "coap-block"} {
		if sources[src] == 0 {
			t.Errorf("no %s frame among %d traffic views (frames by source: %v)", src, len(views), sources)
		}
	}
	if dgram == 0 {
		t.Error("no multi-datagram view")
	}
}

// randomView builds payloads that reach every branch of the stage:
// protocol heads, text commands, filler runs near the thresholds,
// binary islands near the density rule, percent escapes and CoAP.
func randomView(r *rand.Rand) []byte {
	starts := []string{
		"GET /", "POST /cgi?", "HTTP/1.1 200 OK\r\nServer: ", "HTTP/0.9",
		"EHLO x\r\n", "HELO x\r\n", "MAIL FROM:<a@b>\r\nContent-Transfer-Encoding: base64\r\n\r\n",
		"USER ", "a001 LOGIN ", "  retr ", "APOP u ", "\u00a0UIDL\u2003", "xUSER USER ", "GET", "",
	}
	for _, m := range httpMethods {
		starts = append(starts, string(m))
	}
	pieces := []func() []byte{
		func() []byte { return bytes.Repeat([]byte{byte("AX\x90 %"[r.Intn(5)])}, 10+r.Intn(60)) },
		func() []byte { return []byte("%u9090%ucbd3%u7801") },
		func() []byte { return []byte(" HTTP/1.0\r\n") },
		func() []byte { return []byte("\r\n\r\n") },
		func() []byte { return []byte("Host: example.com\r\n") },
		func() []byte {
			return []byte(base64.StdEncoding.EncodeToString(exploits.NetskyBinary(r.Int63(), 96)) + "\r\n")
		},
		func() []byte {
			b := make([]byte, 1+r.Intn(40))
			r.Read(b)
			return b
		},
		func() []byte {
			// Text with a binary byte every k bytes: the density rule
			// at and around its threshold.
			k := 2 + r.Intn(4)
			b := make([]byte, 20+r.Intn(40))
			for i := range b {
				b[i] = 'a' + byte(r.Intn(26))
				if i%k == 0 {
					b[i] = "\x00\x7f\x80\xff\x1f\x0b"[r.Intn(6)]
				}
			}
			return b
		},
		func() []byte { return []byte{"\t\n\r "[r.Intn(4)]} },
	}
	b := []byte(starts[r.Intn(len(starts))])
	for n := r.Intn(8); n > 0; n-- {
		b = append(b, pieces[r.Intn(len(pieces))]()...)
	}
	return b
}

func TestExtractMatchesReferenceOnRandomViews(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 20000; i++ {
		checkAgainstReference(t, randomView(r), nil)
	}
	// Datagram flows: runs of CoAP block messages in random order with
	// retransmissions, some with a non-CoAP datagram among them.
	for i := 0; i < 500; i++ {
		data, bounds := randomCoAPFlow(r)
		checkAgainstReference(t, data, bounds)
	}
}

// randomCoAPFlow renders a shuffled Block1 transfer of random (often
// executable) content, 16 bytes a block, as one datagram flow.
func randomCoAPFlow(r *rand.Rand) (data []byte, bounds []int) {
	body := exploits.NetskyBinary(r.Int63(), 80+r.Intn(256))
	body = body[:min(len(body), 1024)]
	if r.Intn(3) == 0 {
		body = bytes.Repeat([]byte("text "), 10+r.Intn(40))
	}
	var msgs [][]byte
	for num := 0; num*16 < len(body); num++ {
		end := min(len(body), (num+1)*16)
		more := byte(0)
		if end < len(body) {
			more = 1
		}
		// CON PUT, token 0x7a, Block1 option (27) of one or two bytes.
		m := []byte{0x41, 0x03, byte(num), 0x00, 0x7a}
		if num < 16 {
			m = append(m, 0xd1, 27-13, byte(num)<<4|more<<3)
		} else {
			m = append(m, 0xd2, 27-13, byte(num>>4), byte(num)<<4|more<<3)
		}
		m = append(append(m, 0xff), body[num*16:end]...)
		msgs = append(msgs, m)
		if r.Intn(6) == 0 {
			msgs = append(msgs, m) // retransmission
		}
	}
	r.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	if r.Intn(4) == 0 {
		junk := make([]byte, 8+r.Intn(60))
		r.Read(junk)
		msgs = slices.Insert(msgs, r.Intn(len(msgs)+1), junk)
	}
	for _, m := range msgs {
		bounds = append(bounds, len(data))
		data = append(data, m...)
	}
	return data, bounds
}

// boundsFrom turns sizes, little-endian uint16 datagram lengths, into
// datagram start offsets over data (nil for a plain view).
func boundsFrom(data, sizes []byte) []int {
	if len(sizes) < 2 {
		return nil
	}
	bounds := []int{0}
	off := 0
	for i := 0; i+1 < len(sizes); i += 2 {
		off += int(binary.LittleEndian.Uint16(sizes[i:]))
		if off >= len(data) {
			break
		}
		bounds = append(bounds, off)
	}
	return bounds
}

// sizesOf is boundsFrom's inverse for a seed view.
func sizesOf(v view) []byte {
	var sizes []byte
	for i := 1; i < len(v.bounds); i++ {
		sizes = binary.LittleEndian.AppendUint16(sizes, uint16(v.bounds[i]-v.bounds[i-1]))
	}
	return sizes
}

// FuzzExtractReference checks Extract and ExtractDatagrams against the
// reference stage built from the oracles. Seeds are views of every
// internal/traffic scenario, each distinct datagram-flow view and a
// sample of the rest.
func FuzzExtractReference(f *testing.F) {
	for i, v := range trafficViews() {
		if len(v.bounds) > 1 || i%7 == 0 {
			f.Add(v.data, sizesOf(v))
		}
	}
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		checkAgainstReference(t, data, boundsFrom(data, sizes))
	})
}

func TestBinaryRegionMatchesWindow(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	alphabet := []byte("ab \t\r\n\x00\x08\x0b\x1f\x7e\x7f\x80\x89\x8a\x8d\xa0\xff")
	for i := 0; i < 200000; i++ {
		b := make([]byte, r.Intn(80))
		text := r.Intn(8) // share of plain letters, out of 8
		for j := range b {
			if r.Intn(8) < text {
				b[j] = 'a' + byte(r.Intn(26))
			} else {
				b[j] = alphabet[r.Intn(len(alphabet))]
			}
		}
		s, e := binaryRegion(b)
		ws, we := windowBinaryRegion(b)
		if s != ws || e != we {
			t.Fatalf("%q: binaryRegion = (%d, %d), sliding window = (%d, %d)", b, s, e, ws, we)
		}
	}
}

// TestNonTextEveryByte checks the word mask against isTextByte for
// every byte value in every lane, beside every other byte value.
func TestNonTextEveryByte(t *testing.T) {
	for v := 0; v < 256; v++ {
		for u := 0; u < 256; u++ {
			for lane := 0; lane < 8; lane++ {
				w := uint64(u)*lsb&^(0xff<<(8*lane)) | uint64(v)<<(8*lane)
				m := nonText(w)
				for j := 0; j < 8; j++ {
					want := uint64(0x80)
					if isTextByte(byte(w >> (8 * j))) {
						want = 0
					}
					if got := m >> (8 * j) & 0xff; got != want {
						t.Fatalf("nonText(%#016x) byte %d = %#02x, want %#02x", w, j, got, want)
					}
				}
			}
		}
	}
}

func TestRunAtLeastMatchesLongestRun(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for i := 0; i < 200000; i++ {
		var b []byte
		for n := r.Intn(8); n > 0; n-- {
			c := "AAB \x90"[r.Intn(5)]
			b = append(b, bytes.Repeat([]byte{c}, 1+r.Intn(60))...)
		}
		for _, least := range []int{2, 3, RunThreshold, RunThreshold * 2} {
			s, l := runAtLeast(b, least)
			ws, wl := LongestRun(b)
			if wl < least {
				ws, wl = 0, 0
			}
			if s != ws || l != wl {
				t.Fatalf("%q at least %d: runAtLeast = (%d, %d), LongestRun = (%d, %d)", b, least, s, l, ws, wl)
			}
		}
	}
}

// TestDispatchMatchesPrefixTests checks the first-byte head table
// against the prefix tests it replaced: a head matches exactly when one
// of them does, and the head's own prefix passes that same test.
func TestDispatchMatchesPrefixTests(t *testing.T) {
	class := func(b []byte) string {
		switch {
		case IsHTTPRequest(b):
			return "http request"
		case IsHTTPResponse(b):
			return "http response"
		case IsSMTP(b):
			return "smtp"
		}
		return ""
	}
	var probes []string
	for _, m := range httpMethods {
		probes = append(probes, string(m))
	}
	probes = append(probes, "HTTP/1.", "HTTP/0.9", "EHLO ", "HELO ", "MAIL FROM:")
	for _, p := range probes {
		for cut := 1; cut <= len(p); cut++ {
			for _, tail := range []string{"", " x", "\r\n", "X"} {
				b := []byte(p[:cut] + tail)
				for range 2 {
					got := ""
					for _, h := range heads[b[0]] {
						if bytes.HasPrefix(b, []byte(h.prefix)) {
							got = class([]byte(h.prefix))
						}
					}
					if want := class(b); got != want {
						t.Errorf("%q: dispatch %q, prefix tests %q", b, got, want)
					}
					b[0] ^= 0x20 // and in lower case, which is no head
				}
			}
		}
	}
}

func TestBlockOrderMatchesInsertionSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := r.Intn(300)
		nums := make([]uint32, n)
		for j := range nums {
			switch i % 3 {
			case 0: // random
				nums[j] = r.Uint32() >> 4
			case 1: // few numbers, many retransmissions
				nums[j] = uint32(r.Intn(8))
			default: // reversed, with duplicates
				nums[j] = uint32(n-j) / 2
			}
		}
		if got, want := blockOrder(nums, cmp.Compare[uint32]), insertionOrder(nums); !slices.Equal(got, want) {
			t.Fatalf("%v: blockOrder %v, insertion sort %v", nums, got, want)
		}
	}
}

// TestBlockOrderComparisons bounds the sort at the largest transfer a
// datagram flow can hold, in reverse: the insertion sort it replaced
// made n(n-1)/2 comparisons there (8 386 560).
func TestBlockOrderComparisons(t *testing.T) {
	n := reasm.MaxDgramBounds
	nums := make([]uint32, n)
	for i := range nums {
		nums[i] = uint32(n - 1 - i)
	}
	compares := 0
	counted := func(a, b uint32) int {
		compares++
		return cmp.Compare(a, b)
	}
	idx := blockOrder(nums, counted)
	if !slices.IsSortedFunc(idx, func(a, b int) int { return cmp.Compare(nums[a], nums[b]) }) {
		t.Fatal("blockOrder did not sort")
	}
	// n log2 n = 49 152 for n = 4 096.
	if limit := n * 12; compares > limit {
		t.Errorf("blockOrder made %d comparisons over %d reversed blocks, want at most %d", compares, n, limit)
	}
}
