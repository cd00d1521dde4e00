// Package extract implements the paper's binary data identification and
// extraction stage (Section 4.2). Given a reassembled application
// payload, it distinguishes acceptable protocol usage from suspicious
// repetition and binary content, locates the region likely to hold
// injected code, translates encoded forms (the %uXXXX Unicode encoding
// of Code Red II, %xx percent-encoding) into raw bytes, and emits
// binary frames for the disassembler.
//
// The point of this stage is efficiency: the disassembler and semantic
// analyzer are the slowest stages, so only plausible binary regions —
// not every payload byte — are forwarded.
package extract

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"unicode"
	"unicode/utf8"

	"semnids/internal/x86"
)

// Tunables (exposed for tests and ablation benchmarks).
const (
	// RunThreshold is the repetition length within a protocol field
	// considered "suspicious repetition" (the XXXX... filler that
	// overflows the victim buffer).
	RunThreshold = 24

	// MinBinaryWindow and BinaryDensity control raw binary-region
	// detection: a window of MinBinaryWindow bytes in which the
	// fraction of non-text bytes reaches BinaryDensity.
	MinBinaryWindow = 24
	BinaryDensity   = 0.30

	// denseCount is BinaryDensity as a count: the fewest non-text
	// bytes a MinBinaryWindow-byte window must hold to reach it
	// (7/24 < 0.30 <= 8/24).
	denseCount = 8

	// MaxFrameBytes caps one extracted frame.
	MaxFrameBytes = 1 << 16
)

// Frame is one extracted binary region.
type Frame struct {
	Data []byte
	// Source labels the extraction path for alerts and metrics:
	// "http-url", "http-unicode", "http-body", "raw-binary".
	Source string
	// Offset is where in the original payload the region began.
	Offset int

	// Code, when non-nil, is a decode cache over Data that the semantic
	// analyzer reuses instead of decoding the frame again. No pipeline
	// stage sets it (extraction never decodes), so the analyzer takes a
	// pooled scratch cache; only a caller that decoded the frame itself
	// can fill it in.
	Code *x86.DecodeCache
}

// isTextByte reports whether b is plausible protocol text.
func isTextByte(b byte) bool {
	return b == '\r' || b == '\n' || b == '\t' || (b >= 0x20 && b < 0x7f)
}

// Masks for reading a view eight bytes at a time: lsb repeats a byte
// value into every byte of a word, msb holds each byte's top bit.
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// nonText returns the top bit of every byte of w (eight view bytes,
// little-endian) that isTextByte rejects, and no other bit. Each test
// works on the bytes' low seven bits, so no carry crosses a byte.
func nonText(w uint64) uint64 {
	lo := w &^ msb
	// 0x80 and up, or 0x7f.
	m := w&msb | (lo+lsb)&msb
	// Below 0x20, unless tab, line feed or carriage return.
	if ctrl := ^(lo + 0x60*lsb) & msb; ctrl != 0 {
		ctrl &^= zeroBytes(lo^'\t'*lsb) | zeroBytes(lo^'\n'*lsb) | zeroBytes(lo^'\r'*lsb)
		m |= ctrl
	}
	return m
}

// zeroBytes returns the top bit of every zero byte of x, whose bytes
// are all below 0x80.
func zeroBytes(x uint64) uint64 { return ^(x + 0x7f*lsb) & msb }

// runAtLeast returns the first longest run of one repeated byte in
// data if that run is at least least (>= 2) bytes long, and length 0
// otherwise. It compares bytes h = least/2 apart at multiples of h: a
// run of least bytes or more covers two such positions, so only a pair
// of equal samples can be part of one, and each such candidate is
// verified and widened to its full run.
func runAtLeast(data []byte, least int) (start, length int) {
	h := least / 2
	for p := h; p < len(data); p += h {
		c := data[p]
		if data[p-h] != c {
			continue
		}
		q := p - 1
		for q > p-h && data[q] == c {
			q--
		}
		if q > p-h {
			continue // a different byte lies between the samples
		}
		a, b := p-h, p+1
		for a > 0 && data[a-1] == c {
			a--
		}
		for b < len(data) && data[b] == c {
			b++
		}
		if b-a >= least && b-a > length {
			start, length = a, b-a
		}
		// The next run starts at b or later; resume at the first
		// sample pair whose left sample lies there.
		p = (b + h - 1) / h * h
	}
	return start, length
}

// DecodePercentU translates the IIS %uXXXX Unicode encoding (and
// ordinary %xx percent-encoding) into raw bytes. %uXXXX becomes the
// two bytes of the UTF-16 code unit in little-endian order, which is
// how Code Red II smuggled x86 code and addresses through a URL.
// Bytes that are not part of a valid escape pass through unchanged.
func DecodePercentU(data []byte) []byte {
	out := make([]byte, 0, len(data))
	for i := 0; i < len(data); {
		if data[i] == '%' && i+5 < len(data) && (data[i+1] == 'u' || data[i+1] == 'U') {
			if v, ok := hex4(data[i+2 : i+6]); ok {
				out = append(out, byte(v), byte(v>>8))
				i += 6
				continue
			}
		}
		if data[i] == '%' && i+2 < len(data) {
			if v, ok := hex2(data[i+1 : i+3]); ok {
				out = append(out, byte(v))
				i += 3
				continue
			}
		}
		out = append(out, data[i])
		i++
	}
	return out
}

func hexVal(b byte) (byte, bool) {
	switch {
	case b >= '0' && b <= '9':
		return b - '0', true
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10, true
	case b >= 'A' && b <= 'F':
		return b - 'A' + 10, true
	}
	return 0, false
}

func hex2(b []byte) (uint16, bool) {
	h, ok1 := hexVal(b[0])
	l, ok2 := hexVal(b[1])
	if !ok1 || !ok2 {
		return 0, false
	}
	return uint16(h)<<4 | uint16(l), true
}

func hex4(b []byte) (uint16, bool) {
	var v uint16
	for _, c := range b[:4] {
		h, ok := hexVal(c)
		if !ok {
			return 0, false
		}
		v = v<<4 | uint16(h)
	}
	return v, true
}

// binaryRegion finds the first MinBinaryWindow-byte window whose
// non-text density reaches BinaryDensity, walks its start back over
// any non-text bytes just before it, and returns the region from there
// to the end of the view (injected code is followed by its own data).
// Returns (-1, -1) if no window is dense enough.
//
// A window is dense when it holds denseCount non-text bytes, so the
// scan visits only the non-text positions — eight view bytes per
// step — and keeps the last denseCount of them: the first position p
// whose denseCount-th predecessor (counting p) lies inside one window
// ending at p fixes the first dense window, starting at
// max(0, p-MinBinaryWindow+1).
func binaryRegion(data []byte) (start, end int) {
	n := len(data)
	if n < MinBinaryWindow {
		return -1, -1
	}
	var last [denseCount]int
	seen := uint(0)
	for i := 0; i < n; i += 8 {
		var m uint64
		if i+8 <= n {
			m = nonText(binary.LittleEndian.Uint64(data[i:]))
		} else {
			// The short tail: reread the view's last eight bytes
			// and drop the ones already scanned.
			j := n - 8
			m = nonText(binary.LittleEndian.Uint64(data[j:])) & (^uint64(0) << (8 * (i - j)))
			i = j
		}
		for ; m != 0; m &= m - 1 {
			p := i + bits.TrailingZeros64(m)>>3
			last[seen%denseCount] = p
			seen++
			if seen >= denseCount && p-last[seen%denseCount] < MinBinaryWindow {
				s := max(0, p-MinBinaryWindow+1)
				for s > 0 && !isTextByte(data[s-1]) {
					s--
				}
				return s, n
			}
		}
	}
	return -1, -1
}

// looksPercentEncoded reports whether data is dominated by percent
// escapes (as %u-smuggled binary is) rather than containing a stray
// '%' inside raw bytes.
func looksPercentEncoded(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	n := bytes.Count(data, []byte{'%'})
	return n >= 4 && n*8 >= len(data) // escapes cover a large share
}

// cap trims a frame to MaxFrameBytes.
func capFrame(b []byte) []byte {
	if len(b) > MaxFrameBytes {
		return b[:MaxFrameBytes]
	}
	return b
}

// protocolHead is a payload prefix that names a protocol, with the
// extractor that knows what that protocol should look like.
type protocolHead struct {
	prefix  string
	extract func(payload []byte) []Frame
}

// heads holds the protocol heads by first byte, so a view is tested
// only against the prefixes that can match it. No prefix is a prefix
// of another, so at most one matches.
var heads = func() (t [256][]protocolHead) {
	for _, h := range []protocolHead{
		// HTTP request methods.
		{"GET ", extractHTTP}, {"POST ", extractHTTP}, {"HEAD ", extractHTTP},
		{"PUT ", extractHTTP}, {"DELETE ", extractHTTP}, {"OPTIONS ", extractHTTP},
		{"TRACE ", extractHTTP}, {"SEARCH ", extractHTTP}, {"PROPFIND ", extractHTTP},
		// HTTP responses.
		{"HTTP/1.", extractHTTPResponse}, {"HTTP/0.9", extractHTTPResponse},
		// SMTP client dialogues.
		{"EHLO ", extractSMTP}, {"HELO ", extractSMTP}, {"MAIL FROM:", extractSMTP},
	} {
		t[h.prefix[0]] = append(t[h.prefix[0]], h)
	}
	return t
}()

// Extract is the stage entry point: it examines one reassembled
// payload and returns the binary frames worth disassembling. A benign
// well-formed request yields no frames at all — that is the pruning
// that makes the pipeline efficient.
//
// Protocol awareness is the core of this stage ("by noting what is
// expected in a protocol request, and what is abnormal"): binary
// content where the protocol declares binary content is expected — an
// HTTP response body carrying an image is conformant traffic, not an
// injected exploit — whereas binary content inside a protocol
// *request* line or an otherwise-textual command stream is abnormal
// and extracted.
func Extract(payload []byte) []Frame {
	if len(payload) == 0 {
		return nil
	}
	for _, h := range heads[payload[0]] {
		if len(payload) >= len(h.prefix) && string(payload[:len(h.prefix)]) == h.prefix {
			return h.extract(payload)
		}
	}
	if verb, rest, ok := textProtocolCommand(payload); ok {
		return extractTextCommand(payload, verb, rest)
	}
	return extractRaw(payload)
}

// textProtocolVerbs are command words of the line-oriented text
// protocols whose overflow exploits the paper's corpus targets.
var textProtocolVerbs = [][]byte{
	// FTP
	[]byte("USER"), []byte("PASS"), []byte("CWD"), []byte("RETR"),
	[]byte("STOR"), []byte("LIST"), []byte("SITE"), []byte("MKD"),
	// POP3
	[]byte("APOP"), []byte("UIDL"),
	// IMAP (tagged commands: the tag precedes the verb)
	[]byte("LOGIN"), []byte("SELECT"), []byte("FETCH"), []byte("APPEND"),
}

// whiteClass is 1 for the ASCII bytes unicode.IsSpace accepts, 2 for
// the first bytes of its non-ASCII runes, and 0 for all other bytes.
// It is built from the White_Space property IsSpace tests.
var whiteClass = func() (t [256]uint8) {
	mark := func(lo, hi, stride rune) {
		for r := lo; r <= hi; r += stride {
			if r < utf8.RuneSelf {
				t[r] = 1
			} else {
				t[utf8.AppendRune(nil, r)[0]] = 2
			}
		}
	}
	for _, r := range unicode.White_Space.R16 {
		mark(rune(r.Lo), rune(r.Hi), rune(r.Stride))
	}
	for _, r := range unicode.White_Space.R32 {
		mark(rune(r.Lo), rune(r.Hi), rune(r.Stride))
	}
	return t
}()

// spaceLen returns the length of the white space rune b starts with,
// or 0 if it starts with another rune.
func spaceLen(b []byte) int {
	switch whiteClass[b[0]] {
	case 1:
		return 1
	case 2:
		if r, size := utf8.DecodeRune(b); unicode.IsSpace(r) {
			return size
		}
	}
	return 0
}

// textProtocolCommand reports whether the payload starts with a known
// text-protocol command (optionally preceded by an IMAP tag, "a001
// LOGIN ..."), and returns the verb and the argument region behind it.
// Fields are separated by Unicode white space and the first line ends
// at '\n'. A rune is decoded only where whiteClass says a white space
// rune may start; a field is walked a byte at a time, which no
// multi-byte rune can misalign, as none of its later bytes starts one.
func textProtocolCommand(payload []byte) (verb, rest []byte, ok bool) {
	pos := 0
	for range 2 { // the verb is the first field, or the second behind a tag
		for pos < len(payload) && payload[pos] != '\n' {
			n := spaceLen(payload[pos:])
			if n == 0 {
				break
			}
			pos += n
		}
		start, high := pos, byte(0)
		for pos < len(payload) && (whiteClass[payload[pos]] == 0 || spaceLen(payload[pos:]) == 0) {
			high |= payload[pos]
			pos++
		}
		if start == pos {
			return nil, nil, false
		}
		if f := payload[start:pos]; isVerb(f, high < utf8.RuneSelf) {
			return f, payload[pos:], true
		}
	}
	return nil, nil, false
}

// isVerb reports whether field f (all ASCII if ascii) is one of
// textProtocolVerbs in any case. A verb is all letters, and an ASCII
// byte that is not a letter folds to nothing else; a non-ASCII field
// may still fold to a verb of another length (U+212A KELVIN SIGN is a
// 'k'), an ASCII one only to a verb of its own.
func isVerb(f []byte, ascii bool) bool {
	for _, c := range f {
		if c < utf8.RuneSelf && (c|0x20 < 'a' || c|0x20 > 'z') {
			return false
		}
	}
	for _, v := range textProtocolVerbs {
		if (!ascii || len(f) == len(v)) && bytes.EqualFold(f, v) {
			return true
		}
	}
	return false
}

// extractTextCommand applies protocol knowledge to a command stream:
// a conformant command has modest textual arguments; overlong filler
// or embedded binary in the argument is the overflow shape.
func extractTextCommand(payload, verb, rest []byte) []Frame {
	_ = verb
	// Binary anywhere in a text command stream is abnormal.
	if s, e := binaryRegion(rest); s >= 0 {
		off := len(payload) - len(rest) + s
		return []Frame{{Data: capFrame(rest[s:e]), Source: "text-proto", Offset: off}}
	}
	// Long repetition filler followed by content (even if the content
	// is mostly printable: alphanumeric shellcode exists).
	if start, length := runAtLeast(rest, RunThreshold); length > 0 {
		after := rest[start+length:]
		if len(after) >= MinBinaryWindow {
			off := len(payload) - len(rest) + start + length
			return []Frame{{Data: capFrame(after), Source: "text-proto", Offset: off}}
		}
	}
	return nil
}

// extractHTTPResponse scans only the status line and header block of a
// response: the declared body legitimately carries arbitrary binary
// (images, archives, executables), which the remote-exploit threat
// model does not target. Header anomalies (overlong repeated filler in
// a header value — server-side overflow responses) are still
// extracted.
func extractHTTPResponse(payload []byte) []Frame {
	headerEnd := bytes.Index(payload, []byte("\r\n\r\n"))
	if headerEnd < 0 {
		// No complete header block: scan what we have as headers.
		headerEnd = len(payload)
	}
	headers := payload[:headerEnd]
	if start, length := runAtLeast(headers, RunThreshold*2); length > 0 {
		after := headers[start+length:]
		if len(after) >= MinBinaryWindow {
			return []Frame{{Data: capFrame(after), Source: "http-resp-header", Offset: start + length}}
		}
	}
	return nil
}

// extractHTTP knows what a protocol request should look like and
// flags what is abnormal: overlong repeated filler in the request
// line, %u-encoded binary, or raw binary in the body.
func extractHTTP(payload []byte) []Frame {
	var frames []Frame

	lineEnd := bytes.IndexByte(payload, '\n')
	if lineEnd < 0 {
		lineEnd = len(payload)
	}
	reqLine := payload[:lineEnd]

	// Suspicious repetition in the request line (Code Red's XXXX...,
	// generic AAAA... overflows).
	if start, length := runAtLeast(reqLine, RunThreshold); length > 0 {
		// The injected content follows the filler run.
		after := reqLine[start+length:]
		// Strip a trailing " HTTP/1.x" protocol tag if present.
		if idx := bytes.LastIndex(after, []byte(" HTTP/")); idx >= 0 {
			after = after[:idx]
		}
		// Translate encoded forms only when the region actually looks
		// percent-encoded; otherwise raw binary containing accidental
		// "%41"-style sequences would be corrupted.
		decoded := after
		src := "http-url"
		if looksPercentEncoded(after) {
			decoded = DecodePercentU(after)
			if bytes.Contains(after, []byte("%u")) {
				src = "http-unicode"
			}
		}
		if len(decoded) > 0 {
			frames = append(frames, Frame{
				Data:   capFrame(decoded),
				Source: src,
				Offset: start + length,
			})
		}
	}

	// Binary content in the remainder (headers/body): overflows in
	// header values, POST bodies carrying exploit code.
	rest := payload[lineEnd:]
	if s, e := binaryRegion(rest); s >= 0 {
		frames = append(frames, Frame{
			Data:   capFrame(rest[s:e]),
			Source: "http-body",
			Offset: lineEnd + s,
		})
	}
	return frames
}

// extractRaw handles non-HTTP payloads: text protocols with injected
// binary (FTP/IMAP/POP3 overflows) and fully binary payloads.
func extractRaw(payload []byte) []Frame {
	s, e := binaryRegion(payload)
	if s < 0 {
		// No dense binary region. One more protocol-anomaly check:
		// a huge single-byte run in an otherwise textual command
		// (brute filler) with content after it.
		if start, length := runAtLeast(payload, RunThreshold*2); length > 0 {
			after := payload[start+length:]
			if len(after) >= MinBinaryWindow {
				return []Frame{{Data: capFrame(after), Source: "raw-binary", Offset: start + length}}
			}
		}
		return nil
	}
	return []Frame{{Data: capFrame(payload[s:e]), Source: "raw-binary", Offset: s}}
}
