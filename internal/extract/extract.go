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

	"semnids/internal/x86"
)

// Tunables (exposed for tests and ablation benchmarks).
const (
	// RunThreshold is the repetition length within a protocol field
	// considered "suspicious repetition" (the XXXX... filler that
	// overflows the victim buffer).
	RunThreshold = 24

	// MinBinaryWindow and BinaryDensity control raw binary-region
	// detection: a window of at least MinBinaryWindow bytes in which
	// the fraction of non-text bytes exceeds BinaryDensity.
	MinBinaryWindow = 24
	BinaryDensity   = 0.30

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
	// analyzer reuses instead of decoding the frame again. Extraction
	// leaves it nil, and the analyzer then takes a pooled scratch cache.
	Code *x86.DecodeCache
}

// isTextByte reports whether b is plausible protocol text.
func isTextByte(b byte) bool {
	return b == '\r' || b == '\n' || b == '\t' || (b >= 0x20 && b < 0x7f)
}

// LongestRun finds the longest run of a single repeated byte in data,
// returning its start and length.
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

// binaryRegion finds the first window where non-text density exceeds
// BinaryDensity, extending it to the end of contiguous binary-ish
// content. Returns (-1, -1) if none.
func binaryRegion(data []byte) (start, end int) {
	n := len(data)
	if n < MinBinaryWindow {
		return -1, -1
	}
	// Sliding window count of non-text bytes.
	w := MinBinaryWindow
	count := 0
	for i := 0; i < w; i++ {
		if !isTextByte(data[i]) {
			count++
		}
	}
	for i := 0; ; i++ {
		if float64(count)/float64(w) >= BinaryDensity {
			// Found a dense window at i; walk start back to the
			// first non-text byte and extend to the end of payload
			// (injected code is followed by its own data).
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

// httpMethods recognized by the request parser.
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
	if IsHTTPRequest(payload) {
		return extractHTTP(payload)
	}
	if IsHTTPResponse(payload) {
		return extractHTTPResponse(payload)
	}
	if IsSMTP(payload) {
		return extractSMTP(payload)
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
	[]byte("APOP"), []byte("RETR"), []byte("UIDL"),
	// IMAP (tagged commands: the tag precedes the verb)
	[]byte("LOGIN"), []byte("SELECT"), []byte("FETCH"), []byte("APPEND"),
}

// textProtocolCommand reports whether the payload starts with a known
// text-protocol command (optionally preceded by an IMAP tag, "a001
// LOGIN ..."), and returns the verb and the argument region behind it.
func textProtocolCommand(payload []byte) (verb, rest []byte, ok bool) {
	line := payload
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	// end is where the previous field stopped. Only white space lies
	// between it and the next field, and a verb is all letters, so a
	// verb's first occurrence from end is the field itself — not the
	// same letters inside the tag ("LOGIN1 LOGIN ...").
	end, n := 0, 0
	for f := range bytes.FieldsSeq(line) {
		end += bytes.Index(payload[end:], f) + len(f)
		for _, v := range textProtocolVerbs {
			if bytes.EqualFold(f, v) {
				return f, payload[end:], true
			}
		}
		if n++; n == 2 {
			break // the verb is the first field, or the second behind a tag
		}
	}
	return nil, nil, false
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
	if start, length := LongestRun(rest); length >= RunThreshold {
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
	if start, length := LongestRun(headers); length >= RunThreshold*2 {
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
	if start, length := LongestRun(reqLine); length >= RunThreshold {
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
