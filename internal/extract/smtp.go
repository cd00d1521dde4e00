package extract

import (
	"bytes"
	"encoding/base64"
)

// Email-worm extraction (the paper's stated future work, Section 6:
// "additional useful templates ... to detect additional families of
// malicious traffic (i.e. email worms)"). Mass-mailing worms of the
// era (Netsky, MyDoom, Bagle) propagate as base64-encoded executable
// attachments inside SMTP DATA sections. This extractor locates MIME
// attachments in SMTP payloads, decodes them, and forwards executable
// content to the semantic stages, where the same decryption-loop
// templates that catch packed viruses on disk catch them in flight.

// smtpAttachmentMarkers indicate an encoded attachment follows.
var smtpAttachmentMarkers = [][]byte{
	[]byte("Content-Transfer-Encoding: base64"),
	[]byte("Content-Transfer-Encoding:base64"),
}

// MaxAttachmentBytes caps one decoded attachment.
const MaxAttachmentBytes = 1 << 20

// extractSMTP pulls base64 attachments out of an SMTP dialogue and
// decodes them. Only content that plausibly contains executable code
// (an MZ/PE header or sufficient binary density) is forwarded.
func extractSMTP(payload []byte) []Frame {
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
		// The encoded body starts after the header block's blank line.
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
				if looksExecutable(decoded) {
					frames = append(frames, Frame{
						Data:   decoded,
						Source: "smtp-attachment",
						Offset: base + idx + bodyStart + 4,
					})
				}
			}
		}
		advance := idx + bodyStart + 4 + encLen
		base += advance
		rest = rest[advance:]
	}
}

// base64Run returns the leading run of base64 alphabet content in
// body (line breaks included in the count but stripped from the
// returned bytes), stopping at the first non-base64 line.
func base64Run(body []byte) (clean []byte, rawLen int) {
	i := 0
	for i < len(body) {
		c := body[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z',
			c >= '0' && c <= '9', c == '+', c == '/', c == '=':
			clean = append(clean, c)
			i++
		case c == '\r' || c == '\n':
			i++
		default:
			// End of the encoded region.
			rawLen = i
			// Trim to a multiple of 4 so the decoder accepts it.
			clean = clean[:len(clean)-len(clean)%4]
			return clean, rawLen
		}
	}
	clean = clean[:len(clean)-len(clean)%4]
	return clean, len(body)
}

// looksExecutable reports whether decoded attachment content plausibly
// contains machine code: a DOS/PE header or a high binary density.
func looksExecutable(b []byte) bool {
	if len(b) < MinBinaryWindow {
		return false
	}
	if b[0] == 'M' && b[1] == 'Z' {
		return true
	}
	if bytes.HasPrefix(b, []byte("\x7fELF")) {
		return true
	}
	s, _ := binaryRegion(b)
	return s >= 0
}
