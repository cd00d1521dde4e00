package extract

import (
	"bytes"
	"math/rand"
	"testing"
	"unicode"
	"unicode/utf8"
)

// oldTextProtocolCommand is the implementation textProtocolCommand
// replaced, kept as the reference for every payload it handled
// correctly: it allocated the field slice, located a tagged verb by its
// first occurrence in the payload (inside the tag, for "LOGIN1 LOGIN"),
// and cut rest at the verb's length rather than its end (mid-verb,
// behind leading blanks).
func oldTextProtocolCommand(payload []byte) (verb, rest []byte, ok bool) {
	line := payload
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return nil, nil, false
	}
	match := func(f []byte) bool {
		for _, v := range textProtocolVerbs {
			if bytes.EqualFold(f, v) {
				return true
			}
		}
		return false
	}
	switch {
	case match(fields[0]):
		return fields[0], payload[len(fields[0]):], true
	case len(fields) >= 2 && match(fields[1]):
		off := bytes.Index(payload, fields[1])
		return fields[1], payload[off+len(fields[1]):], true
	}
	return nil, nil, false
}

// scanTextProtocolCommand is the specification written out: split the
// first line at Unicode white space keeping each field's position, and
// accept a verb in the first field or in the second.
func scanTextProtocolCommand(payload []byte) (verb, rest []byte, ok bool) {
	line := payload
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	pos := 0
	for n := 0; n < 2; n++ {
		for pos < len(line) {
			r, size := utf8.DecodeRune(line[pos:])
			if !unicode.IsSpace(r) {
				break
			}
			pos += size
		}
		start := pos
		for pos < len(line) {
			r, size := utf8.DecodeRune(line[pos:])
			if unicode.IsSpace(r) {
				break
			}
			pos += size
		}
		if start == pos {
			break
		}
		for _, v := range textProtocolVerbs {
			if bytes.EqualFold(line[start:pos], v) {
				return line[start:pos], payload[pos:], true
			}
		}
	}
	return nil, nil, false
}

func TestTextProtocolCommand(t *testing.T) {
	cases := []struct {
		name, payload string
		verb, rest    string // verb "" = not a command
		oldWrong      bool   // the old implementation got this one wrong
	}{
		{name: "plain", payload: "USER anonymous\r\n", verb: "USER", rest: " anonymous\r\n"},
		{name: "lower case", payload: "retr 1\r\n", verb: "retr", rest: " 1\r\n"},
		{name: "no newline", payload: "PASS secret", verb: "PASS", rest: " secret"},
		{name: "bare verb", payload: "LIST", verb: "LIST", rest: ""},
		{name: "verb then newline", payload: "LIST\nUSER x", verb: "LIST", rest: "\nUSER x"},
		{name: "tagged", payload: "a001 LOGIN bob pw\r\n", verb: "LOGIN", rest: " bob pw\r\n"},
		{name: "tagged, tab separated", payload: "a001\tSELECT\tINBOX\r\n", verb: "SELECT", rest: "\tINBOX\r\n"},
		{name: "tagged, wide gap", payload: "a001 \t  FETCH 1\r\n", verb: "FETCH", rest: " 1\r\n"},
		{name: "non-ASCII white space", payload: "a1\u00a0LOGIN\u2003bob\r\n", verb: "LOGIN", rest: "\u2003bob\r\n"},
		{name: "verb third", payload: "a b LOGIN c\r\n"},
		{name: "verb on second line", payload: "hello\r\nUSER bob\r\n"},
		{name: "not a verb", payload: "HELLO world\r\n"},
		{name: "verb prefix only", payload: "USERS bob\r\n"},
		{name: "empty", payload: ""},
		{name: "blank line", payload: " \t\r\nUSER bob"},
		{name: "binary", payload: "\x90\x90\x90\x90 \xc2 LOGIN"},

		{name: "tag contains verb", payload: "LOGIN1 LOGIN bob pw\r\n", verb: "LOGIN", rest: " bob pw\r\n", oldWrong: true},
		{name: "tag ends in verb", payload: "xUSER USER bob\r\n", verb: "USER", rest: " bob\r\n", oldWrong: true},
		{name: "tag contains verb in other case", payload: "aFetchb FETCH 1:*\r\n", verb: "FETCH", rest: " 1:*\r\n"},
		{name: "leading blanks", payload: "  USER bob\r\n", verb: "USER", rest: " bob\r\n", oldWrong: true},
		{name: "leading tab, tagged", payload: "\ta001 LOGIN bob\r\n", verb: "LOGIN", rest: " bob\r\n"},
		{name: "verb folded through KELVIN SIGN", payload: "m\u212ad dir\r\n", verb: "m\u212ad", rest: " dir\r\n"},
		{name: "verb folded through LONG S", payload: "a1 U\u017fER bob\r\n", verb: "U\u017fER", rest: " bob\r\n"},
		{name: "non-ASCII field with a digit", payload: "U\u017fER1 bob\r\n"},
		{name: "ideographic space", payload: "a1\u3000USER\u3000bob", verb: "USER", rest: "\u3000bob"},
	}
	for _, c := range cases {
		payload := []byte(c.payload)
		verb, rest, ok := textProtocolCommand(payload)
		if ok != (c.verb != "") || string(verb) != c.verb || string(rest) != c.rest {
			t.Errorf("%s: verb %q rest %q ok %v, want verb %q rest %q", c.name, verb, rest, ok, c.verb, c.rest)
		}
		overb, orest, ook := oldTextProtocolCommand(payload)
		same := ook == ok && bytes.Equal(overb, verb) && bytes.Equal(orest, rest)
		if same == c.oldWrong {
			t.Errorf("%s: old implementation verb %q rest %q ok %v; expected it to be wrong: %v", c.name, overb, orest, ook, c.oldWrong)
		}
	}
}

// TestTextProtocolCommandAgainstScan checks textProtocolCommand against
// the written-out specification on random lines built from verbs,
// near-verbs, tags, every kind of white space and stray bytes.
func TestTextProtocolCommandAgainstScan(t *testing.T) {
	pieces := []string{
		"USER", "user", "LOGIN", "Login", "RETR", "xUSER", "LOGIN1", "USERS", "a001", "*", "bob",
		" ", "  ", "\t", "\r", "\r\n", "\n", "\v", "\u0085", "\u00a0", "\u2003", "\u3000",
		"\xc2", "\x85", "\xa0", "\xe2\x80", "\x90\x90", "\x00",
		// Runes that fold to verb letters, more white space, and
		// non-space runes and fragments behind white-space lead bytes.
		"MKD", "M\u212aD", "U\u017fER", "\u1680", "\u2028", "\u205f", "\u20ac", "\xe1\x9a", "\xe3",
	}
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 20000; i++ {
		var payload []byte
		for n := r.Intn(7); n > 0; n-- {
			payload = append(payload, pieces[r.Intn(len(pieces))]...)
		}
		verb, rest, ok := textProtocolCommand(payload)
		wverb, wrest, wok := scanTextProtocolCommand(payload)
		if ok != wok || !bytes.Equal(verb, wverb) || !bytes.Equal(rest, wrest) {
			t.Fatalf("%q: verb %q rest %q ok %v, specification says verb %q rest %q ok %v",
				payload, verb, rest, ok, wverb, wrest, wok)
		}
	}
}

func TestTextProtocolCommandAllocs(t *testing.T) {
	payloads := [][]byte{
		[]byte("USER anonymous\r\n"),
		[]byte("a001 LOGIN bob pw\r\n"),
		[]byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"),
		[]byte("220 mail.example.com ESMTP Postfix\r\n"),
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range payloads {
			textProtocolCommand(p)
		}
	})
	if allocs != 0 {
		t.Errorf("textProtocolCommand allocates %.1f objects per %d calls, want 0", allocs, len(payloads))
	}
}

// TestWhiteClass checks the byte table against unicode.IsSpace: every
// white space rune starts with a byte the table marks, class 1 exactly
// at the ASCII ones.
func TestWhiteClass(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		first := utf8.AppendRune(nil, r)[0]
		switch {
		case r < utf8.RuneSelf && (whiteClass[r] == 1) != unicode.IsSpace(r):
			t.Errorf("whiteClass[%#02x] = %d, IsSpace %v", r, whiteClass[r], unicode.IsSpace(r))
		case r >= utf8.RuneSelf && unicode.IsSpace(r) && whiteClass[first] != 2:
			t.Errorf("white space %U starts with %#02x, whiteClass %d", r, first, whiteClass[first])
		}
	}
	for c := utf8.RuneSelf; c < 0x100; c++ {
		if whiteClass[c] == 1 {
			t.Errorf("whiteClass[%#02x] = 1 above ASCII", c)
		}
	}
}

// TestExtractBenignAllocs pins extraction's cost on benign views that
// yield no frame: the dispatch, the protocol walkers and the scans
// allocate nothing.
func TestExtractBenignAllocs(t *testing.T) {
	views := map[string][]byte{
		"http request":  []byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: Mozilla/4.0\r\nAccept: */*\r\n\r\n"),
		"http response": []byte("HTTP/1.1 200 OK\r\nServer: Apache/1.3.33\r\nContent-Type: text/html\r\nContent-Length: 44\r\n\r\n<html><body><p>lorem ipsum</p></body></html>"),
		"smtp dialogue": []byte("EHLO client.example.org\r\nMAIL FROM:<user7@example.org>\r\nRCPT TO:<staff@example.com>\r\nDATA\r\nSubject: lorem ipsum\r\n\r\ndolor sit amet\r\n.\r\nQUIT\r\n"),
		"ftp command":   []byte("USER anonymous\r\nPASS guest7@example.org\r\nCWD /pub/mirrors\r\nLIST\r\nRETR file7.tar.gz\r\nQUIT\r\n"),
		"pop3 reply":    []byte("+OK POP3 ready\r\n+OK\r\n+OK 1 messages\r\n+OK message follows\r\nlorem ipsum dolor sit amet\r\n.\r\n+OK bye\r\n"),
	}
	for name, v := range views {
		if frames := Extract(v); len(frames) != 0 {
			t.Fatalf("%s: %d frames from a benign view", name, len(frames))
		}
		if allocs := testing.AllocsPerRun(100, func() { Extract(v) }); allocs != 0 {
			t.Errorf("%s: Extract allocates %.1f objects per view, want 0", name, allocs)
		}
	}
}

// TestVerbsAreLetters pins what isVerb's prefilter assumes.
func TestVerbsAreLetters(t *testing.T) {
	for _, v := range textProtocolVerbs {
		for _, c := range v {
			if c|0x20 < 'a' || c|0x20 > 'z' {
				t.Errorf("verb %q holds %q, not a letter", v, c)
			}
		}
	}
}
