package reasm

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"semnids/internal/netpkt"
)

func seg(seq uint32, flags uint8, payload string) *netpkt.Packet {
	return &netpkt.Packet{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		Proto: netpkt.ProtoTCP, HasTCP: true,
		SrcPort: 1234, DstPort: 80,
		Seq: seq, Flags: flags, Payload: []byte(payload),
	}
}

func TestInOrder(t *testing.T) {
	a := New()
	a.Feed(seg(100, netpkt.FlagSYN, "")) // SYN, seq consumed
	s := a.Feed(seg(101, netpkt.FlagACK, "hello "))
	if s == nil || string(s.Data) != "hello " {
		t.Fatalf("first segment: %+v", s)
	}
	s = a.Feed(seg(107, netpkt.FlagACK, "world"))
	if s == nil || string(s.Data) != "hello world" {
		t.Fatalf("second segment: %+v", s)
	}
	if s.Finished {
		t.Error("stream finished prematurely")
	}
}

func TestOutOfOrder(t *testing.T) {
	a := New()
	a.Feed(seg(100, netpkt.FlagSYN, ""))
	if s := a.Feed(seg(107, netpkt.FlagACK, "world")); s != nil {
		t.Fatalf("gap segment produced stream: %+v", s)
	}
	s := a.Feed(seg(101, netpkt.FlagACK, "hello "))
	if s == nil || string(s.Data) != "hello world" {
		t.Fatalf("after filling gap: %+v", s)
	}
}

func TestRetransmissionOverlap(t *testing.T) {
	a := New()
	a.Feed(seg(0, 0, "abcdef"))
	// Retransmit bytes 2..8 ("cdefGH"): only "GH" is new.
	s := a.Feed(seg(2, 0, "cdefGH"))
	if s == nil || string(s.Data) != "abcdefGH" {
		t.Fatalf("overlap merge: %+v", s)
	}
	// Pure duplicate produces no growth.
	if s := a.Feed(seg(0, 0, "abc")); s != nil {
		t.Errorf("duplicate produced stream: %+v", s)
	}
}

func TestFinMarksFinished(t *testing.T) {
	a := New()
	a.Feed(seg(0, 0, "payload"))
	s := a.Feed(seg(7, netpkt.FlagFIN, ""))
	if s == nil || !s.Finished {
		t.Fatalf("FIN: %+v", s)
	}
	if string(s.Data) != "payload" {
		t.Errorf("data after FIN: %q", s.Data)
	}
}

func TestRSTMarksFinished(t *testing.T) {
	a := New()
	a.Feed(seg(0, 0, "x"))
	s := a.Feed(seg(1, netpkt.FlagRST, ""))
	if s == nil || !s.Finished {
		t.Fatalf("RST: %+v", s)
	}
}

func TestSequenceWraparound(t *testing.T) {
	a := New()
	start := uint32(0xfffffffe)
	a.Feed(seg(start, 0, "ab")) // crosses the 2^32 boundary
	s := a.Feed(seg(0, 0, "cd"))
	if s == nil || string(s.Data) != "abcd" {
		t.Fatalf("wraparound: %+v", s)
	}
}

func TestNonTCPIgnored(t *testing.T) {
	a := New()
	p := &netpkt.Packet{Proto: netpkt.ProtoUDP, HasUDP: true, Payload: []byte("x")}
	if s := a.Feed(p); s != nil {
		t.Error("UDP fed into TCP reassembler produced a stream")
	}
}

func TestStreamCap(t *testing.T) {
	a := New()
	big := make([]byte, MaxStreamBytes/2+1000)
	a.Feed(seg(0, 0, string(big)))
	s := a.Feed(seg(uint32(len(big)), 0, string(big)))
	if s == nil {
		t.Fatal("no stream")
	}
	if len(s.Data) > MaxStreamBytes {
		t.Errorf("stream grew past cap: %d", len(s.Data))
	}
}

func TestClose(t *testing.T) {
	a := New()
	a.Feed(seg(0, 0, "data"))
	key := seg(0, 0, "").Flow()
	s := a.Close(key)
	if s == nil || string(s.Data) != "data" || !s.Finished {
		t.Fatalf("close: %+v", s)
	}
	if a.FlowCount() != 0 {
		t.Errorf("flow not removed")
	}
	if s := a.Close(key); s != nil {
		t.Error("double close returned a stream")
	}
}

func TestEviction(t *testing.T) {
	a := New()
	for i := 0; i < MaxFlows+10; i++ {
		p := seg(0, 0, "x")
		p.SrcPort = uint16(i)
		p.SrcIP = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		p.TimestampUS = uint64(i)
		a.Feed(p)
	}
	if a.FlowCount() > MaxFlows {
		t.Errorf("flow table exceeded cap: %d", a.FlowCount())
	}
}

// Property: feeding the segments of a message in any order reassembles
// the original message.
func TestReassemblyPermutationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	prop := func() bool {
		msg := make([]byte, 20+r.Intn(400))
		r.Read(msg)
		// Split into random segments.
		type piece struct {
			off, end int
		}
		var pieces []piece
		for off := 0; off < len(msg); {
			n := 1 + r.Intn(60)
			end := off + n
			if end > len(msg) {
				end = len(msg)
			}
			pieces = append(pieces, piece{off, end})
			off = end
		}
		r.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })

		if len(pieces) > MaxGapSegments {
			return true // out of modeled range
		}
		a := New()
		// SYN at seq 2^32-1 establishes stream base 0 regardless of
		// which data segment arrives first.
		a.Feed(seg(0xffffffff, netpkt.FlagSYN, ""))
		var last *Stream
		for _, pc := range pieces {
			s := a.Feed(seg(uint32(pc.off), 0, string(msg[pc.off:pc.end])))
			if s != nil {
				last = s
			}
		}
		return last != nil && bytes.Equal(last.Data, msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- Ptacek-Newsham inconsistent retransmission ---
//
// The evasion: send a byte range twice with different content, betting
// the NIDS and the end host pick different copies. These tests lock in
// the assembler's resolution: the first copy of every byte wins.

func TestInconsistentRetransmissionFirstWins(t *testing.T) {
	a := New()
	a.Feed(seg(0, 0, "GET /index.html"))
	// Full inconsistent retransmission of the same range.
	if s := a.Feed(seg(0, 0, "EVIL-INJECTED!!")); s != nil {
		t.Fatalf("pure rewrite reported growth: %+v", s)
	}
	s := a.Feed(seg(15, netpkt.FlagFIN, " HTTP/1.0"))
	if s == nil || string(s.Data) != "GET /index.html HTTP/1.0" {
		t.Fatalf("first-wins stream = %q, want original bytes", s.Data)
	}
}

func TestPartialOverlapRewrite(t *testing.T) {
	// A retransmission that overlaps the tail and extends past it: the
	// overlapped middle keeps its first copy, the extension lands.
	a := New()
	a.Feed(seg(0, 0, "abcdef"))
	s := a.Feed(seg(4, 0, "EFGH"))
	if s == nil {
		t.Fatal("extension produced no stream")
	}
	if got := string(s.Data); got != "abcdefGH" {
		t.Errorf("stream = %q, want abcdefGH", got)
	}
}

func TestOverlapThroughGapSegments(t *testing.T) {
	// The inconsistent copy arrives out of order (buffered as a gap
	// segment) and is resolved when the hole fills.
	a := New()
	a.Feed(seg(0, 0, "abc"))
	// Gap segment covering 6..12, plus an inconsistent copy of 3..9
	// also pending.
	a.Feed(seg(6, 0, "ghijkl"))
	a.Feed(seg(3, 0, "DEFGHI"))
	s := a.Feed(seg(12, netpkt.FlagFIN, "mno"))
	if s == nil {
		t.Fatal("close produced no stream")
	}
	// Pending segments drain in sequence order: DEFGHI lands first
	// (extending 3..9), then ghijkl's overlap of 6..9 keeps DEFGHI's
	// bytes and its tail 9..12 is appended.
	if got := string(s.Data); got != "abcDEFGHIjklmno" {
		t.Errorf("stream = %q, want abcDEFGHIjklmno", got)
	}
}

func TestOverwriteBeforeBase(t *testing.T) {
	// A retransmission reaching before the stream base rewrites
	// nothing: the bytes before the base are dropped, the rest overlap
	// held bytes and keep their first copy.
	a := New()
	a.Feed(seg(100, netpkt.FlagSYN, ""))
	a.Feed(seg(101, 0, "hello"))
	if s := a.Feed(seg(99, 0, "XXYYY")); s != nil {
		t.Fatalf("retransmission before the base reported growth: %+v", s)
	}
	s := a.Feed(seg(106, netpkt.FlagFIN, "!"))
	if s == nil || string(s.Data) != "hello!" {
		t.Fatalf("stream = %q, want hello!", s.Data)
	}
}
