package nids

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// frameFeeder is the frame-by-frame surface Engine and packetFeeder
// share.
type frameFeeder interface {
	ProcessFrame(frame []byte, tsUS uint64) error
	Alerts() []Alert
}

// packetFeeder offers each frame as a hand-built packet through
// Engine.Process and wrecks the packet — struct and payload — the
// moment Process returns: the engine consumes what it is offered, so
// nothing it queued may still point at either.
type packetFeeder struct{ *Engine }

func (f packetFeeder) ProcessFrame(frame []byte, tsUS uint64) error {
	p, err := netpkt.Parse(frame)
	if err != nil {
		return err
	}
	p.TimestampUS = tsUS
	f.Process(p)
	for i := range p.Payload {
		p.Payload[i] = 0xcc
	}
	*p = netpkt.Packet{}
	return nil
}

// TestProcessFrameReusedBuffer pins the ProcessFrame contract a capture
// loop relies on: the frame buffer belongs to the caller again as soon
// as the call returns. Twenty UDP exploit datagrams go through one
// buffer that is overwritten after every call; each must still alert,
// through Engine.ProcessFrame and through Engine.Process, every round.
// (An old batch front end queued the payload still aliasing the
// buffer, and lost alerts in most rounds.)
func TestProcessFrameReusedBuffer(t *testing.T) {
	const frames, rounds = 20, 50
	payload := exploits.Table1Exploits()[0].Payload
	var wire [frames][]byte
	for i := range wire {
		wire[i] = (&netpkt.Packet{
			SrcIP: netip.AddrFrom4([4]byte{10, 9, 0, byte(1 + i)}), DstIP: traffic.HoneypotAddr,
			SrcPort: uint16(4000 + i), DstPort: 4444,
			Proto: netpkt.ProtoUDP, HasUDP: true,
			Payload: payload,
		}).Serialize()
	}
	cfg := Config{Honeypots: []string{traffic.HoneypotAddr.String()}}
	feed := func(d frameFeeder, stop func()) int {
		buf := make([]byte, len(wire[0]))
		for i, w := range wire {
			n := copy(buf, w)
			if err := d.ProcessFrame(buf[:n], uint64(1000*i)); err != nil {
				t.Fatal(err)
			}
			clear(buf)
		}
		stop()
		return len(d.Alerts())
	}
	// One exploit datagram raises a shell-spawn and a return-address
	// alert.
	const want = 2 * frames
	for round := 0; round < rounds; round++ {
		e, err := NewEngine(EngineConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got := feed(e, e.Stop); got != want {
			t.Fatalf("round %d: Engine raised %d alerts from a reused buffer, want %d", round, got, want)
		}
		if e, err = NewEngine(EngineConfig{Config: cfg}); err != nil {
			t.Fatal(err)
		}
		if got := feed(packetFeeder{e}, e.Stop); got != want {
			t.Fatalf("round %d: Engine raised %d alerts from scribbled packets, want %d", round, got, want)
		}
	}
}

// settleGoroutines waits for the goroutine count to come back down to
// base (exits are asynchronous: a closed channel's reader may not have
// returned yet) and reports the count it settled at.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNoGoroutineLeak checks every way a detector ends: Stop, with the
// defaults and with every subsystem attached, and each NewEngine error
// path that has to unwind a half-built engine.
func TestNoGoroutineLeak(t *testing.T) {
	sensor := Config{Honeypots: []string{traffic.HoneypotAddr.String()}}
	push := PushUpstream{URLs: []string{"http://127.0.0.1:1/push"}}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"NewEngine(defaults)+Stop", func(t *testing.T) {
			e, err := NewEngine(EngineConfig{Config: sensor})
			if err != nil {
				t.Fatal(err)
			}
			e.Stop()
		}},
		{"NewEngine+Stop", func(t *testing.T) {
			e, err := NewEngine(EngineConfig{Config: sensor, Correlate: true, Lineage: true,
				IncidentExportDir: t.TempDir(), Push: push})
			if err != nil {
				t.Fatal(err)
			}
			e.Stop()
		}},
		{"Lineage without Correlate", func(t *testing.T) {
			if _, err := NewEngine(EngineConfig{Config: sensor, Lineage: true}); err == nil {
				t.Fatal("accepted")
			}
		}},
		{"Push without export dir", func(t *testing.T) {
			if _, err := NewEngine(EngineConfig{Config: sensor, Correlate: true, Push: push}); err == nil {
				t.Fatal("accepted")
			}
		}},
		{"IncidentExportDir without Correlate", func(t *testing.T) {
			if _, err := NewEngine(EngineConfig{Config: sensor, IncidentExportDir: t.TempDir()}); err == nil {
				t.Fatal("accepted")
			}
		}},
		{"negative DatagramIdle", func(t *testing.T) {
			if _, err := NewEngine(EngineConfig{Config: sensor, DatagramFlows: true, DatagramIdle: -time.Second}); err == nil {
				t.Fatal("accepted")
			}
		}},
		{"negative IncidentWindow", func(t *testing.T) {
			if _, err := NewEngine(EngineConfig{Config: sensor, Correlate: true, IncidentWindow: -time.Second}); err == nil {
				t.Fatal("accepted")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c.run(t)
			if n := settleGoroutines(base); n > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before, %d after\n%s", base, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
