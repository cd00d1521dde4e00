package nids

import (
	"bytes"
	"net/netip"
	"testing"

	"semnids/internal/exploits"
	"semnids/internal/polymorph"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
	"semnids/internal/traffic"
)

func TestFacadeEndToEnd(t *testing.T) {
	n, err := NewEngine(EngineConfig{Config: Config{
		Honeypots: []string{traffic.HoneypotAddr.String()},
		DarkSpace: []string{traffic.DarkNet.String()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	g := traffic.NewGen(1)
	exp := exploits.Table1Exploits()[0]
	for _, p := range g.ExploitAtHoneypot(netip.MustParseAddr("10.1.2.3"), exp.DstPort, exp.Payload) {
		if err := n.ProcessFrame(p.Serialize(), p.TimestampUS); err != nil {
			t.Fatal(err)
		}
	}
	n.Stop()
	found := false
	for _, a := range n.Alerts() {
		if a.Detection.Template == "linux-shell-spawn" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shell-spawn alert: %v", n.Alerts())
	}
	if n.Stats().Packets == 0 {
		t.Error("no packets counted")
	}
}

func TestFacadeConfigErrors(t *testing.T) {
	if _, err := NewEngine(EngineConfig{Config: Config{Honeypots: []string{"not-an-ip"}}}); err == nil {
		t.Error("bad honeypot accepted")
	}
	if _, err := NewEngine(EngineConfig{Config: Config{DarkSpace: []string{"10.0.0.0/99"}}}); err == nil {
		t.Error("bad prefix accepted")
	}
}

func TestFacadePcap(t *testing.T) {
	var buf bytes.Buffer
	spec := traffic.TraceSpec{Seed: 2, BenignSessions: 30, CodeRedInstances: 1}
	if _, err := traffic.WritePcap(&buf, spec); err != nil {
		t.Fatal(err)
	}
	n, err := NewEngine(EngineConfig{Config: Config{
		Honeypots: []string{traffic.HoneypotAddr.String()},
		DarkSpace: []string{traffic.DarkNet.String()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = n.Run(&buf)
	n.Stop()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, a := range n.Alerts() {
		if a.Detection.Template == "code-red-ii" {
			got++
		}
	}
	if got != 1 {
		t.Errorf("code-red-ii alerts = %d, want 1", got)
	}
}

// TestAnalyzeBytesFacade runs the host scan over a Netsky-sized
// binary: it must find the decryptor.
func TestAnalyzeBytesFacade(t *testing.T) {
	ds := AnalyzeBytes(exploits.NetskyBinary(1, 22*1024))
	found := false
	for _, d := range ds {
		if d.Template == "xor-decrypt-loop" {
			found = true
		}
	}
	if !found {
		t.Errorf("host scan missed the netsky decryptor: %v", ds)
	}
}

func TestAnalyzePayloadFacade(t *testing.T) {
	ds := AnalyzePayload(exploits.CodeRedIIRequest())
	found := false
	for _, d := range ds {
		if d.Template == "code-red-ii" {
			found = true
		}
	}
	if !found {
		t.Errorf("code-red-ii not found: %v", ds)
	}
}

// TestXorTemplateOnlyConfig is Table 2's first configuration: the
// xor-only template set misses an ADMmutate frame built on the
// alternate mov/or/and/not decoder, which the built-in set catches
// with admmutate-alt-decode-loop.
func TestXorTemplateOnlyConfig(t *testing.T) {
	eng := polymorph.NewADMmutate(777)
	payload := shellcode.ClassicPush().Bytes
	xorOnly := sem.NewAnalyzer(sem.XorOnlyTemplates())
	full := sem.NewAnalyzer(sem.BuiltinTemplates())
	for i := 0; i < 200; i++ {
		frame, meta, err := eng.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Scheme != polymorph.SchemeXnor {
			continue
		}
		if ds := xorOnly.AnalyzeFrame(frame); decryptorIn(ds) {
			t.Fatalf("xor-only set found a decryptor in an alternate-scheme frame: %v", ds)
		}
		ds := full.AnalyzeFrame(frame)
		for _, d := range ds {
			if d.Template == "admmutate-alt-decode-loop" {
				return
			}
		}
		t.Fatalf("built-in set missed the alternate decoder: %v", ds)
	}
	t.Fatal("no alternate-scheme ADMmutate frame in 200 draws")
}

func TestTemplatesDSLConfig(t *testing.T) {
	// A custom template set via the DSL: only shell spawns alert.
	dsl := "template custom-spawn severity=critical\n" +
		"  desc execve reached\n" +
		"  syscall 0xb\n"
	n, err := NewEngine(EngineConfig{Config: Config{
		Honeypots:    []string{traffic.HoneypotAddr.String()},
		TemplatesDSL: dsl,
	}})
	if err != nil {
		t.Fatal(err)
	}
	g := traffic.NewGen(9)
	exp := exploits.Table1Exploits()[0]
	for _, p := range g.ExploitAtHoneypot(netip.MustParseAddr("10.0.0.9"), exp.DstPort, exp.Payload) {
		if err := n.ProcessFrame(p.Serialize(), p.TimestampUS); err != nil {
			t.Fatal(err)
		}
	}
	n.Stop()
	found := false
	for _, a := range n.Alerts() {
		if a.Detection.Template == "custom-spawn" {
			found = true
		}
		if a.Detection.Template == "linux-shell-spawn" {
			t.Error("built-in template ran despite DSL replacement")
		}
	}
	if !found {
		t.Fatalf("custom template did not fire: %v", n.Alerts())
	}

	// Invalid DSL must be rejected at construction.
	if _, err := NewEngine(EngineConfig{Config: Config{TemplatesDSL: "template broken\n  bogus\n"}}); err == nil {
		t.Error("invalid DSL accepted")
	}
}

func TestEngineFacadeRunAndReplay(t *testing.T) {
	var buf bytes.Buffer
	spec := traffic.TraceSpec{Seed: 21, BenignSessions: 20, CodeRedInstances: 2}
	if _, err := traffic.WritePcap(&buf, spec); err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()

	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	if err := e.Run(bytes.NewReader(trace)); err != nil {
		t.Fatal(err)
	}
	crii := 0
	for _, a := range e.Alerts() {
		if a.Detection.Template == "code-red-ii" {
			crii++
		}
	}
	if crii == 0 {
		t.Fatal("no code-red-ii alerts from Run")
	}
	first := len(e.Alerts())

	// The engine survives its first trace: replay the same capture
	// paced by timestamps (at a high speed factor so the test stays
	// fast) and every alert fires again.
	if err := e.Replay(bytes.NewReader(trace), 1e6); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Alerts()); got != 2*first {
		t.Errorf("alerts after replay = %d, want %d", got, 2*first)
	}
	m := e.Stats()
	if m.Packets == 0 || m.StreamsAnalyzed == 0 {
		t.Errorf("engine metrics not populated: %+v", m)
	}
}

func TestEngineFacadeProcessFrameFlush(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	g := traffic.NewGen(7)
	exp := exploits.Table1Exploits()[0]
	for _, p := range g.ExploitAtHoneypot(netip.MustParseAddr("10.1.2.4"), exp.DstPort, exp.Payload) {
		if err := e.ProcessFrame(p.Serialize(), p.TimestampUS); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	found := false
	for _, a := range e.Alerts() {
		if a.Src == netip.MustParseAddr("10.1.2.4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("exploit not detected through frame-by-frame engine feed: %v", e.Alerts())
	}

	if _, err := NewEngine(EngineConfig{Config: Config{Honeypots: []string{"not-an-ip"}}}); err == nil {
		t.Error("bad honeypot address accepted")
	}
}
