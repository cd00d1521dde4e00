// Paper-experiment regression tests: compact versions of every
// Section 5 experiment, asserting the paper's qualitative results on
// every `go test` run. The full-scale versions live in
// cmd/papertables.
package nids

import (
	"net/netip"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/engine"
	"semnids/internal/exploits"
	"semnids/internal/polymorph"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
	"semnids/internal/traffic"
)

// TestTable1AllExploitsDetected: all eight shell-spawning exploits are
// detected; exactly the two port-binding payloads are noted as such.
func TestTable1AllExploitsDetected(t *testing.T) {
	exps := exploits.Table1Exploits()
	if len(exps) != 8 {
		t.Fatalf("%d exploits, want 8", len(exps))
	}
	binds := 0
	for _, e := range exps {
		got := map[string]bool{}
		for _, d := range AnalyzePayload(e.Payload) {
			got[d.Template] = true
		}
		if !got["linux-shell-spawn"] {
			t.Errorf("%s: not detected", e.Name)
		}
		if got["port-bind-shell"] {
			binds++
			if !e.BindsPort {
				t.Errorf("%s: spurious port-bind note", e.Name)
			}
		} else if e.BindsPort {
			t.Errorf("%s: port binding missed", e.Name)
		}
	}
	if binds != 2 {
		t.Errorf("%d port-binding exploits noted, want 2", binds)
	}
}

// TestTable1NetskyDetected: the virus-sized binaries are flagged by the
// decryption-loop template in host-scan mode.
func TestTable1NetskyDetected(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		found := false
		for _, d := range AnalyzeBytes(exploits.NetskyBinary(seed, 22*1024)) {
			if d.Template == "xor-decrypt-loop" {
				found = true
			}
		}
		if !found {
			t.Errorf("netsky variant %d not detected", seed)
		}
	}
}

// TestTable2DetectionStep: the xor-only template set misses exactly
// the alternate-scheme ADMmutate samples; the full set catches all.
func TestTable2DetectionStep(t *testing.T) {
	payload := shellcode.ClassicPush().Bytes
	eng := polymorph.NewADMmutate(777)
	xorOnly := sem.NewAnalyzer(sem.XorOnlyTemplates())
	full := sem.NewAnalyzer(sem.BuiltinTemplates())
	const n = 40
	xorHits, fullHits, alt := 0, 0, 0
	for i := 0; i < n; i++ {
		s, meta, err := eng.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Scheme == polymorph.SchemeXnor {
			alt++
		}
		if decryptorIn(xorOnly.AnalyzeFrame(s)) {
			xorHits++
		}
		if decryptorIn(full.AnalyzeFrame(s)) {
			fullHits++
		}
	}
	if fullHits != n {
		t.Errorf("full template set detected %d/%d", fullHits, n)
	}
	if xorHits != n-alt {
		t.Errorf("xor-only set detected %d, want exactly the %d xor-scheme samples", xorHits, n-alt)
	}
	if alt == 0 {
		t.Error("no alternate-scheme samples drawn (check AltProb)")
	}
}

// TestTable2Clet: every Clet sample is caught by the xor template.
func TestTable2Clet(t *testing.T) {
	payload := shellcode.ClassicPush().Bytes
	eng := polymorph.NewClet(888)
	a := sem.NewAnalyzer(sem.XorOnlyTemplates())
	for i := 0; i < 40; i++ {
		s, _, err := eng.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !decryptorIn(a.AnalyzeFrame(s)) {
			t.Fatalf("clet sample %d missed", i)
		}
	}
}

// TestTable2IISASP: the iis-asp-overflow decryption routine is found.
func TestTable2IISASP(t *testing.T) {
	found := false
	for _, d := range AnalyzePayload(exploits.IISASPOverflow().Payload) {
		if d.Template == "xor-decrypt-loop" {
			found = true
		}
	}
	if !found {
		t.Fatal("iis-asp-overflow decryptor not detected")
	}
}

// TestTable3CodeRedII: detected instance counts equal planted counts,
// per trace, for a reduced version of the 12 traces.
func TestTable3CodeRedII(t *testing.T) {
	instances := []int{3, 1, 4, 2, 5, 2, 1, 3, 6, 2, 4, 3}
	for i, actual := range instances {
		cfg := engine.Config{Classify: classify.Config{
			Honeypots:     []netip.Addr{traffic.HoneypotAddr},
			DarkSpace:     []netip.Prefix{traffic.DarkNet},
			ScanThreshold: 3,
		}}
		n := engine.New(cfg)
		for _, p := range traffic.Synthesize(traffic.TraceSpec{
			Seed: int64(100 + i), BenignSessions: 60, CodeRedInstances: actual,
		}) {
			n.Process(p)
		}
		n.Stop()
		srcs := map[netip.Addr]bool{}
		for _, a := range n.Alerts() {
			if a.Detection.Template == "code-red-ii" {
				srcs[a.Src] = true
			}
		}
		if len(srcs) != actual {
			t.Errorf("trace %d: detected %d, want %d", i+1, len(srcs), actual)
		}
	}
}

// TestFalsePositiveZero: classification disabled, every payload of a
// benign corpus analyzed, zero alerts.
func TestFalsePositiveZero(t *testing.T) {
	n, err := NewEngine(EngineConfig{Config: Config{DisableClassification: true}})
	if err != nil {
		t.Fatal(err)
	}
	g := traffic.NewGen(4242)
	sessions := 300
	if testing.Short() {
		sessions = 50
	}
	for i := 0; i < sessions; i++ {
		for _, p := range g.BenignSession() {
			n.Process(p)
		}
	}
	n.Stop()
	if alerts := n.Alerts(); len(alerts) != 0 {
		t.Fatalf("false positives: %v", alerts)
	}
	if n.Stats().Packets == 0 {
		t.Fatal("no packets processed")
	}
}

func decryptorIn(ds []Detection) bool {
	for _, d := range ds {
		if d.Template == "xor-decrypt-loop" || d.Template == "admmutate-alt-decode-loop" {
			return true
		}
	}
	return false
}
