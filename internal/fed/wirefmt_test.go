package fed

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"

	"semnids/internal/core"
	"semnids/internal/incident"
)

// synthExport builds a deterministic evidence export by driving a
// real correlator with seeded random events — the generator property
// tests and fuzz seeds share.
func synthExport(t testing.TB, sensor string, seed int64, events int) *incident.EvidenceExport {
	t.Helper()
	c := correlatorFromEvents(t, synthEvents(seed, events))
	defer c.Stop()
	return c.Export(sensor)
}

func synthEvents(seed int64, n int) []core.Event {
	rng := rand.New(rand.NewSource(seed))
	host := func(i int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
	}
	// Enough distinct payloads that per-(victim, fingerprint) attacker
	// fan-in stays within maxAttackersPerFingerprint: the determinism
	// contract is scoped to evidence within the configured caps, and
	// that is what the properties assert.
	fps := make([]core.Fingerprint, 16)
	for i := range fps {
		fps[i] = core.FingerprintOf([]byte(fmt.Sprintf("payload-%d", i)))
	}
	sev := []string{"low", "medium", "high"}
	var evs []core.Event
	for i := 0; i < n; i++ {
		src, dst := host(rng.Intn(12)), host(20+rng.Intn(12))
		ts := uint64(1000 + rng.Intn(2_000_000))
		switch rng.Intn(4) {
		case 0, 1:
			evs = append(evs, core.Event{Kind: core.EventFlowOpen, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 1234, DstPort: 80})
		case 2:
			evs = append(evs, core.Event{
				Kind: core.EventAlert, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 1234, DstPort: 80,
				Fingerprint: fps[rng.Intn(len(fps))], Template: "code-red-ii", Severity: sev[rng.Intn(len(sev))],
			})
		case 3:
			evs = append(evs, core.Event{
				Kind: core.EventFingerprint, TimestampUS: ts, Src: dst, Dst: host(40 + rng.Intn(8)),
				SrcPort: 4321, DstPort: 80, Fingerprint: fps[rng.Intn(len(fps))],
			})
		}
	}
	return evs
}

func correlatorFromEvents(t testing.TB, evs []core.Event) *incident.Correlator {
	t.Helper()
	c := incident.New(incident.Config{Params: incident.Params{WindowUS: 30e6, FanoutThreshold: 3}})
	for _, ev := range evs {
		c.Publish(ev)
	}
	c.Flush()
	return c
}

// encode renders an export to wire bytes.
func encode(t testing.TB, ex *incident.EvidenceExport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteExport(&buf, ex); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireRoundTrip checks encode → decode is lossless and the
// encoding is canonical (same evidence, same bytes).
func TestWireRoundTrip(t *testing.T) {
	ex := synthExport(t, "sensor-a", 1, 400)
	if len(ex.Sources) == 0 {
		t.Fatal("synthetic export is empty")
	}
	data := encode(t, ex)
	got, err := ReadExport(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ex) {
		t.Fatalf("round trip diverged:\n got: %+v\nwant: %+v", got, ex)
	}
	if again := encode(t, got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding a decoded export changed the bytes")
	}
}

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/export.golden with the current encoder's bytes")

const wireGoldenPath = "testdata/export.golden"

// goldenExport is the fixed export behind testdata/export.golden:
// correlator-derived sources, hand-built classifier records and a
// synthetic lineage set, so every record kind the wire carries appears.
func goldenExport(t testing.TB) *incident.EvidenceExport {
	ex := synthLineage(synthExport(t, "sensor-a", 9, 120), "sensor-a", 9, 6)
	ex.Classifier = []incident.ClassifierEvidence{
		{Src: netip.MustParseAddr("10.1.0.3"), SuspiciousUntilUS: 4_000_000},
		{Src: netip.MustParseAddr("10.1.0.7"), Dark: []netip.Addr{
			netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.9"),
		}},
	}
	return ex
}

// TestWireGolden pins the segment bytes across builds: WriteExport of
// the fixed export must reproduce testdata/export.golden byte for byte,
// and ReadExport of the golden must give back the export. A change
// here is a wire format change, which older readers and aggregators
// would see.
func TestWireGolden(t *testing.T) {
	ex := goldenExport(t)
	data := encode(t, ex)
	if *updateWireGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("WriteExport bytes differ from %s:\n got: %.300s\nwant: %.300s", wireGoldenPath, data, want)
	}
	got, err := ReadExport(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ex) {
		t.Fatalf("ReadExport of %s diverged:\n got: %+v\nwant: %+v", wireGoldenPath, got, ex)
	}
}

// TestWireRejects locks the decoder's failure modes: truncation at
// every prefix must error (or still yield the committed state), and
// version skew, bad prefixes and oversized claims must error cleanly.
func TestWireRejects(t *testing.T) {
	ex := synthExport(t, "sensor-a", 2, 200)
	data := encode(t, ex)

	// Truncations strictly inside the single checkpoint: no committed
	// state must survive.
	for _, cut := range []int{0, 1, 5, len(data) / 2, len(data) - 1} {
		if _, err := ReadExport(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(data))
		}
	}

	// A truncated *second* checkpoint after a committed first must fall
	// back to the committed one.
	var two bytes.Buffer
	two.Write(data)
	two.Write(data[100 : len(data)-7]) // garbage tail resembling more records
	got, err := ReadExport(bytes.NewReader(two.Bytes()))
	if err != nil {
		t.Fatalf("committed checkpoint not recovered past a corrupt tail: %v", err)
	}
	if !reflect.DeepEqual(got.Sources, ex.Sources) {
		t.Fatal("corrupt tail changed the recovered evidence")
	}

	for name, in := range map[string]string{
		"bad-prefix":      "x7 {}\n",
		"huge-claim":      "9999999 {}\n",
		"oversized-claim": "99999999 {}\n",
		"zero-claim":      "0 \n",
		"not-json":        "3 {{{\n",
		"no-header":       `14 {"k":"ckpt"}` + "\n",
	} {
		if _, err := ReadExport(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}

	var skew bytes.Buffer
	bw := bufio.NewWriter(&skew)
	if err := writeRecord(bw, &frameEncoder{}, &wireRecord{Kind: kindHeader, Hdr: &header{Format: FormatName, Version: 99}}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if _, err := ReadExport(bytes.NewReader(skew.Bytes())); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew error = %v, want version complaint", err)
	}

	// A well-framed header carrying correlation parameters no
	// correlator could run (zeros) must be rejected at the decoder —
	// letting it through would crash or silently default downstream
	// derivation.
	var zeroed bytes.Buffer
	bw = bufio.NewWriter(&zeroed)
	if err := writeRecord(bw, &frameEncoder{}, &wireRecord{Kind: kindHeader, Hdr: &header{Format: FormatName, Version: Version}}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if _, err := ReadExport(bytes.NewReader(zeroed.Bytes())); err == nil || !strings.Contains(err.Error(), "correlation parameters") {
		t.Errorf("zeroed-parameter header error = %v, want parameter complaint", err)
	}

	// One row per correlation parameter: a header with only that one
	// zeroed is refused by ReadExport, and a segment differing from the
	// state's in only that one is refused by State.Fold with ErrSkew.
	for _, row := range []struct {
		name string
		set  func(p *incident.Params, v int)
	}{
		{"WindowUS", func(p *incident.Params, v int) { p.WindowUS = uint64(v) }},
		{"FanoutThreshold", func(p *incident.Params, v int) { p.FanoutThreshold = v }},
		{"MaxDestinations", func(p *incident.Params, v int) { p.Limits.MaxDestinations = v }},
		{"MaxAlerts", func(p *incident.Params, v int) { p.Limits.MaxAlerts = v }},
		{"MaxFingerprints", func(p *incident.Params, v int) { p.Limits.MaxFingerprints = v }},
		{"MaxVictims", func(p *incident.Params, v int) { p.Limits.MaxVictims = v }},
	} {
		t.Run(row.name, func(t *testing.T) {
			zero := *ex
			row.set(&zero.Params, 0)
			if _, err := ReadExport(bytes.NewReader(encode(t, &zero))); err == nil || !strings.Contains(err.Error(), "correlation parameters") {
				t.Errorf("header with %s zeroed: error = %v, want parameter complaint", row.name, err)
			}

			skewed := *ex
			row.set(&skewed.Params, 1)
			st := NewState()
			if _, err := st.Fold(data); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Fold(encode(t, &skewed)); !errors.Is(err, ErrSkew) {
				t.Errorf("segment with another %s: Fold error = %v, want ErrSkew", row.name, err)
			}
		})
	}
}

// multiHopExports splits a six-link propagation chain across three
// sensors — host i's own traffic tapped at sensor i%3 — so every link
// straddles a cut and the last victim's witnesses travel six links to
// reach the chain's root.
func multiHopExports(t testing.TB) (a, b, c *incident.EvidenceExport) {
	t.Helper()
	fp := core.FingerprintOf([]byte("chain payload"))
	host := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 2, 0, byte(i)}) }
	var evs [3][]core.Event
	for i := 0; i < 6; i++ {
		ts := uint64(1000 + 10_000*i)
		evs[i%3] = append(evs[i%3], core.Event{
			Kind: core.EventAlert, TimestampUS: ts, Src: host(i), Dst: host(i + 1), SrcPort: 1234, DstPort: 80,
			Fingerprint: fp, Template: "code-red-ii", Severity: "high",
		})
		evs[(i+1)%3] = append(evs[(i+1)%3], core.Event{
			Kind: core.EventFingerprint, TimestampUS: ts + 5000, Src: host(i + 1), Dst: host(100 + i),
			SrcPort: 4321, DstPort: 80, Fingerprint: fp,
		})
	}
	var out [3]*incident.EvidenceExport
	for s, name := range []string{"sensor-a", "sensor-b", "sensor-c"} {
		c := correlatorFromEvents(t, evs[s])
		out[s] = c.Export(name)
		c.Stop()
	}
	return out[0], out[1], out[2]
}

// TestMergeProperties is the satellite property suite:
// Merge(A,B)==Merge(B,A), Merge(A,A)==A, and associativity across
// three sensors — all compared on canonical wire bytes, the strongest
// equality the system defines — over seeded single-hop exports and a
// propagation chain split across the three sensors.
func TestMergeProperties(t *testing.T) {
	type triple struct {
		name    string
		a, b, c *incident.EvidenceExport
	}
	var inputs []triple
	for seed := int64(1); seed <= 5; seed++ {
		inputs = append(inputs, triple{fmt.Sprintf("seed %d", seed),
			synthExport(t, "sensor-a", seed, 300),
			synthExport(t, "sensor-b", seed+100, 300),
			synthExport(t, "sensor-c", seed+200, 300)})
	}
	a, b, c := multiHopExports(t)
	inputs = append(inputs, triple{"multi-hop", a, b, c})

	for _, in := range inputs {
		a, b, c := in.a, in.b, in.c
		ab := mustMerge(t, a, b)
		if !bytes.Equal(encode(t, ab), encode(t, mustMerge(t, b, a))) {
			t.Fatalf("%s: Merge(A,B) != Merge(B,A)", in.name)
		}
		if !bytes.Equal(encode(t, mustMerge(t, a, a)), encode(t, a)) {
			t.Fatalf("%s: Merge(A,A) != A", in.name)
		}
		abc := mustMerge(t, ab, c)
		if !bytes.Equal(encode(t, abc), encode(t, mustMerge(t, a, mustMerge(t, b, c)))) {
			t.Fatalf("%s: Merge not associative", in.name)
		}
		if !bytes.Equal(encode(t, mustMerge(t, abc, abc)), encode(t, abc)) {
			t.Fatalf("%s: Merge(ABC,ABC) != ABC", in.name)
		}
		if got, want := fmt.Sprint(abc.Sensors), "[sensor-a sensor-b sensor-c]"; got != want {
			t.Fatalf("%s: merged sensors = %s, want %s", in.name, got, want)
		}
	}
}

// TestMergeSplitEvents is the event-level splits property: one event
// stream through a single correlator vs. the same stream partitioned
// across two sensor correlators then merged — identical derived
// incidents, byte-compared on the canonical wire encoding of the
// evidence and on the rendered incident list.
func TestMergeSplitEvents(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		evs := synthEvents(seed, 600)

		solo := correlatorFromEvents(t, evs)
		want := fmt.Sprint(solo.Incidents())
		soloEx := solo.Export("solo")
		solo.Stop()

		// Alternate events between the two sensors — the harshest
		// split: every source's evidence, and both halves of every
		// propagation link, end up scattered across both.
		var aEvs, bEvs []core.Event
		for i, ev := range evs {
			if i%2 == 0 {
				aEvs = append(aEvs, ev)
			} else {
				bEvs = append(bEvs, ev)
			}
		}
		ca := correlatorFromEvents(t, aEvs)
		cb := correlatorFromEvents(t, bEvs)
		exA, exB := ca.Export("sensor-a"), cb.Export("sensor-b")
		ca.Stop()
		cb.Stop()

		merged, err := Merge(exA, exB)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := incident.DeriveIncidents(merged)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(derived); got != want {
			t.Fatalf("seed %d: split-then-merged incidents diverged:\n got: %s\nwant: %s", seed, got, want)
		}
		// The merged evidence itself must match the single sensor's
		// (ignoring provenance, which legitimately differs).
		stripSensors := func(ex *incident.EvidenceExport) *incident.EvidenceExport {
			cp := *ex
			cp.Sensors = nil
			cp.Sources = append([]incident.SourceEvidence(nil), ex.Sources...)
			for i := range cp.Sources {
				cp.Sources[i].Sensors = nil
			}
			return &cp
		}
		if !bytes.Equal(encode(t, stripSensors(merged)), encode(t, stripSensors(soloEx))) {
			t.Fatalf("seed %d: merged evidence diverged from the single-correlator evidence", seed)
		}
	}
}
