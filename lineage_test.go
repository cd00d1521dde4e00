package nids

import (
	"bytes"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/fed/transport/faultnet"
	"semnids/internal/netpkt"
	"semnids/internal/report"
	"semnids/internal/traffic"
)

// lineageEngine builds a correlated engine with structural-fingerprint
// lineage tracing attached.
func lineageEngine(t *testing.T, shards int, sensor string) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:    shards,
		Correlate: true,
		Lineage:   true,
		SensorID:  sensor,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// renderAncestry renders a forest both ways — text and JSONL — for
// byte comparison.
func renderAncestry(t *testing.T, trees []AncestryTree) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteAncestry(&buf, trees); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteAncestryJSON(&buf, trees); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// polymorphTrace is the adversarial workload: every hop re-encodes the
// worm body, so no two deliveries share an exact fingerprint.
func polymorphTrace() []*netpkt.Packet {
	return traffic.PolymorphOutbreak(traffic.PolymorphSpec{Seed: 7, Generations: 2, FanoutPerHost: 2})
}

// patientZero is the outbreak's root host for a given spec seed (the
// generator draws it first, before any session traffic).
func patientZero(seed int64) string {
	return traffic.NewGen(seed).RandClient().String()
}

// TestLineageRequiresCorrelate pins the config contract: lineage rides
// the correlator's event feed, so enabling it alone is a setup error.
func TestLineageRequiresCorrelate(t *testing.T) {
	_, err := NewEngine(EngineConfig{Lineage: true})
	if err == nil || !strings.Contains(err.Error(), "Correlate") {
		t.Fatalf("NewEngine(Lineage without Correlate) = %v, want a Correlate complaint", err)
	}
}

// TestLineagePolymorphRegression is the regression pin for the
// satellite generator: a polymorphic outbreak defeats exact-fingerprint
// propagation evidence — patient zero stalls below PROPAGATION with
// lineage off — and flips to PROPAGATION when structural fingerprints
// are on, because every hop's re-encoding decodes to the same tail.
func TestLineagePolymorphRegression(t *testing.T) {
	pkts := polymorphTrace()
	p0 := patientZero(7)

	stageOf := func(e *Engine) string {
		t.Helper()
		st := stageBySource(e.Incidents())
		if len(st) == 0 {
			t.Fatal("outbreak produced no incidents")
		}
		stage, ok := st[p0]
		if !ok {
			t.Fatalf("patient zero %s has no incident (stages: %v)", p0, st)
		}
		return stage
	}

	off := federatedEngine(t, 2, "sensor-a", "")
	feed(off, pkts)
	off.Stop()
	if got := stageOf(off); got == "PROPAGATION" {
		t.Fatalf("lineage off: patient zero reached %s — exact fingerprints unexpectedly repeated, the workload is not polymorphic", got)
	}

	on := lineageEngine(t, 2, "sensor-a")
	feed(on, pkts)
	on.Stop()
	if got := stageOf(on); got != "PROPAGATION" {
		t.Fatalf("lineage on: patient zero stage = %s, want PROPAGATION via structural fingerprints", got)
	}
	if m := on.Stats(); m.Sketches == 0 {
		t.Error("lineage engine computed no sketches")
	}
}

// TestLineageAncestryDeterministic is the adversarial acceptance test:
// the mutated outbreak's reconstructed infection tree is byte-identical
// across shard counts, and a federated split across two sensors —
// every propagation hop straddling the cut — merges to the same forest
// a solo all-seeing sensor reconstructs. The tree itself is checked
// against the generator's ground truth: one family, patient zero at
// the root, all six victims, no benign host.
func TestLineageAncestryDeterministic(t *testing.T) {
	pkts := polymorphTrace()
	p0 := patientZero(7)

	var want string
	for _, shards := range []int{1, 2, 4} {
		solo := lineageEngine(t, shards, "solo")
		feed(solo, pkts)
		solo.Stop()
		trees := solo.Ancestry()
		got := renderAncestry(t, trees)
		if shards == 1 {
			want = got
			// Ground truth: generations=2 × fanout=2 gives patient zero,
			// two children, four grandchildren — one family, one tree.
			if len(trees) != 1 {
				t.Fatalf("%d trees, want 1 family", len(trees))
			}
			tr := trees[0]
			if tr.Nodes != 7 || tr.MaxDepth != 2 || tr.Edges() != 6 {
				t.Fatalf("tree = %d nodes depth %d, want 7 nodes depth 2", tr.Nodes, tr.MaxDepth)
			}
			if tr.Root.Host.String() != p0 {
				t.Fatalf("root = %s, want patient zero %s", tr.Root.Host, p0)
			}
			if len(tr.Root.Children) != 2 {
				t.Fatalf("patient zero has %d children, want 2", len(tr.Root.Children))
			}
			for _, c := range tr.Root.Children {
				if !strings.HasPrefix(c.Host.String(), "172.16.") {
					t.Fatalf("child %s outside the victim subnet", c.Host)
				}
				if len(c.Children) != 2 {
					t.Fatalf("generation-1 host %s has %d children, want 2", c.Host, len(c.Children))
				}
			}
			continue
		}
		if got != want {
			t.Errorf("shards=%d: ancestry diverged from shards=1:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}

	// Federated split: partition by source so every infection edge has
	// its delivery witnessed at one sensor and its re-emission at the
	// other — only the merged lineage can rebuild the tree.
	for _, shards := range []int{1, 2, 4} {
		sensors := [2]*Engine{
			lineageEngine(t, shards, "sensor-a"),
			lineageEngine(t, shards, "sensor-b"),
		}
		for _, p := range pkts {
			sensors[engine.FlowHash(netpkt.FlowKey{SrcIP: p.SrcIP}, 2)].Process(clonePacket(p))
		}
		var exports [2]*EvidenceExport
		for i, e := range sensors {
			e.Stop()
			exports[i] = exportOf(t, e)
		}
		merged, err := MergeEvidence(exports[0], exports[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAncestry(t, TraceAncestry(merged)); got != want {
			t.Errorf("shards=%d: federated ancestry diverged from the solo sensor:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
		// Merge symmetry on the ancestry render.
		flipped, err := MergeEvidence(exports[1], exports[0])
		if err != nil {
			t.Fatal(err)
		}
		if renderAncestry(t, TraceAncestry(flipped)) != want {
			t.Errorf("shards=%d: Merge(B,A) ancestry differs from Merge(A,B)", shards)
		}
	}
}

// lineagePushEngine is pushEngine with lineage tracing attached.
func lineagePushEngine(t *testing.T, shards int, sensor, dir, url string, client *http.Client) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Config: Config{
			Honeypots: []string{traffic.HoneypotAddr.String()},
			DarkSpace: []string{traffic.DarkNet.String()},
		},
		Shards:            shards,
		Correlate:         true,
		Lineage:           true,
		SensorID:          sensor,
		IncidentExportDir: dir,
		Push:              fastPush(client, url),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLineagePushFederatedAncestry runs the mutated outbreak through
// the full push transport under fault injection: two lineage-tracing
// sensors split the trace by source, push evidence through a flaky
// network to an aggregator, and the aggregator's merged state must
// reconstruct the byte-identical infection tree of a solo sensor —
// lineage records ride the same retry/spool/ack machinery as all other
// evidence.
func TestLineagePushFederatedAncestry(t *testing.T) {
	pkts := polymorphTrace()

	solo := lineageEngine(t, 2, "solo")
	feed(solo, pkts)
	solo.Stop()
	want := renderAncestry(t, solo.Ancestry())
	if want == "no ancestry\n" {
		t.Fatal("solo sensor reconstructed no ancestry")
	}

	as := newAggServer(t, t.TempDir())
	ft := faultnet.New(nil, faultnet.Plan{
		Seed:       11,
		Drop:       0.2,
		Truncate:   0.15,
		Err:        0.15,
		Duplicate:  0.15,
		MaxLatency: 2 * time.Millisecond,
	})
	client := &http.Client{Transport: ft}
	sensors := [2]*Engine{
		lineagePushEngine(t, 2, "sensor-a", t.TempDir(), as.srv.URL, client),
		lineagePushEngine(t, 2, "sensor-b", t.TempDir(), as.srv.URL, client),
	}
	for _, p := range pkts {
		sensors[engine.FlowHash(netpkt.FlowKey{SrcIP: p.SrcIP}, 2)].Process(clonePacket(p))
	}
	sensors[0].Drain()
	sensors[1].Drain()

	waitUntil(t, "aggregator ancestry convergence on the solo forest", func() bool {
		st := as.cur.Load().Export()
		return st != nil && renderAncestry(t, TraceAncestry(st)) == want
	})
	for _, e := range sensors {
		e.Stop()
	}
	if c := ft.Counts(); c.Drops == 0 && c.Truncations == 0 && c.Errs == 0 && c.Duplicates == 0 {
		t.Errorf("fault plan injected nothing: %+v", c)
	}
	as.cur.Load().Close()
}

// TestLineageZeroFalseEdges pins the no-false-parents floor: benign
// traffic builds no trees at all, and a plain (non-self-decrypting)
// worm — whose payload never rewrites itself under emulation — yields
// observations-free lineage even with tracing on. An edge can only
// come from a witnessed self-decrypted delivery.
func TestLineageZeroFalseEdges(t *testing.T) {
	benign := traffic.Synthesize(traffic.TraceSpec{Seed: 3, BenignSessions: 120})
	e := lineageEngine(t, 2, "sensor-a")
	feed(e, benign)
	e.Stop()
	if trees := e.Ancestry(); len(trees) != 0 {
		t.Fatalf("benign trace produced %d ancestry trees", len(trees))
	}

	plain := traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 2, FanoutPerHost: 2})
	e = lineageEngine(t, 2, "sensor-a")
	feed(e, plain)
	e.Stop()
	if trees := e.Ancestry(); len(trees) != 0 {
		t.Fatalf("plain Code Red outbreak produced %d structural ancestry trees — its payload does not self-decrypt, so every edge is false", len(trees))
	}
	if ex := exportOf(t, e); len(ex.Lineage) != 0 {
		t.Fatalf("plain outbreak exported %d lineage observations", len(ex.Lineage))
	}
}

// TestLineageOffLeavesReportsUntouched pins the compatibility
// contract from both sides. With lineage off, the evidence export
// carries no lineage records (and hence no wire extension — see
// TestWireLineageOffByteIdentical for the byte-level check). With
// lineage on, a trace that produces no structural observations — the
// plain exact-fingerprint worm — renders byte-identical incident
// reports to a lineage-off engine: the structural path adds evidence,
// it never alters what exact fingerprints already proved.
func TestLineageOffLeavesReportsUntouched(t *testing.T) {
	pkts := traffic.WormOutbreak(traffic.WormSpec{Seed: 7, Generations: 2, FanoutPerHost: 2})

	off := federatedEngine(t, 2, "sensor-a", "")
	feed(off, pkts)
	off.Stop()
	if ex := exportOf(t, off); len(ex.Lineage) != 0 {
		t.Fatalf("lineage-off engine exported %d lineage observations", len(ex.Lineage))
	}
	wantReport := renderIncidents(t, off)

	on := lineageEngine(t, 2, "sensor-a")
	feed(on, pkts)
	on.Stop()
	if got := renderIncidents(t, on); got != wantReport {
		t.Errorf("enabling lineage changed the plain worm's incident report:\n got:\n%s\nwant:\n%s", got, wantReport)
	}
}

// TestLineageSeededSensorProvenance pins lineage provenance across a
// seeding: sensor-a runs the first two thirds of the mutated outbreak,
// sensor-b imports its export and runs the last two thirds. sensor-b's
// lineage must be the merge of sensor-a's export and of what a fresh
// sensor-b witnesses on the same traffic — sensor-a's sensor sets kept,
// sensor-b added exactly where it witnessed the payload itself — so an
// observation sensor-b only imported does not name it. Classification
// is off, so what a sensor witnesses does not depend on the state it
// was seeded with.
func TestLineageSeededSensorProvenance(t *testing.T) {
	pkts := polymorphTrace()
	lo := splitAtFlowBoundary(t, pkts, len(pkts)/3)
	hi := splitAtFlowBoundary(t, pkts, 2*len(pkts)/3)
	sensor := func(name string) *Engine {
		e, err := NewEngine(EngineConfig{
			Config:    Config{DisableClassification: true},
			Shards:    2,
			Correlate: true,
			Lineage:   true,
			SensorID:  name,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	parent := sensor("sensor-a")
	feed(parent, pkts[:hi])
	parent.Stop()
	var wire bytes.Buffer
	if err := parent.ExportIncidents(&wire); err != nil {
		t.Fatal(err)
	}
	parentEx, err := ReadEvidence(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	fresh := sensor("sensor-b")
	feed(fresh, pkts[lo:])
	fresh.Stop()
	witnessed := exportOf(t, fresh)

	seeded := sensor("sensor-b")
	if err := seeded.ImportIncidents(&wire); err != nil {
		t.Fatal(err)
	}
	feed(seeded, pkts[lo:])
	seeded.Stop()
	got := exportOf(t, seeded).Lineage

	want, err := MergeEvidence(parentEx, witnessed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Lineage) {
		t.Fatalf("seeded sensor's lineage differs from the merge of its seed and its own witness:\n got: %+v\nwant: %+v", got, want.Lineage)
	}

	inParent, inWitnessed := map[core.Fingerprint]bool{}, map[core.Fingerprint]bool{}
	for _, o := range parentEx.Lineage {
		inParent[o.Exact] = true
	}
	for _, o := range witnessed.Lineage {
		inWitnessed[o.Exact] = true
	}
	var imported, both, live int
	for _, o := range got {
		switch {
		case !inWitnessed[o.Exact]:
			imported++
			if !slices.Equal(o.Sensors, []string{"sensor-a"}) {
				t.Errorf("observation %v only imported carries sensors %v, want [sensor-a]", o.Exact, o.Sensors)
			}
		case inParent[o.Exact]:
			both++
			if !slices.Equal(o.Sensors, []string{"sensor-a", "sensor-b"}) {
				t.Errorf("observation %v witnessed by both carries sensors %v", o.Exact, o.Sensors)
			}
		default:
			live++
			if !slices.Equal(o.Sensors, []string{"sensor-b"}) {
				t.Errorf("observation %v witnessed by sensor-b alone carries sensors %v", o.Exact, o.Sensors)
			}
		}
	}
	t.Logf("%d observations imported only, %d witnessed by both, %d by sensor-b alone", imported, both, live)
	if imported == 0 || both == 0 || live == 0 {
		t.Fatalf("split exercises too little: %d imported only, %d both, %d sensor-b only", imported, both, live)
	}
}
