package incident

import (
	"fmt"
	"reflect"
	"testing"

	"semnids/internal/core"
)

// killChainCorrelator drives one correlator through the standard
// three-stage scenario plus an unrelated scanner, and returns it
// (stopped, state readable).
func killChainCorrelator(t *testing.T) *Correlator {
	t.Helper()
	c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
	fp := core.FingerprintOf([]byte("worm payload"))
	c.Publish(flowOpen(attacker, addr(1), 1000))
	c.Publish(flowOpen(attacker, addr(2), 2000))
	c.Publish(flowOpen(attacker, addr(3), 3000))
	c.Publish(alert(attacker, victim, 5000, fp))
	c.Publish(emission(victim, next, 9000, fp))
	c.Publish(flowOpen(addr(50), addr(60), 4000)) // unstaged background source
	c.Flush()
	c.Stop()
	return c
}

// TestEvidenceExportRoundTrip checks export → import into a fresh
// correlator is lossless: the re-export matches (modulo the importing
// sensor joining the provenance set) and the derived incidents are
// identical, including the cross-source propagation link.
func TestEvidenceExportRoundTrip(t *testing.T) {
	c := killChainCorrelator(t)
	ex := c.Export("sensor-a")

	if len(ex.Sources) == 0 {
		t.Fatal("export is empty")
	}
	for _, rec := range ex.Sources {
		if len(rec.Sensors) != 1 || rec.Sensors[0] != "sensor-a" {
			t.Fatalf("record %s provenance = %v, want [sensor-a]", rec.Src, rec.Sensors)
		}
	}

	r := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
	defer r.Stop()
	if err := r.Import(ex); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(r.Incidents()), fmt.Sprint(c.Incidents()); got != want {
		t.Fatalf("incidents diverged after round trip:\n got: %s\nwant: %s", got, want)
	}
	re := r.Export("sensor-a")
	if !reflect.DeepEqual(re, ex) {
		t.Fatalf("re-export diverged:\n got: %+v\nwant: %+v", re, ex)
	}

	// Importing the same export again must change nothing.
	if err := r.Import(ex); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Export("sensor-a"), ex) {
		t.Fatal("second import of the same export changed the evidence")
	}
}

// skewParams lists one change per correlation parameter: evidence
// under parameters that differ in any one of them must not fold.
var skewParams = []struct {
	name string
	skew func(*Params)
}{
	{"WindowUS", func(p *Params) { p.WindowUS /= 2 }},
	{"FanoutThreshold", func(p *Params) { p.FanoutThreshold++ }},
	{"MaxDestinations", func(p *Params) { p.Limits.MaxDestinations = 7 }},
	{"MaxAlerts", func(p *Params) { p.Limits.MaxAlerts++ }},
	{"MaxFingerprints", func(p *Params) { p.Limits.MaxFingerprints++ }},
	{"MaxVictims", func(p *Params) { p.Limits.MaxVictims++ }},
}

// TestEvidenceImportIncompatible checks correlation-parameter skew is
// rejected instead of silently folded: an export that differs from
// the correlator, or from the other export, in any one parameter is
// refused by Import and by the merge (join) in either order. An export
// carrying parameters no correlator runs under is refused by
// DeriveIncidents with Params.Validate's error.
func TestEvidenceImportIncompatible(t *testing.T) {
	c := killChainCorrelator(t)
	ex := c.Export("sensor-a")

	for _, row := range skewParams {
		t.Run(row.name, func(t *testing.T) {
			skewed := *ex
			row.skew(&skewed.Params)
			if skewed.Params == ex.Params {
				t.Fatal("row changes nothing")
			}
			r := New(Config{Params: ex.Params})
			defer r.Stop()
			if err := r.Import(&skewed); err == nil {
				t.Error("Import of an export under other parameters succeeded")
			}
			if _, err := join(ex, &skewed); err == nil {
				t.Error("join(ex, skewed) succeeded")
			}
			if _, err := join(&skewed, ex); err == nil {
				t.Error("join(skewed, ex) succeeded")
			}
		})
	}

	zeroed := *ex
	zeroed.Params = Params{}
	_, err := DeriveIncidents(&zeroed)
	if want := zeroed.Params.Validate(); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("DeriveIncidents on zeroed parameters: error %v, want %v", err, want)
	}
}

// TestMergeClosesCrossSensorPropagation is the federation payoff: the
// alert (attacker→victim) and the victim's re-emission are observed
// by *different* sensors, so neither derives PROPAGATION alone — the
// merged evidence must.
func TestMergeClosesCrossSensorPropagation(t *testing.T) {
	fp := core.FingerprintOf([]byte("worm payload"))

	a := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
	a.Publish(flowOpen(attacker, addr(1), 1000))
	a.Publish(flowOpen(attacker, addr(2), 2000))
	a.Publish(flowOpen(attacker, addr(3), 3000))
	a.Publish(alert(attacker, victim, 5000, fp))
	a.Flush()
	a.Stop()

	b := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
	b.Publish(emission(victim, next, 9000, fp))
	b.Flush()
	b.Stop()

	for _, inc := range append(a.Incidents(), b.Incidents()...) {
		if inc.Stage == StagePropagation {
			t.Fatalf("a single sensor derived PROPAGATION alone: %v", inc)
		}
	}

	merged, err := join(a.Export("sensor-a"), b.Export("sensor-b"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(merged.Sensors), "[sensor-a sensor-b]"; got != want {
		t.Fatalf("merged sensor set = %s, want %s", got, want)
	}
	incs, err := DeriveIncidents(merged)
	if err != nil {
		t.Fatal(err)
	}
	var atk *Incident
	for i := range incs {
		if incs[i].Src == attacker {
			atk = &incs[i]
		}
	}
	if atk == nil || atk.Stage != StagePropagation {
		t.Fatalf("merged evidence did not derive PROPAGATION for the attacker: %v", incs)
	}
	if len(atk.Victims) != 1 || atk.Victims[0] != victim.String() {
		t.Fatalf("merged victims = %v, want [%s]", atk.Victims, victim)
	}

	// Provenance: the victim's merged record must trace back to both
	// sensors (attacked-with evidence from a, emission evidence from
	// b), and the attacker's must include the victim record's
	// witnesses — the sensors whose evidence proved its escalation.
	for _, rec := range merged.Sources {
		if rec.Src == victim && fmt.Sprint(rec.Sensors) != "[sensor-a sensor-b]" {
			t.Fatalf("victim record provenance = %v, want both sensors", rec.Sensors)
		}
		if rec.Src == attacker && fmt.Sprint(rec.Sensors) != "[sensor-a sensor-b]" {
			t.Fatalf("attacker record provenance = %v, want both sensors", rec.Sensors)
		}
	}
}

// TestMergeSynthesizedAttackerProvenance covers the attacker that has
// no record of its own in any export (finalized before export, say):
// the merge synthesizes it from victim-side evidence, and the
// synthesized record must name the victim record's witnessing sensors
// — a federated verdict can always say who saw it.
func TestMergeSynthesizedAttackerProvenance(t *testing.T) {
	fp := core.FingerprintOf([]byte("worm payload"))
	c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
	c.Publish(alert(attacker, victim, 5000, fp))
	c.Publish(emission(victim, next, 9000, fp))
	c.Flush()
	c.Stop()
	ex := c.Export("sensor-a")

	// Strip the attacker's own record: only the victim-side evidence
	// (targeted-by + emission) remains.
	kept := ex.Sources[:0]
	for _, rec := range ex.Sources {
		if rec.Src != attacker {
			kept = append(kept, rec)
		}
	}
	ex.Sources = kept

	merged, err := join(ex, ex)
	if err != nil {
		t.Fatal(err)
	}
	var atk *SourceEvidence
	for i := range merged.Sources {
		if merged.Sources[i].Src == attacker {
			atk = &merged.Sources[i]
		}
	}
	if atk == nil {
		t.Fatalf("merge did not synthesize the attacker from victim evidence: %+v", merged.Sources)
	}
	if atk.Stage != StagePropagation.String() {
		t.Fatalf("synthesized attacker stage = %s, want PROPAGATION", atk.Stage)
	}
	if fmt.Sprint(atk.Sensors) != "[sensor-a]" {
		t.Fatalf("synthesized attacker provenance = %v, want the victim record's witnesses", atk.Sensors)
	}
}

// TestImportNotifiesUnionProvenStage locks Import's notification
// contract: a stage neither record proved alone, but their union
// does, fires OnIncident like a live transition — while the stages
// the records had already announced stay quiet.
func TestImportNotifiesUnionProvenStage(t *testing.T) {
	// Sensor a: two fan-out destinations (below threshold 3).
	a := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
	a.Publish(flowOpen(attacker, addr(1), 1000))
	a.Publish(flowOpen(attacker, addr(2), 2000))
	a.Flush()
	a.Stop()

	// Live correlator: two different destinations, also below.
	var fired []Stage
	r := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}, OnIncident: func(inc Incident) {
		fired = append(fired, inc.Stage)
	}})
	defer r.Stop()
	r.Publish(flowOpen(attacker, addr(3), 3000))
	r.Publish(flowOpen(attacker, addr(4), 4000))
	r.Flush()
	if len(fired) != 0 {
		t.Fatalf("stage fired before import: %v", fired)
	}

	// The union (4 destinations) proves RECON: import must announce it.
	if err := r.Import(a.Export("sensor-a")); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != StageRecon {
		t.Fatalf("union-proven RECON notified %v, want exactly [RECON]", fired)
	}

	// Idempotence extends to notification: importing again is silent.
	if err := r.Import(a.Export("sensor-a")); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("second import re-notified: %v", fired)
	}
}
