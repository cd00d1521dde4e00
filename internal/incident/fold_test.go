package incident

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"semnids/internal/core"
	"semnids/internal/lineage"
)

// foldMirror renders a Fold the way its caller is meant to: a record
// cache refreshed from TakeDirty after every Merge. If the dirty
// ledger misses a changed record, the cache goes stale and the
// comparison with the MergeExports chain fails.
type foldMirror struct {
	f   *Fold
	src map[netip.Addr]SourceEvidence
	cls map[netip.Addr]ClassifierEvidence
	lin map[core.Fingerprint]lineage.Observation

	// seen holds the JSON of every record merged so far; with skip set,
	// a record seen before is passed as a bare reference, as a caller
	// with a folded-frame memo would.
	seen map[string]bool
	skip bool
}

func newFoldMirror(params Params, skip bool) *foldMirror {
	return &foldMirror{
		f:    NewFold(params),
		src:  make(map[netip.Addr]SourceEvidence),
		cls:  make(map[netip.Addr]ClassifierEvidence),
		lin:  make(map[core.Fingerprint]lineage.Observation),
		seen: make(map[string]bool),
		skip: skip,
	}
}

func (m *foldMirror) known(v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	was := m.seen[string(data)]
	m.seen[string(data)] = true
	return was && m.skip
}

func (m *foldMirror) merge(ex *EvidenceExport) {
	refs := make([]SourceRef, len(ex.Sources))
	for i := range ex.Sources {
		refs[i] = SourceRef{Src: ex.Sources[i].Src, Rec: &ex.Sources[i]}
		if m.known(&ex.Sources[i]) {
			refs[i].Rec = nil
		}
	}
	var cls []ClassifierEvidence
	for i := range ex.Classifier {
		if !m.known(&ex.Classifier[i]) {
			cls = append(cls, ex.Classifier[i])
		}
	}
	var lin []lineage.Observation
	for i := range ex.Lineage {
		if !m.known(&ex.Lineage[i]) {
			lin = append(lin, ex.Lineage[i])
		}
	}
	m.f.Merge(ex.Sensors, refs, cls, lin)
	d := m.f.TakeDirty()
	for _, src := range d.Sources {
		m.src[src] = m.f.Source(src)
	}
	for _, src := range d.Classifier {
		m.cls[src] = m.f.Classifier(src)
	}
	for _, fp := range d.Lineage {
		m.lin[fp] = m.f.Lineage(fp)
	}
	for _, fp := range d.DroppedLineage {
		delete(m.lin, fp)
	}
}

func (m *foldMirror) export() *EvidenceExport {
	ex := m.f.Parameters()
	ex.Sources = make([]SourceEvidence, 0, len(m.src))
	for _, rec := range m.src {
		ex.Sources = append(ex.Sources, rec)
	}
	sort.Slice(ex.Sources, func(i, j int) bool { return ex.Sources[i].Src.Less(ex.Sources[j].Src) })
	for _, rec := range m.cls {
		ex.Classifier = append(ex.Classifier, rec)
	}
	sort.Slice(ex.Classifier, func(i, j int) bool { return ex.Classifier[i].Src.Less(ex.Classifier[j].Src) })
	for _, o := range m.lin {
		ex.Lineage = append(ex.Lineage, o)
	}
	sort.Slice(ex.Lineage, func(i, j int) bool { return lineage.Less(&ex.Lineage[i], &ex.Lineage[j]) })
	return ex
}

// outbreakSnapshots plays a multi-hop worm (every infected host scans,
// exploits and is echoed by its victims, so propagation links chain
// several hosts deep) through `sensors` correlators partitioned by
// source address — every host's own traffic stays at one vantage and
// every propagation link straddles the cut — and returns each
// sensor's `steps` growing exports, with classifier and lineage
// records riding along.
func outbreakSnapshots(seed int64, sensors, steps int) [][]*EvidenceExport {
	rng := rand.New(rand.NewSource(seed))
	host := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)}) }
	fps := make([]core.Fingerprint, 6)
	for i := range fps {
		fps[i] = core.FingerprintOf([]byte(fmt.Sprintf("worm-%d-%d", seed, i)))
	}
	var evs []core.Event
	infected := []int{0}
	ts := uint64(1000)
	for next := 1; next < 40; {
		from := infected[rng.Intn(len(infected))]
		fp := fps[rng.Intn(len(fps))]
		for k := 0; k < 1+rng.Intn(3) && next < 40; k++ {
			to := next
			next++
			ts += uint64(1 + rng.Intn(5000))
			evs = append(evs, flowOpen(host(from), host(to), ts))
			ts += uint64(1 + rng.Intn(500))
			evs = append(evs, alert(host(from), host(to), ts, fp))
			// The victim starts emitting the payload it was hit with.
			ts += uint64(1 + rng.Intn(5000))
			evs = append(evs, emission(host(to), host(100+rng.Intn(20)), ts, fp))
			infected = append(infected, to)
		}
		// Background scanning from an already infected host.
		for k := 0; k < rng.Intn(4); k++ {
			ts += uint64(1 + rng.Intn(300))
			evs = append(evs, flowOpen(host(infected[rng.Intn(len(infected))]), host(200+rng.Intn(30)), ts))
		}
	}

	out := make([][]*EvidenceExport, sensors)
	for s := range out {
		name := fmt.Sprintf("sensor-%d", s)
		c := New(Config{Params: Params{WindowUS: 30e6, FanoutThreshold: 3}})
		var lin []lineage.Observation
		var cls []ClassifierEvidence
		for k := 0; k < steps; k++ {
			for _, ev := range evs[len(evs)*k/steps : len(evs)*(k+1)/steps] {
				// Alerts are seen where the attacker's traffic is
				// tapped, emissions where the emitter's is.
				if int(ev.Src.As4()[3])%sensors != s {
					continue
				}
				c.Publish(ev)
				if ev.Kind == core.EventAlert && rng.Intn(2) == 0 {
					lin = lineage.Merge(lin, []lineage.Observation{{
						Exact:   core.FingerprintOf([]byte(fmt.Sprintf("enc-%d", rng.Intn(12)))),
						Tail:    ev.Fingerprint,
						FirstUS: ev.TimestampUS, Src: ev.Src, Dst: ev.Dst,
						Sensors: []string{name},
					}})
				}
				if ev.Kind == core.EventFlowOpen && rng.Intn(3) == 0 {
					cls = MergeClassifierEvidence(cls, []ClassifierEvidence{{
						Src:               ev.Src,
						SuspiciousUntilUS: uint64(rng.Intn(2)) * ev.TimestampUS,
						Dark:              []netip.Addr{ev.Dst},
					}})
				}
			}
			c.Flush()
			ex := c.Export(name)
			ex.Lineage = lin
			ex.Classifier = cls
			out[s] = append(out[s], ex)
		}
		c.Stop()
	}
	return out
}

// TestFoldMatchesMergeChain is the fold's contract: over generated
// arrival orders of growing per-sensor snapshots — shuffled,
// duplicated, an old snapshot after a newer one — the records a Fold
// reports equal the MergeExports chain's after every step, with and
// without already-merged records passed as bare references.
func TestFoldMatchesMergeChain(t *testing.T) {
	provenanceMoved := false
	for seed := int64(1); seed <= 12; seed++ {
		snaps := outbreakSnapshots(seed, 4, 4)
		rng := rand.New(rand.NewSource(seed * 77))
		var order []*EvidenceExport
		for k := 0; k < 4; k++ {
			for s := range snaps {
				order = append(order, snaps[s][k])
			}
		}
		// Keep each sensor's own snapshots roughly in order but let
		// sensors interleave; then add duplicates and stale snapshots.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for i := 0; i < 6; i++ {
			order = append(order, order[rng.Intn(len(order))])
		}
		order = append(order, snaps[0][0], snaps[1][3], snaps[1][1])

		for _, skip := range []bool{false, true} {
			m := newFoldMirror(order[0].Params, skip)
			var chain *EvidenceExport
			for step, ex := range order {
				if chain == nil {
					// The chain's first element is merged into nothing:
					// MergeExports(empty, ex) is Import(ex) alone.
					empty := *ex
					empty.Sensors, empty.Sources, empty.Classifier, empty.Lineage = nil, nil, nil, nil
					var err error
					if chain, err = MergeExports(&empty, ex); err != nil {
						t.Fatal(err)
					}
				} else {
					prev := chain
					var err error
					if chain, err = MergeExports(chain, ex); err != nil {
						t.Fatal(err)
					}
					if !provenanceMoved {
						// A re-merge of the state alone moving provenance is
						// the case settlePending exists for.
						again, _ := MergeExports(chain, &EvidenceExport{Params: prev.Params})
						again.Sensors = chain.Sensors
						provenanceMoved = !reflect.DeepEqual(again.Sources, chain.Sources)
					}
				}
				m.merge(ex)
				got := m.export()
				if !reflect.DeepEqual(got.Sources, chain.Sources) {
					for i := range chain.Sources {
						if i >= len(got.Sources) || !reflect.DeepEqual(got.Sources[i], chain.Sources[i]) {
							t.Fatalf("seed %d skip=%v step %d: source %d diverged\n got: %+v\nwant: %+v", seed, skip, step, i, got.Sources[i], chain.Sources[i])
						}
					}
					t.Fatalf("seed %d skip=%v step %d: %d sources, chain has %d", seed, skip, step, len(got.Sources), len(chain.Sources))
				}
				if !reflect.DeepEqual(got.Sensors, chain.Sensors) {
					t.Fatalf("seed %d skip=%v step %d: sensors %v, chain %v", seed, skip, step, got.Sensors, chain.Sensors)
				}
				if !reflect.DeepEqual(got.Classifier, chain.Classifier) {
					t.Fatalf("seed %d skip=%v step %d: classifier diverged\n got: %+v\nwant: %+v", seed, skip, step, got.Classifier, chain.Classifier)
				}
				if !reflect.DeepEqual(got.Lineage, chain.Lineage) {
					t.Fatalf("seed %d skip=%v step %d: lineage diverged", seed, skip, step)
				}
			}
		}
	}
	if !provenanceMoved {
		t.Fatal("no generated sequence carried provenance across a re-merge: the pending pass went untested")
	}
}

// TestFoldClassifierNormalizes feeds foldClassifier what the wire can
// carry but no sensor writes — unsorted and repeated dark addresses,
// repeated sources — and wants MergeClassifierEvidence's canonical
// form.
func TestFoldClassifierNormalizes(t *testing.T) {
	a := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}) }
	recs := []ClassifierEvidence{
		{Src: a(1), Dark: []netip.Addr{a(9), a(3), a(9)}},
		{Src: a(2)},
		{Src: a(1), SuspiciousUntilUS: 7, Dark: []netip.Addr{a(5), a(3)}},
	}
	m := newFoldMirror(Params{WindowUS: 1, FanoutThreshold: 1, Limits: EvidenceLimits{1, 1, 1, 1}}, false)
	m.merge(&EvidenceExport{Classifier: recs[:2]})
	m.merge(&EvidenceExport{Classifier: recs[2:]})
	want := MergeClassifierEvidence(MergeClassifierEvidence(nil, recs[:2]), recs[2:])
	if got := m.export().Classifier; !reflect.DeepEqual(got, want) {
		t.Fatalf("classifier fold = %+v, want %+v", got, want)
	}
}
