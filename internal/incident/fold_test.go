package incident

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"semnids/internal/core"
	"semnids/internal/lineage"
)

// join is fed.Merge restated in this package (fed imports incident): a
// fresh Fold merges both exports and renders every record.
func join(a, b *EvidenceExport) (*EvidenceExport, error) {
	if err := a.Params.Validate(); err != nil {
		return nil, err
	}
	f := NewFold(a.Params)
	for _, ex := range []*EvidenceExport{a, b} {
		if err := f.Compatible(ex.Params); err != nil {
			return nil, err
		}
		f.Merge(ex.Sensors, ex.Sources, ex.Classifier, ex.Lineage)
	}
	return f.Export(), nil
}

func mustJoin(t testing.TB, a, b *EvidenceExport) *EvidenceExport {
	t.Helper()
	m, err := join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wire is v's JSON encoding, the equality the join laws are checked
// on: every record field the wire format carries.
func wire(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// foldMirror renders a Fold the way its caller is meant to: a record
// cache refreshed from TakeDirty after every Merge. If the dirty
// ledger misses a changed record, the cache goes stale and the
// comparison with the oracle fails.
type foldMirror struct {
	f   *Fold
	src map[netip.Addr]SourceEvidence
	cls map[netip.Addr]ClassifierEvidence
	lin map[core.Fingerprint]lineage.Observation

	// seen holds the JSON of every record merged so far; with skip set,
	// a record seen before is left out of the merge, as a caller with a
	// folded-frame memo leaves it out.
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

// unseen returns the records of recs the mirror has not merged before
// (all of them without skip).
func unseen[T any](m *foldMirror, recs []T) []T {
	var out []T
	for i := range recs {
		if !m.known(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

func (m *foldMirror) merge(ex *EvidenceExport) {
	m.f.Merge(ex.Sensors, unseen(m, ex.Sources), unseen(m, ex.Classifier), unseen(m, ex.Lineage))
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

// unionClassifier is the classifier union written the slow way: per
// source the sorted set of dark addresses and the latest expiry,
// sources sorted, nil when empty.
func unionClassifier(a, b []ClassifierEvidence) []ClassifierEvidence {
	bySrc := make(map[netip.Addr]*ClassifierEvidence)
	for _, rec := range slices.Concat(a, b) {
		m := bySrc[rec.Src]
		if m == nil {
			m = &ClassifierEvidence{Src: rec.Src}
			bySrc[rec.Src] = m
		}
		m.SuspiciousUntilUS = max(m.SuspiciousUntilUS, rec.SuspiciousUntilUS)
		m.Dark = append(m.Dark, rec.Dark...)
	}
	var out []ClassifierEvidence
	for _, m := range bySrc {
		slices.SortFunc(m.Dark, netip.Addr.Compare)
		m.Dark = slices.Compact(m.Dark)
		out = append(out, *m)
	}
	slices.SortFunc(out, func(x, y ClassifierEvidence) int { return x.Src.Compare(y.Src) })
	return out
}

// chainOracle is what the Fold must equal, computed the long way:
// every record of every export so far imported into one correlator,
// then the one-link re-derivation a re-import merge runs — every
// source, in address order — repeated until no sensor set changes.
type chainOracle struct {
	c       *Correlator
	sensors []string
	cls     []ClassifierEvidence
	lin     []lineage.Observation
}

func newChainOracle(p Params) *chainOracle { return &chainOracle{c: newMergeState(p)} }

func (o *chainOracle) add(ex *EvidenceExport) {
	for i := range ex.Sources {
		o.c.importSource(&ex.Sources[i])
	}
	o.sensors = core.SortedUnion(o.sensors, ex.Sensors)
	o.cls = unionClassifier(o.cls, ex.Classifier)
	o.lin = lineage.Merge(o.lin, ex.Lineage)
}

func (o *chainOracle) export() *EvidenceExport {
	c := o.c
	provenance := func() (n int) {
		for _, s := range c.sources {
			n += len(s.sensors)
		}
		return n
	}
	for {
		before := provenance()
		for _, src := range slices.SortedFunc(maps.Keys(c.sources), netip.Addr.Compare) {
			c.rederivePropagation(c.sources[src])
		}
		if provenance() == before {
			break
		}
	}
	ex := &EvidenceExport{Sensors: o.sensors, Params: c.cfg.Params, Classifier: o.cls, Lineage: o.lin}
	for _, src := range slices.SortedFunc(maps.Keys(c.sources), netip.Addr.Compare) {
		ex.Sources = append(ex.Sources, c.sources[src].export(nil, c.cfg.WindowUS, c.cfg.FanoutThreshold))
	}
	return ex
}

func outbreakHost(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)}) }

// outbreakEvents plays a multi-hop worm: every infected host scans,
// exploits and is echoed by its victims, so propagation links chain
// several hosts deep.
func outbreakEvents(rng *rand.Rand, seed int64) []core.Event {
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
			evs = append(evs, flowOpen(outbreakHost(from), outbreakHost(to), ts))
			ts += uint64(1 + rng.Intn(500))
			evs = append(evs, alert(outbreakHost(from), outbreakHost(to), ts, fp))
			// The victim starts emitting the payload it was hit with.
			ts += uint64(1 + rng.Intn(5000))
			evs = append(evs, emission(outbreakHost(to), outbreakHost(100+rng.Intn(20)), ts, fp))
			infected = append(infected, to)
		}
		// Background scanning from an already infected host.
		for k := 0; k < rng.Intn(4); k++ {
			ts += uint64(1 + rng.Intn(300))
			evs = append(evs, flowOpen(outbreakHost(infected[rng.Intn(len(infected))]), outbreakHost(200+rng.Intn(30)), ts))
		}
	}
	return evs
}

// atSensor reports whether sensor s of n taps ev: alerts are seen
// where the attacker's traffic is tapped, emissions where the
// emitter's is — every host's own traffic stays at one vantage and
// every propagation link straddles the cut.
func atSensor(ev core.Event, s, n int) bool { return int(ev.Src.As4()[3])%n == s }

var outbreakParams = Params{WindowUS: 30e6, FanoutThreshold: 3}

// outbreakSnapshots plays outbreakEvents through `sensors` correlators
// partitioned by source address and returns each sensor's `steps`
// growing exports, with classifier and lineage records riding along.
func outbreakSnapshots(seed int64, sensors, steps int) [][]*EvidenceExport {
	rng := rand.New(rand.NewSource(seed))
	evs := outbreakEvents(rng, seed)
	out := make([][]*EvidenceExport, sensors)
	for s := range out {
		name := fmt.Sprintf("sensor-%d", s)
		c := New(Config{Params: outbreakParams})
		var lin []lineage.Observation
		var cls []ClassifierEvidence
		for k := 0; k < steps; k++ {
			for _, ev := range evs[len(evs)*k/steps : len(evs)*(k+1)/steps] {
				if !atSensor(ev, s, sensors) {
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
					cls = unionClassifier(cls, []ClassifierEvidence{{
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
// reports equal the oracle's after every step, with and without the
// records merged before left out, and Fold.Export renders what the
// dirty ledger reported.
func TestFoldMatchesMergeChain(t *testing.T) {
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
			oracle := newChainOracle(order[0].Params)
			for step, ex := range order {
				oracle.add(ex)
				m.merge(ex)
				want := oracle.export()
				got := m.export()
				if !reflect.DeepEqual(got.Sources, want.Sources) {
					for i := range want.Sources {
						if i >= len(got.Sources) || !reflect.DeepEqual(got.Sources[i], want.Sources[i]) {
							t.Fatalf("seed %d skip=%v step %d: source %d diverged\n got: %+v\nwant: %+v", seed, skip, step, i, got.Sources[i], want.Sources[i])
						}
					}
					t.Fatalf("seed %d skip=%v step %d: %d sources, oracle has %d", seed, skip, step, len(got.Sources), len(want.Sources))
				}
				if !reflect.DeepEqual(got.Sensors, want.Sensors) {
					t.Fatalf("seed %d skip=%v step %d: sensors %v, oracle %v", seed, skip, step, got.Sensors, want.Sensors)
				}
				if !reflect.DeepEqual(got.Classifier, want.Classifier) {
					t.Fatalf("seed %d skip=%v step %d: classifier diverged\n got: %+v\nwant: %+v", seed, skip, step, got.Classifier, want.Classifier)
				}
				if !reflect.DeepEqual(got.Lineage, want.Lineage) {
					t.Fatalf("seed %d skip=%v step %d: lineage diverged", seed, skip, step)
				}
				if !reflect.DeepEqual(m.f.Export(), got) {
					t.Fatalf("seed %d skip=%v step %d: Fold.Export disagrees with the dirty ledger", seed, skip, step)
				}
			}
		}
	}
}

// randomJoin merges exports along a random tree: a random pair, in a
// random argument order, replaced by its join until one remains.
func randomJoin(t testing.TB, rng *rand.Rand, exs []*EvidenceExport) *EvidenceExport {
	exs = slices.Clone(exs)
	for len(exs) > 1 {
		i, j := rng.Intn(len(exs)), rng.Intn(len(exs)-1)
		if j >= i {
			j++
		}
		exs[i] = mustJoin(t, exs[i], exs[j])
		exs = slices.Delete(exs, j, j+1)
	}
	return exs[0]
}

// TestFoldIsJoin holds the merge to the semilattice laws on wire
// bytes, over multi-hop outbreaks split across k = 2, 3, 4 sensors:
// commutative, independent of bracketing and order, idempotent, and
// the merged incidents are one correlator's over the whole event
// stream. A sensor seeded by Import that then escalates an attacker
// live from an imported victim exports evidence that is not closed
// (a live escalation carries no provenance); its merge must be.
func TestFoldIsJoin(t *testing.T) {
	unclosed := 0
	for seed := int64(1); seed <= 20; seed++ {
		for k := 2; k <= 4; k++ {
			fail := func(law string) { t.Errorf("seed %d k=%d: %s", seed, k, law) }
			snaps := outbreakSnapshots(seed, k, 1)
			parts := make([]*EvidenceExport, k)
			for s := range parts {
				parts[s] = snaps[s][0]
			}
			rng := rand.New(rand.NewSource(seed*31 + int64(k)))

			m := parts[0]
			for _, p := range parts[1:] {
				m = mustJoin(t, m, p)
			}
			want := wire(t, m)
			for i := range parts {
				for j := i + 1; j < k; j++ {
					if wire(t, mustJoin(t, parts[i], parts[j])) != wire(t, mustJoin(t, parts[j], parts[i])) {
						fail(fmt.Sprintf("join(%d,%d) != join(%d,%d)", i, j, j, i))
					}
				}
			}
			for tree := 0; tree < 6; tree++ {
				if wire(t, randomJoin(t, rng, parts)) != want {
					fail("a random merge tree differs from the left fold")
				}
			}
			if wire(t, mustJoin(t, m, m)) != want {
				fail("join(m, m) != m")
			}
			for i, p := range parts {
				if wire(t, mustJoin(t, p, p)) != wire(t, p) {
					fail(fmt.Sprintf("join(part %d, part %d) != part %d", i, i, i))
				}
				if wire(t, mustJoin(t, m, p)) != want {
					fail(fmt.Sprintf("join(m, part %d) != m", i))
				}
			}

			solo := New(Config{Params: outbreakParams})
			evs := outbreakEvents(rand.New(rand.NewSource(seed)), seed)
			for _, ev := range evs {
				solo.Publish(ev)
			}
			solo.Flush()
			solo.Stop()
			incs, err := DeriveIncidents(m)
			if err != nil {
				t.Fatal(err)
			}
			if wire(t, incs) != wire(t, solo.Incidents()) {
				fail("merged incidents differ from one correlator's over the whole stream")
			}

			// Sensor 0 restarts seeded with the others' evidence and
			// replays its own traffic live.
			seeded := New(Config{Params: outbreakParams})
			others := parts[1]
			for _, p := range parts[2:] {
				others = mustJoin(t, others, p)
			}
			if err := seeded.Import(others); err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs {
				if atSensor(ev, 0, k) {
					seeded.Publish(ev)
				}
			}
			seeded.Flush()
			seeded.Stop()
			ex := seeded.Export("sensor-0")
			once := mustJoin(t, ex, ex)
			if wire(t, once) != wire(t, ex) {
				unclosed++
			}
			if wire(t, mustJoin(t, once, ex)) != wire(t, once) {
				fail("join(join(ex, ex), ex) != join(ex, ex) for a seeded sensor's export")
			}
		}
	}
	if unclosed == 0 {
		t.Error("every seeded sensor's export was closed: the scope case went untested")
	}
}

// TestFoldClassifierNormalizes feeds foldClassifier what the wire can
// carry but no sensor writes — unsorted and repeated dark addresses,
// repeated sources — and wants the canonical form.
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
	want := []ClassifierEvidence{
		{Src: a(1), SuspiciousUntilUS: 7, Dark: []netip.Addr{a(3), a(5), a(9)}},
		{Src: a(2)},
	}
	if got := m.export().Classifier; !reflect.DeepEqual(got, want) {
		t.Fatalf("classifier fold = %+v, want %+v", got, want)
	}
}
