package lineage

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"semnids/internal/core"
)

// obs builds a test observation: payload #id, tail family, delivered
// src→dst at us. Sensors defaults to one synthetic witness per id so
// provenance unions are visible in merge tests.
func obs(id int, tail core.Fingerprint, src, dst string, us uint64) Observation {
	return Observation{
		Exact:   core.FingerprintOf([]byte(fmt.Sprintf("payload-%d", id))),
		Tail:    tail,
		FirstUS: us,
		Src:     netip.MustParseAddr(src),
		Dst:     netip.MustParseAddr(dst),
		Sensors: []string{fmt.Sprintf("s%d", id%3)},
	}
}

func tailOf(name string) core.Fingerprint { return core.FingerprintOf([]byte(name)) }

// canonical renders an observation list for byte-level comparison.
func canonical(t *testing.T, obs []Observation) string {
	t.Helper()
	b, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sampleObservations is a deterministic pseudo-random observation set:
// several payload families, overlapping hosts, duplicated exact
// fingerprints with differing witnesses (the later witness must lose).
func sampleObservations(seed int64, n int) []Observation {
	rng := rand.New(rand.NewSource(seed))
	tails := []core.Fingerprint{tailOf("worm-a"), tailOf("worm-b"), tailOf("worm-c")}
	out := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		id := rng.Intn(n / 2) // collisions on Exact are the point
		o := obs(id, tails[id%len(tails)],
			fmt.Sprintf("10.0.%d.%d", rng.Intn(4), rng.Intn(8)+1),
			fmt.Sprintf("172.16.%d.%d", rng.Intn(4), rng.Intn(8)+1),
			uint64(1000+rng.Intn(5000)))
		o.TemplateSym = uint64(id % 5)
		o.StmtsSym = uint64(id % 7)
		out = append(out, o)
	}
	return out
}

func TestMergeCommutativeAssociativeIdempotent(t *testing.T) {
	a := Merge(sampleObservations(1, 40), nil)
	b := Merge(sampleObservations(2, 40), nil)
	c := Merge(sampleObservations(3, 40), nil)

	ab := canonical(t, Merge(a, b))
	ba := canonical(t, Merge(b, a))
	if ab != ba {
		t.Fatal("Merge(a,b) != Merge(b,a)")
	}
	abc1 := canonical(t, Merge(Merge(a, b), c))
	abc2 := canonical(t, Merge(a, Merge(b, c)))
	if abc1 != abc2 {
		t.Fatal("Merge((a,b),c) != Merge(a,(b,c))")
	}
	if canonical(t, Merge(a, a)) != canonical(t, a) {
		t.Fatal("Merge(a,a) != a")
	}
	// Absorbing a subset changes nothing: b's records are already in ab.
	if canonical(t, Merge(Merge(a, b), b)) != ab {
		t.Fatal("Merge(Merge(a,b),b) != Merge(a,b)")
	}
}

func TestMergeEarliestWitnessWins(t *testing.T) {
	tail := tailOf("worm-a")
	early := obs(1, tail, "10.0.0.1", "172.16.0.1", 100)
	late := obs(1, tail, "10.0.0.9", "172.16.0.9", 900)
	late.Sensors = []string{"zulu"}

	for _, order := range [][]Observation{{early, late}, {late, early}} {
		m := Merge(order[:1], order[1:])
		if len(m) != 1 {
			t.Fatalf("merged %d observations, want 1", len(m))
		}
		if m[0].FirstUS != 100 || m[0].Src != early.Src {
			t.Fatalf("winner = %+v, want the earliest witness", m[0])
		}
		if !reflect.DeepEqual(m[0].Sensors, []string{"s1", "zulu"}) {
			t.Fatalf("sensors = %v, want union [s1 zulu]", m[0].Sensors)
		}
	}
}

func TestMergeCapKeepsMinima(t *testing.T) {
	// Over-cap merge must keep exactly the MergeCap smallest witnesses,
	// and stay deterministic across input split points.
	var all []Observation
	for i := 0; i < MergeCap+50; i++ {
		all = append(all, obs(i, tailOf("worm-a"), "10.0.0.1", "172.16.0.1", uint64(i)))
	}
	m1 := Merge(all[:100], all[100:])
	m2 := Merge(all[100:], all[:100])
	if len(m1) != MergeCap {
		t.Fatalf("merged %d, want cap %d", len(m1), MergeCap)
	}
	if canonical(t, m1) != canonical(t, m2) {
		t.Fatal("over-cap merge depends on input order")
	}
	if m1[len(m1)-1].FirstUS != uint64(MergeCap-1) {
		t.Fatalf("largest retained witness at %dus, want %d (keep-minima)", m1[len(m1)-1].FirstUS, MergeCap-1)
	}
}

// fold folds observations into a set, none of them live.
func fold(s *Set, obs []Observation) {
	for i := range obs {
		s.Fold(&obs[i], false)
	}
}

func TestSetFoldMatchesMerge(t *testing.T) {
	// A live-capped set fed observations one at a time exports the same
	// canonical list as a flat Merge — both go through Set.Fold.
	sample := sampleObservations(4, 60)
	st := NewSet(StoreCap)
	fold(st, sample)
	want := Merge(sample, nil)
	if canonical(t, st.Export("s0")) != canonical(t, want) {
		t.Fatal("set fold diverged from Merge")
	}
	// Idempotent: folding the same set again changes nothing.
	fold(st, sample)
	if canonical(t, st.Export("s0")) != canonical(t, want) {
		t.Fatal("re-fold changed the set")
	}
}

func TestSetCapDisplacement(t *testing.T) {
	st := NewSet(StoreCap)
	const extra = 4
	last := uint64(2 * StoreCap)
	for i := 0; i < StoreCap+extra; i++ {
		// Later payloads have earlier witnesses, so each past the cap
		// must displace the worst retained one.
		o := obs(i, tailOf("worm-a"), "10.0.0.1", "172.16.0.1", last-uint64(i))
		changed, evicted := st.Fold(&o, false)
		if !changed {
			t.Fatalf("payload %d: a smaller witness was not admitted", i)
		}
		if (evicted != nil) != (i >= StoreCap) {
			t.Fatalf("payload %d: evicted = %v with %d held", i, evicted, st.Len())
		}
		if evicted != nil && evicted.FirstUS != last-uint64(i-StoreCap) {
			t.Fatalf("payload %d displaced the witness at %dus, want the greatest, %dus", i, evicted.FirstUS, last-uint64(i-StoreCap))
		}
	}
	ex := st.Export("s0")
	if len(ex) != StoreCap {
		t.Fatalf("set kept %d, want cap %d", len(ex), StoreCap)
	}
	for _, o := range ex {
		if o.FirstUS > last-extra {
			t.Fatalf("set retained witness at %dus; the %d minima end at %d", o.FirstUS, StoreCap, last-extra)
		}
	}
	// A newcomer no smaller than every held witness is dropped.
	late := obs(StoreCap+extra, tailOf("worm-a"), "10.0.0.1", "172.16.0.1", last)
	if changed, evicted := st.Fold(&late, false); changed || evicted != nil || st.Len() != StoreCap {
		t.Fatalf("a witness past the minima was admitted (changed=%v evicted=%v len=%d)", changed, evicted, st.Len())
	}
}

// TestSetLiveProvenance checks that Export adds the exporting sensor
// to exactly the observations folded live, that displacement forgets
// the mark, and that a live fold of a held observation sets it.
func TestSetLiveProvenance(t *testing.T) {
	st := NewSet(2)
	a := obs(0, tailOf("worm-a"), "10.0.0.1", "172.16.0.1", 100)
	b := obs(1, tailOf("worm-a"), "10.0.0.1", "172.16.0.2", 200)
	c := obs(2, tailOf("worm-a"), "10.0.0.1", "172.16.0.3", 50)
	st.Fold(&a, false)
	st.Fold(&b, true)
	sensors := func() map[core.Fingerprint][]string {
		m := map[core.Fingerprint][]string{}
		for _, o := range st.Export("local") {
			m[o.Exact] = o.Sensors
		}
		return m
	}
	got := sensors()
	if !reflect.DeepEqual(got[a.Exact], []string{"s0"}) || !reflect.DeepEqual(got[b.Exact], []string{"local", "s1"}) {
		t.Fatalf("sensors = %v, want a imported only and b stamped local", got)
	}
	if changed, _ := st.Fold(&a, true); !changed {
		t.Fatal("a live fold of an imported observation reported no change")
	}
	if got := sensors(); !reflect.DeepEqual(got[a.Exact], []string{"local", "s0"}) {
		t.Fatalf("a's sensors after a live fold = %v, want [local s0]", got[a.Exact])
	}
	// c displaces b, the greatest witness; b comes back imported only
	// and displaces a.
	if _, evicted := st.Fold(&c, false); evicted == nil || evicted.Exact != b.Exact {
		t.Fatalf("c displaced %v, want b", evicted)
	}
	b.FirstUS = 10
	st.Fold(&b, false)
	if got := sensors(); !reflect.DeepEqual(got[b.Exact], []string{"s1"}) {
		t.Fatalf("readmitted b's sensors = %v, want [s1]: displacement must forget the live mark", got[b.Exact])
	}
}

// TestTraceChain reconstructs a three-generation chain and checks
// parents, timestamps, confidence tiers and depth accounting.
func TestTraceChain(t *testing.T) {
	tail := tailOf("worm-a")
	// p0 (10.0.0.1) infects 172.16.0.1, which re-encodes and infects
	// 172.16.0.2 (leaf: never re-emits).
	o1 := obs(1, tail, "10.0.0.1", "172.16.0.1", 100)
	o2 := obs(2, tail, "172.16.0.1", "172.16.0.2", 200)
	o1.TemplateSym, o2.TemplateSym = 7, 7
	trees := Trace([]Observation{o1, o2})
	if len(trees) != 1 {
		t.Fatalf("%d trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.Tail != tail || tr.Nodes != 3 || tr.MaxDepth != 2 || tr.Edges() != 2 {
		t.Fatalf("tree = %+v, want 3 nodes depth 2", tr)
	}
	root := tr.Root
	if root.Host != netip.MustParseAddr("10.0.0.1") || root.Confidence != 0 {
		t.Fatalf("root = %+v, want patient zero 10.0.0.1", root)
	}
	if len(root.Children) != 1 {
		t.Fatalf("root children = %d, want 1", len(root.Children))
	}
	mid := root.Children[0]
	if mid.Host != netip.MustParseAddr("172.16.0.1") || mid.InfectedAtUS != 100 || mid.Via != o1.Exact {
		t.Fatalf("mid = %+v, want infected at 100 via o1", mid)
	}
	// Mid re-emitted with a matching template symbol: 0.9 + 0.05.
	if mid.Confidence != 0.95 {
		t.Fatalf("mid confidence = %v, want 0.95", mid.Confidence)
	}
	if len(mid.Children) != 1 {
		t.Fatalf("mid children = %d, want 1", len(mid.Children))
	}
	leaf := mid.Children[0]
	if leaf.Host != netip.MustParseAddr("172.16.0.2") || leaf.Confidence != 0.6 {
		t.Fatalf("leaf = %+v, want witnessed-delivery confidence 0.6", leaf)
	}
}

// TestTraceDeterministicUnderPermutation shuffles the observation list
// and checks the forest never changes — Trace must be a pure function
// of the set, not the order.
func TestTraceDeterministicUnderPermutation(t *testing.T) {
	sample := Merge(sampleObservations(5, 80), nil)
	want := canonical(t, nil)
	{
		b, err := json.Marshal(Trace(sample))
		if err != nil {
			t.Fatal(err)
		}
		want = string(b)
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 20; round++ {
		shuffled := append([]Observation(nil), sample...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b, err := json.Marshal(Trace(shuffled))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Fatalf("round %d: permuted input changed the forest", round)
		}
	}
}

// TestTraceFamiliesNeverLink checks observations with different tails
// build disjoint trees: no cross-family edge can exist.
func TestTraceFamiliesNeverLink(t *testing.T) {
	a := obs(1, tailOf("worm-a"), "10.0.0.1", "172.16.0.1", 100)
	// Same hosts involved in a second family — must still be two trees.
	b := obs(2, tailOf("worm-b"), "172.16.0.1", "10.0.0.1", 200)
	trees := Trace([]Observation{a, b})
	if len(trees) != 2 {
		t.Fatalf("%d trees, want 2 (one per family)", len(trees))
	}
	for _, tr := range trees {
		if tr.Nodes != 2 {
			t.Fatalf("family %v has %d nodes, want 2", tr.Tail, tr.Nodes)
		}
	}
}

// TestTraceNoObservationsNoTrees is the zero-false-edges floor:
// benign suites produce no observations, hence no trees; observations
// without a tail or with invalid addresses contribute nothing.
func TestTraceNoObservationsNoTrees(t *testing.T) {
	if trees := Trace(nil); trees != nil {
		t.Fatalf("Trace(nil) = %v, want none", trees)
	}
	noTail := obs(1, core.Fingerprint{}, "10.0.0.1", "172.16.0.1", 100)
	invalid := Observation{Exact: core.FingerprintOf([]byte("x")), Tail: tailOf("worm-a"), FirstUS: 5}
	if trees := Trace([]Observation{noTail, invalid}); trees != nil {
		t.Fatalf("tail-less/invalid observations produced trees: %v", trees)
	}
}

// TestTraceCycleBreaks feeds mutually-referential deliveries (possible
// under clock skew) and checks every host still appears exactly once,
// with the deterministic promotion rule picking the root.
func TestTraceCycleBreaks(t *testing.T) {
	tail := tailOf("worm-a")
	a := obs(1, tail, "10.0.0.1", "10.0.0.2", 100)
	b := obs(2, tail, "10.0.0.2", "10.0.0.1", 100)
	trees := Trace([]Observation{a, b})
	total := 0
	seen := map[netip.Addr]bool{}
	var walk func(n TreeNode)
	walk = func(n TreeNode) {
		if seen[n.Host] {
			t.Fatalf("host %v appears twice", n.Host)
		}
		seen[n.Host] = true
		total++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, tr := range trees {
		walk(tr.Root)
	}
	if total != 2 {
		t.Fatalf("cycle trace covered %d hosts, want 2", total)
	}
	// Promotion picks the smallest host as the entry point.
	if len(trees) == 0 || trees[0].Root.Host != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("trees = %+v, want root 10.0.0.1", trees)
	}
}

// TestTraceSelfDeliveryIsRoot checks a host whose only delivery names
// itself as source (loopback replay) roots its own tree rather than
// gaining a self-edge.
func TestTraceSelfDeliveryIsRoot(t *testing.T) {
	tail := tailOf("worm-a")
	self := obs(1, tail, "10.0.0.1", "10.0.0.1", 100)
	trees := Trace([]Observation{self})
	if len(trees) != 1 || trees[0].Nodes != 1 || trees[0].Root.Confidence != 0 {
		t.Fatalf("trees = %+v, want one single-node tree", trees)
	}
}
