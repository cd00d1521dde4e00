// Package lineage reconstructs outbreak ancestry from structural
// payload fingerprints — the IPP-style tracing layer over the
// federated evidence plane.
//
// The correlator's PROPAGATION link requires an identical 128-bit
// payload fingerprint, so a polymorphic worm that re-encodes itself at
// every hop breaks the exact-match chain. The identifiable-parent
// property literature supplies the fix: treat the components a mutation
// engine cannot cheaply randomize as code symbols, and identify
// parents over the set of observed artifacts. Here the symbol is the
// frame's structural sketch (sem.Sketch): the emulator-decoded tail is
// the grouping key — a self-decrypting payload must reproduce its
// cleartext to run, whatever the encoder did to the bytes on the wire
// — while the template and statement symbols decorate edges with
// confidence.
//
// The package keeps the evidence plane's determinism contract: an
// Observation is keyed by its exact fingerprint and every fold is a
// minimum under a total order or a set union, so any sequence of
// Set.Fold calls over the same underlying observations converges to
// the same canonical Export — and Trace is a pure function of that
// export. Shard counts, federation order and merge bracketing cannot
// change the rendered ancestry.
package lineage

import (
	"net/netip"
	"sort"
	"sync"

	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/sem"
)

// Observation is one distinct hostile payload as first witnessed: the
// exact wire identity, its structural symbols, and the flow that first
// delivered it. The exact fingerprint is the key; everything else
// folds deterministically (the lexicographically smallest
// (FirstUS, Src, Dst) witness wins wholesale, sensor sets union).
type Observation struct {
	// Exact is the 128-bit fingerprint of the frame bytes — this
	// observation's identity.
	Exact core.Fingerprint `json:"exact"`

	// Tail is the fingerprint of the emulator-decoded tail, in the
	// same keyspace as exact fingerprints. Observations sharing a Tail
	// are re-encodings of the same cleartext — one payload family.
	Tail core.Fingerprint `json:"tail"`

	// TemplateSym and StmtsSym are the sketch's behavior-class and
	// decode-chain symbols, used as edge-confidence evidence.
	TemplateSym uint64 `json:"template_sym,omitempty"`
	StmtsSym    uint64 `json:"stmts_sym,omitempty"`

	// FirstUS, Src and Dst describe the earliest witnessed delivery of
	// this exact payload (trace time; Src delivered it to Dst).
	FirstUS uint64     `json:"first_us"`
	Src     netip.Addr `json:"src"`
	Dst     netip.Addr `json:"dst"`

	// Sensors is the provenance set: every sensor that observed this
	// payload. Sorted.
	Sensors []string `json:"sensors,omitempty"`
}

// TailFingerprint converts a sketch's decoded-tail hash into the
// shared 128-bit fingerprint keyspace (zero if the sketch has no
// tail).
func TailFingerprint(sk sem.Sketch) core.Fingerprint {
	if !sk.HasTail() {
		return core.Fingerprint{}
	}
	return core.Fingerprint{A: sk.TailA, B: sk.TailB, N: sk.TailN}
}

// witnessLess orders observations by earliest witness: (FirstUS, Src,
// Dst, Exact). A strict total order (Exact is unique per observation
// set), so min-folds and sorts under it are deterministic.
func witnessLess(a, b *Observation) bool {
	if a.FirstUS != b.FirstUS {
		return a.FirstUS < b.FirstUS
	}
	if a.Src != b.Src {
		return a.Src.Less(b.Src)
	}
	if a.Dst != b.Dst {
		return a.Dst.Less(b.Dst)
	}
	return a.Exact.Less(b.Exact)
}

// foldInto merges src into dst (same Exact): the earliest witness wins
// the delivery fields wholesale, sensors union. Commutative,
// associative and idempotent — the min of a total order plus a set
// union.
func foldInto(dst, src *Observation) {
	if witnessLess(src, dst) {
		dst.Tail = src.Tail
		dst.TemplateSym = src.TemplateSym
		dst.StmtsSym = src.StmtsSym
		dst.FirstUS = src.FirstUS
		dst.Src = src.Src
		dst.Dst = src.Dst
	}
	if len(src.Sensors) > 0 {
		dst.Sensors = core.SortedUnion(dst.Sensors, src.Sensors)
	}
}

// StoreCap bounds a sensor's live observation set (the incident
// correlator's); MergeCap bounds a merged one (an aggregator's fold,
// Merge). A Set at its cap keeps the smallest observations under
// witnessLess — keep-K-minima under a total order is associative, so
// capping preserves the determinism contract (for outbreaks within
// the cap, which is every test and any plausible incident window).
const (
	StoreCap = 4096
	MergeCap = 65536
)

// Witnessed returns the observation an engine event witnesses: an
// alert or fingerprint event whose sketch recovered a decoded tail.
// ok is false for every other event. The observation names no sensor;
// the set that folds it marks it live (Set.Fold).
func Witnessed(ev *core.Event) (o Observation, ok bool) {
	if !ev.Sketch.HasTail() || ev.Fingerprint.IsZero() {
		return Observation{}, false
	}
	if ev.Kind != core.EventFingerprint && ev.Kind != core.EventAlert {
		return Observation{}, false
	}
	return Observation{
		Exact:       ev.Fingerprint,
		Tail:        TailFingerprint(ev.Sketch),
		TemplateSym: ev.Sketch.Template,
		StmtsSym:    ev.Sketch.Stmts,
		FirstUS:     ev.TimestampUS,
		Src:         ev.Src,
		Dst:         ev.Dst,
	}, true
}

// StoreConfig parameterizes a Store.
//
// Deprecated: see Store.
type StoreConfig struct {
	// Sensor stamps locally-witnessed observations' provenance
	// (default engine.DefaultSensorID).
	Sensor string
}

// Store is a Set at StoreCap that folds engine events under a mutex.
//
// Deprecated: the incident correlator folds a sensor's lineage
// observations from the events it applies, and Correlator.Export
// carries them. Store stays only for the benchmark's staged and traced
// passes, which call NewStore, Observe and Export.
type Store struct {
	sensor string
	mu     sync.Mutex
	set    *Set
}

// NewStore builds a store.
//
// Deprecated: see Store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Sensor == "" {
		cfg.Sensor = engine.DefaultSensorID
	}
	return &Store{sensor: cfg.Sensor, set: NewSet(StoreCap)}
}

// Observe folds the observation one engine event witnesses, if any.
func (s *Store) Observe(ev core.Event) {
	if o, ok := Witnessed(&ev); ok {
		s.mu.Lock()
		s.set.Fold(&o, true)
		s.mu.Unlock()
	}
}

// Export snapshots the store as a canonical observation list.
func (s *Store) Export() []Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.Export(s.sensor)
}

// Merge unions two canonical observation lists into one, under
// MergeCap: a Set that folds both and exports. Commutative,
// associative and idempotent on the canonical form: Merge(A,B) ==
// Merge(B,A) and Merge(A,A) == A.
func Merge(a, b []Observation) []Observation {
	s := NewSet(MergeCap)
	for _, obs := range [][]Observation{a, b} {
		for i := range obs {
			s.Fold(&obs[i], false)
		}
	}
	return s.Export("")
}

// Set is a keyed observation set, folded one observation at a time and
// bounded by its cap: a sensor's live set, or the state of a federated
// fold. Not safe for concurrent use.
type Set struct {
	cap int
	obs map[core.Fingerprint]*entry
}

// entry is one held observation. live marks one the set has folded
// from an event its own sensor witnessed since it was admitted; Export
// adds the exporting sensor to its provenance.
type entry struct {
	Observation
	live bool
}

// NewSet returns an empty set that holds at most cap observations.
func NewSet(cap int) *Set {
	return &Set{cap: cap, obs: make(map[core.Fingerprint]*entry)}
}

// Len reports the distinct payloads held.
func (s *Set) Len() int { return len(s.obs) }

// Get returns the folded observation for one exact fingerprint,
// without the exporting sensor Export adds to a live one. The returned
// value shares no mutable memory with the set: sensor sets are
// replaced, never appended to in place.
func (s *Set) Get(exact core.Fingerprint) (Observation, bool) {
	e, ok := s.obs[exact]
	if !ok {
		return Observation{}, false
	}
	return e.Observation, true
}

// Fold merges one observation — live when the set's own sensor
// witnessed it — and reports whether the set changed. The cap keeps
// the K smallest witnesses: a new observation that finds the set full
// displaces the greatest held one if it is smaller, found by one scan,
// and is dropped otherwise. evicted is the displaced observation, nil
// if none.
func (s *Set) Fold(o *Observation, live bool) (changed bool, evicted *Observation) {
	if cur, ok := s.obs[o.Exact]; ok {
		moved, n := witnessLess(o, &cur.Observation), len(cur.Sensors)
		foldInto(&cur.Observation, o)
		changed = moved || len(cur.Sensors) != n || live && !cur.live
		cur.live = cur.live || live
		return changed, nil
	}
	if len(s.obs) >= s.cap {
		var worst *entry
		for _, cur := range s.obs {
			if worst == nil || witnessLess(&worst.Observation, &cur.Observation) {
				worst = cur
			}
		}
		if !witnessLess(o, &worst.Observation) {
			return false, nil
		}
		delete(s.obs, worst.Exact)
		evicted = &worst.Observation
	}
	e := &entry{Observation: *o, live: live}
	e.Sensors = core.SortedUnion(o.Sensors, nil)
	s.obs[o.Exact] = e
	return true, evicted
}

// Export returns the set as a canonical observation list, sorted by
// witness order (nil when empty), with sensor added to the provenance
// of every live observation. It shares no mutable memory with the
// set.
func (s *Set) Export(sensor string) []Observation {
	if len(s.obs) == 0 {
		return nil
	}
	local := []string{sensor}
	out := make([]Observation, 0, len(s.obs))
	for _, e := range s.obs {
		o := e.Observation
		if e.live {
			o.Sensors = core.SortedUnion(o.Sensors, local)
		}
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return witnessLess(&out[i], &out[j]) })
	return out
}

// Less is the canonical export order of observations (earliest
// witness first), the order Merge and Set.Export sort under.
func Less(a, b *Observation) bool { return witnessLess(a, b) }
