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
// Observe/Import calls over the same underlying observations converges
// to the same canonical Export — and Trace is a pure function of that
// export. Shard counts, federation order and merge bracketing cannot
// change the rendered ancestry.
package lineage

import (
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/sem"
	"semnids/internal/telemetry"
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

// lessFP is the total order on fingerprints used everywhere in this
// package (identical to the correlator's).
func lessFP(a, b core.Fingerprint) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.N < b.N
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
	return lessFP(a.Exact, b.Exact)
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
	dst.Sensors = core.SortedUnion(dst.Sensors, src.Sensors)
}

// StoreCap bounds a sensor-local store; MergeCap bounds a
// merged observation set. Both retain the smallest observations under
// witnessLess — keep-K-minima under a total order is associative, so
// capping preserves the determinism contract (for outbreaks within
// the cap, which is every test and any plausible incident window).
const (
	StoreCap = 4096
	MergeCap = 65536
)

// StoreConfig parameterizes a Store.
type StoreConfig struct {
	// Sensor stamps locally-witnessed observations' provenance
	// (default engine.DefaultSensorID).
	Sensor string
	// Telemetry receives the lineage series (observations folded,
	// observations tracked). Nil creates a private registry.
	Telemetry *telemetry.Registry
}

// Store accumulates a sensor's lineage observations. Observe is called
// from shard goroutines (via the engine's event tap) and Export from
// the sink goroutine, hence the mutex; the hot path is one map lookup
// for frames that carry a sketch and zero work for frames that do not.
type Store struct {
	sensor string

	mu  sync.Mutex
	obs map[core.Fingerprint]*Observation

	folds atomic.Uint64
}

// NewStore builds a store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Sensor == "" {
		cfg.Sensor = engine.DefaultSensorID
	}
	s := &Store{
		sensor: cfg.Sensor,
		obs:    make(map[core.Fingerprint]*Observation),
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.CounterFunc("semnids_lineage_observations_total", "Lineage observations folded into the store.", s.folds.Load)
	reg.GaugeFunc("semnids_lineage_tracked", "Distinct payloads tracked by the lineage store.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.obs))
	})
	return s
}

// Observe folds one engine event. Only fingerprint/alert events whose
// sketch recovered a decoded tail contribute — everything else is a
// cheap early return.
func (s *Store) Observe(ev core.Event) {
	if !ev.Sketch.HasTail() || ev.Fingerprint.IsZero() {
		return
	}
	if ev.Kind != core.EventFingerprint && ev.Kind != core.EventAlert {
		return
	}
	o := Observation{
		Exact:       ev.Fingerprint,
		Tail:        TailFingerprint(ev.Sketch),
		TemplateSym: ev.Sketch.Template,
		StmtsSym:    ev.Sketch.Stmts,
		FirstUS:     ev.TimestampUS,
		Src:         ev.Src,
		Dst:         ev.Dst,
		Sensors:     []string{s.sensor},
	}
	s.mu.Lock()
	s.fold(&o)
	s.mu.Unlock()
}

// Import folds a federated observation set (from another sensor's
// export, or a merged aggregate) into the store. Idempotent.
func (s *Store) Import(obs []Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range obs {
		o := obs[i]
		o.Sensors = append([]string(nil), o.Sensors...)
		s.fold(&o)
	}
}

// fold merges one observation under the cap. Called with mu held.
func (s *Store) fold(o *Observation) {
	s.folds.Add(1)
	if cur, ok := s.obs[o.Exact]; ok {
		foldInto(cur, o)
		return
	}
	if len(s.obs) >= StoreCap {
		// Displace the largest retained witness if the newcomer is
		// smaller — keep-K-minima, the same discipline as the
		// correlator's evidence caps.
		var worst *Observation
		for _, cur := range s.obs {
			if worst == nil || witnessLess(worst, cur) {
				worst = cur
			}
		}
		if !witnessLess(o, worst) {
			return
		}
		delete(s.obs, worst.Exact)
	}
	cp := *o
	s.obs[o.Exact] = &cp
}

// Export snapshots the store as a canonical observation list, sorted
// by witness order.
func (s *Store) Export() []Observation {
	s.mu.Lock()
	out := make([]Observation, 0, len(s.obs))
	for _, o := range s.obs {
		cp := *o
		cp.Sensors = append([]string(nil), o.Sensors...)
		out = append(out, cp)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return witnessLess(&out[i], &out[j]) })
	return out
}

// Len reports distinct tracked payloads.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.obs)
}

// Merge unions two canonical observation lists into one, under
// MergeCap: a Set that folds both, trimmed and exported. Commutative,
// associative and idempotent on the canonical form: Merge(A,B) ==
// Merge(B,A) and Merge(A,A) == A.
func Merge(a, b []Observation) []Observation {
	s := NewSet()
	for _, obs := range [][]Observation{a, b} {
		for i := range obs {
			s.Fold(&obs[i])
		}
	}
	s.Trim()
	return s.Export()
}

// Set is the keyed observation set of a federated state, folded one
// observation at a time so a long-lived state pays only for what
// arrives. Not safe for concurrent use.
type Set struct {
	obs map[core.Fingerprint]*Observation
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{obs: make(map[core.Fingerprint]*Observation)} }

// Get returns the folded observation for one exact fingerprint. The
// returned value shares no mutable memory with the set: sensor sets
// are replaced, never appended to in place.
func (s *Set) Get(exact core.Fingerprint) (Observation, bool) {
	o, ok := s.obs[exact]
	if !ok {
		return Observation{}, false
	}
	return *o, true
}

// Fold merges one observation and reports whether the set changed.
func (s *Set) Fold(o *Observation) bool {
	cur, ok := s.obs[o.Exact]
	if !ok {
		cp := *o
		cp.Sensors = core.SortedUnion(o.Sensors, nil)
		s.obs[o.Exact] = &cp
		return true
	}
	before := *cur
	foldInto(cur, o)
	return cur.FirstUS != before.FirstUS || cur.Src != before.Src || cur.Dst != before.Dst ||
		cur.Tail != before.Tail || cur.TemplateSym != before.TemplateSym || cur.StmtsSym != before.StmtsSym ||
		!slices.Equal(cur.Sensors, before.Sensors)
}

// Trim enforces MergeCap — the smallest witnesses stay — and returns
// the fingerprints it dropped.
func (s *Set) Trim() []core.Fingerprint {
	if len(s.obs) <= MergeCap {
		return nil
	}
	all := make([]*Observation, 0, len(s.obs))
	for _, o := range s.obs {
		all = append(all, o)
	}
	sort.Slice(all, func(i, j int) bool { return witnessLess(all[i], all[j]) })
	dropped := make([]core.Fingerprint, 0, len(all)-MergeCap)
	for _, o := range all[MergeCap:] {
		dropped = append(dropped, o.Exact)
		delete(s.obs, o.Exact)
	}
	return dropped
}

// Export returns the set as a canonical observation list, sorted by
// witness order (nil when empty). It shares no mutable memory with
// the set.
func (s *Set) Export() []Observation {
	if len(s.obs) == 0 {
		return nil
	}
	out := make([]Observation, 0, len(s.obs))
	for _, o := range s.obs {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return witnessLess(&out[i], &out[j]) })
	return out
}

// Less is the canonical export order of observations (earliest
// witness first), the order Merge and Store.Export sort under.
func Less(a, b *Observation) bool { return witnessLess(a, b) }
