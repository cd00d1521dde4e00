package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/engine"
	"semnids/internal/fed"
	"semnids/internal/incident"
	"semnids/internal/netpkt"
	"semnids/internal/sem"
	"semnids/internal/traffic"
)

// The differential suite: the aggregator folds pushes into a live
// state, skips frames it has folded before and checkpoints cached
// frames; fed.ReadExport (the same segment reader, without a memo) +
// fed.Merge (a fresh Fold per merge) remain as the oracle. Merge is a
// join, so the chain stands for every order of the same pushes. Over
// generated push sequences the two must agree on wire bytes after
// every acknowledged push, in memory and on disk.

// outbreakCheckpoints analyses a trace the way a federated deployment
// would: partitioned by source address across `sensors` real engines
// (every host's own traffic stays at one vantage, every propagation
// link straddles the cut), each exporting its growing evidence —
// correlator, classifier and lineage planes — after each of `steps`
// slices of the trace.
func outbreakCheckpoints(pkts []*netpkt.Packet, sensors, steps int) [][]*incident.EvidenceExport {
	out := make([][]*incident.EvidenceExport, sensors)
	for s := range out {
		name := fmt.Sprintf("sensor-%d", s)
		corr := incident.New(incident.Config{})
		eng := engine.New(engine.Config{
			Classify:  classify.Config{Honeypots: []netip.Addr{traffic.HoneypotAddr}, DarkSpace: []netip.Prefix{traffic.DarkNet}},
			Templates: sem.BuiltinTemplates(),
			SensorID:  name,
			Shards:    1,
			Lineage:   true,
			OnEvent:   corr.Publish,
		})
		for k := 0; k < steps; k++ {
			for _, p := range pkts[len(pkts)*k/steps : len(pkts)*(k+1)/steps] {
				if engine.FlowHash(netpkt.FlowKey{SrcIP: p.SrcIP}, sensors) != s {
					continue
				}
				q := *p
				q.Payload = append([]byte(nil), p.Payload...)
				eng.Process(&q)
			}
			eng.Drain()
			corr.Flush()
			ex := corr.Export(name)
			ex.Classifier = append(ex.Classifier, eng.Classifier().ExportState()...)
			out[s] = append(out[s], ex)
		}
		eng.Stop()
		corr.Stop()
	}
	return out
}

// The traces are analysed once per process: -count reruns and the
// memo variants push the same checkpoints.
var outbreaks = sync.OnceValue(func() map[string][][]*incident.EvidenceExport {
	return map[string][][]*incident.EvidenceExport{
		"polymorph": outbreakCheckpoints(traffic.PolymorphOutbreak(traffic.PolymorphSpec{Seed: 7, Generations: 3, FanoutPerHost: 3, BenignSessions: 4}), 4, 4),
		"worm":      outbreakCheckpoints(traffic.WormOutbreak(traffic.WormSpec{Seed: 11, Generations: 3, FanoutPerHost: 3, BenignSessions: 4}), 3, 4),
	}
})

// pushOp is one step of a generated sequence.
type pushOp struct {
	name    string
	body    []byte
	restart bool // crash-kill the aggregator and reopen its directory
}

// pushSequence generates one arrival order over the sensors'
// checkpoints: every sensor's snapshots in order but sensors
// interleaved at random, with a duplicate delivery, a stale snapshot
// after a newer one, a two-checkpoint segment cut after its first
// commit mark (then resent whole), a never-pushed checkpoint refused
// for parameter skew before it arrives under the right header, a
// checkpoint preceded by one of its new victim records alone
// (victimAhead), a corrupt body, and a crash in the middle.
func pushSequence(t testing.TB, rng *rand.Rand, snaps [][]*incident.EvidenceExport) []pushOp {
	next := make([]int, len(snaps))
	var ops []pushOp
	remaining := 0
	for _, s := range snaps {
		remaining += len(s)
	}
	total := remaining
	for remaining > 0 {
		s := rng.Intn(len(snaps))
		if next[s] == len(snaps[s]) {
			continue
		}
		k := next[s]
		next[s]++
		remaining--
		ex := snaps[s][k]
		name := fmt.Sprintf("sensor-%d/ckpt-%d", s, k)
		if k > 0 {
			if ahead := victimAhead(snaps[s][k-1], ex); ahead != nil {
				ops = append(ops, pushOp{name: name + " one victim ahead", body: encode(t, ahead)})
			}
		}
		switch body := encode(t, ex); {
		case len(ops) > 0 && rng.Intn(5) == 0:
			// Refused first: the same frames under a header this
			// aggregator cannot fold. Nothing of it may be remembered.
			skewed := *ex
			skewed.WindowUS *= 2
			ops = append(ops, pushOp{name: name + " skewed", body: encode(t, &skewed)}, pushOp{name: name, body: body})
		case k > 0 && rng.Intn(4) == 0:
			// A spooled segment: the previous checkpoint's group, then
			// this one — first cut a few bytes into the second group.
			prev := encode(t, snaps[s][k-1])
			seg := append(append([]byte(nil), prev...), body...)
			cut := len(prev) + 1 + rng.Intn(len(body)-2)
			ops = append(ops, pushOp{name: name + " cut after a commit", body: seg[:cut]}, pushOp{name: name + " whole segment", body: seg})
		default:
			ops = append(ops, pushOp{name: name, body: body})
		}
		switch {
		case rng.Intn(6) == 0:
			ops = append(ops, pushOp{name: name + " again", body: encode(t, ex)})
		case k > 0 && rng.Intn(6) == 0:
			ops = append(ops, pushOp{name: fmt.Sprintf("sensor-%d/ckpt-%d stale", s, k-1), body: encode(t, snaps[s][k-1])})
		case rng.Intn(8) == 0:
			ops = append(ops, pushOp{name: name + " corrupt", body: encode(t, ex)[:40]})
		}
		if remaining == total/2 {
			ops = append(ops, pushOp{name: "crash", restart: true})
		}
	}
	return ops
}

// victimAhead is a checkpoint in the making: prev with the first source
// record whose emissions changed in next brought up to date, or nil.
// Pushed before next, it leaves next's other new victim evidence to
// escalate an attacker whose record next carries unchanged — a frame
// the memo skips — so the escalation alone must mark that record
// changed.
func victimAhead(prev, next *incident.EvidenceExport) *incident.EvidenceExport {
	at := make(map[netip.Addr]int, len(prev.Sources))
	for i := range prev.Sources {
		at[prev.Sources[i].Src] = i
	}
	for _, rec := range next.Sources {
		i, held := at[rec.Src]
		if len(rec.Emitted) == 0 || held && reflect.DeepEqual(prev.Sources[i].Emitted, rec.Emitted) {
			continue
		}
		ahead := *prev
		ahead.Sources = slices.Clone(prev.Sources)
		if held {
			ahead.Sources[i] = rec
		} else {
			i, _ = slices.BinarySearchFunc(ahead.Sources, rec.Src, func(r incident.SourceEvidence, a netip.Addr) int { return r.Src.Compare(a) })
			ahead.Sources = slices.Insert(ahead.Sources, i, rec)
		}
		return &ahead
	}
	return nil
}

// TestFoldDifferential drives generated push sequences at an
// aggregator — default memo, a memo of one frame, no memo — and after
// every push checks the status the reference path predicts and, after
// every 2xx, that the aggregator's export and the newest checkpoint in
// its directory both equal the fed.Merge chain on WriteExport bytes.
func TestFoldDifferential(t *testing.T) {
	for trace, snaps := range outbreaks() {
		for _, memo := range []int{-1, 1, 0} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/memo=%d/seed=%d", trace, memo, seed), func(t *testing.T) {
					runFoldDifferential(t, snaps, memo, seed)
				})
			}
		}
	}
}

func runFoldDifferential(t *testing.T, snaps [][]*incident.EvidenceExport, memo int, seed int64) {
	dir := t.TempDir()
	open := func() (*Aggregator, *httptest.Server) {
		agg := newAggregator(t, dir, nil)
		if memo >= 0 {
			agg.state.LimitMemo(memo)
		}
		return agg, httptest.NewServer(agg)
	}
	agg, srv := open()
	defer func() {
		srv.Close()
		agg.Close()
	}()

	var chain *incident.EvidenceExport
	folded, skipped := 0, 0
	for i, op := range pushSequence(t, rand.New(rand.NewSource(seed)), snaps) {
		if op.restart {
			agg.Kill()
			srv.Close()
			agg, srv = open()
			if chain != nil && !bytes.Equal(encode(t, agg.Export()), encode(t, chain)) {
				t.Fatalf("op %d: restart did not recover the acknowledged state", i)
			}
			continue
		}
		// The reference path: decode the newest committed checkpoint,
		// merge it into the chain.
		want := http.StatusOK
		next := chain
		if ex, err := fed.ReadExport(bytes.NewReader(op.body)); err != nil {
			want = http.StatusBadRequest
		} else if chain == nil {
			next = ex
		} else if next, err = fed.Merge(chain, ex); err != nil {
			want, next = http.StatusConflict, chain
		}
		before := agg.state.Stats()
		if got := post(t, srv.URL, op.body); got != want {
			t.Fatalf("op %d (%s): status %d, the reference path says %d", i, op.name, got, want)
		}
		after := agg.state.Stats()
		folded += int(after.FramesFolded - before.FramesFolded)
		skipped += int(after.FramesSkipped - before.FramesSkipped)
		if want != http.StatusOK {
			if chain != nil && !bytes.Equal(encode(t, agg.Export()), encode(t, chain)) {
				t.Fatalf("op %d (%s): a refused push changed the state", i, op.name)
			}
			continue
		}
		chain = next
		wantBytes := encode(t, chain)
		if got := encode(t, agg.Export()); !bytes.Equal(got, wantBytes) {
			t.Fatalf("op %d (%s): export diverged from the fed.Merge chain%s", i, op.name, firstDifference(t, agg.Export(), chain))
		}
		rec, err := fed.Recover(dir)
		if err != nil || rec == nil {
			t.Fatalf("op %d (%s): recover: %v", i, op.name, err)
		}
		if got := encode(t, rec); !bytes.Equal(got, wantBytes) {
			t.Fatalf("op %d (%s): the newest checkpoint on disk is not the acknowledged state%s", i, op.name, firstDifference(t, rec, chain))
		}
		if m := after.MemoEntries; memo >= 0 && m > memo {
			t.Fatalf("op %d (%s): memo holds %d frames, limit %d", i, op.name, m, memo)
		}
	}
	t.Logf("%d sources, %d lineage records; %d frames folded, %d skipped", len(chain.Sources), len(chain.Lineage), folded, skipped)
	switch {
	case memo == 0 && skipped != 0:
		t.Fatalf("skipped %d frames with the memo off", skipped)
	case memo < 0 && skipped == 0:
		t.Fatalf("the default memo skipped none of %d frames: the sequence never exercised it", folded)
	}
}

// firstDifference names the first record two exports disagree on.
func firstDifference(t testing.TB, got, want *incident.EvidenceExport) string {
	for i := range want.Sources {
		if i >= len(got.Sources) {
			return fmt.Sprintf("\n%d sources, want %d", len(got.Sources), len(want.Sources))
		}
		a, b := *got, *want
		a.Sources, b.Sources = got.Sources[i:i+1], want.Sources[i:i+1]
		a.Classifier, a.Lineage, b.Classifier, b.Lineage = nil, nil, nil, nil
		if !bytes.Equal(encode(t, &a), encode(t, &b)) {
			return fmt.Sprintf("\n got: %+v\nwant: %+v", got.Sources[i], want.Sources[i])
		}
	}
	return fmt.Sprintf("\n(sources agree; sensors %v vs %v, %d/%d classifier, %d/%d lineage records)",
		got.Sensors, want.Sensors, len(got.Classifier), len(want.Classifier), len(got.Lineage), len(want.Lineage))
}
