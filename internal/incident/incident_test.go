package incident

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"semnids/internal/core"
	"semnids/internal/lineage"
	"semnids/internal/sem"
)

var (
	attacker = netip.MustParseAddr("10.0.0.1")
	victim   = netip.MustParseAddr("172.16.0.1")
	next     = netip.MustParseAddr("172.16.0.2")
)

func addr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{192, 168, byte(i >> 8), byte(i)})
}

func flowOpen(src, dst netip.Addr, ts uint64) core.Event {
	return core.Event{Kind: core.EventFlowOpen, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 1234, DstPort: 80}
}

func alert(src, dst netip.Addr, ts uint64, fp core.Fingerprint) core.Event {
	return core.Event{
		Kind: core.EventAlert, TimestampUS: ts, Src: src, Dst: dst,
		SrcPort: 1234, DstPort: 80, Fingerprint: fp,
		Template: "code-red-ii", Severity: "high",
	}
}

func emission(src, dst netip.Addr, ts uint64, fp core.Fingerprint) core.Event {
	return core.Event{
		Kind: core.EventFingerprint, TimestampUS: ts, Src: src, Dst: dst,
		SrcPort: 4321, DstPort: 80, Fingerprint: fp,
	}
}

// find returns the incident for src, failing the test if absent.
func find(t *testing.T, incs []Incident, src netip.Addr) Incident {
	t.Helper()
	for _, inc := range incs {
		if inc.Src == src {
			return inc
		}
	}
	t.Fatalf("no incident for %s in %v", src, incs)
	return Incident{}
}

// TestKillChain drives one source through all three stages and checks
// the derived incident: stage, transition times, severity escalation
// and the propagation victim.
func TestKillChain(t *testing.T) {
	c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
	defer c.Stop()

	fp := core.FingerprintOf([]byte("worm payload"))
	// Fan-out: three destinations inside the window -> RECON at the
	// third contact.
	c.Publish(flowOpen(attacker, addr(1), 1000))
	c.Publish(flowOpen(attacker, addr(2), 2000))
	c.Publish(flowOpen(attacker, addr(3), 3000))
	// Exploit delivery.
	c.Publish(alert(attacker, victim, 5000, fp))
	// The victim re-emits the payload later: propagation.
	c.Publish(emission(victim, next, 9000, fp))
	c.Flush()

	inc := find(t, c.Incidents(), attacker)
	if inc.Stage != StagePropagation {
		t.Fatalf("stage = %v, want PROPAGATION", inc.Stage)
	}
	want := []Transition{{StageRecon, 3000}, {StageExploit, 5000}, {StagePropagation, 9000}}
	if len(inc.Transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", inc.Transitions, want)
	}
	for i := range want {
		if inc.Transitions[i] != want[i] {
			t.Errorf("transition[%d] = %v, want %v", i, inc.Transitions[i], want[i])
		}
	}
	if inc.Severity != "critical" {
		t.Errorf("severity = %q, want critical (propagation escalates)", inc.Severity)
	}
	if len(inc.Victims) != 1 || inc.Victims[0] != victim.String() {
		t.Errorf("victims = %v, want [%s]", inc.Victims, victim)
	}
	if inc.Alerts != 1 || inc.Templates[0] != "code-red-ii" {
		t.Errorf("alerts/templates = %d/%v", inc.Alerts, inc.Templates)
	}
}

// TestOrderIndependence applies the same event set in opposite orders
// — including the propagation echo arriving before the alert that
// explains it, as cross-shard interleaving can deliver — and demands
// identical derived incidents.
func TestOrderIndependence(t *testing.T) {
	fp := core.FingerprintOf([]byte("payload"))
	events := []core.Event{
		flowOpen(attacker, addr(1), 1000),
		flowOpen(attacker, addr(2), 2000),
		flowOpen(attacker, addr(3), 3000),
		alert(attacker, victim, 5000, fp),
		emission(victim, next, 9000, fp),
	}

	render := func(order []core.Event) string {
		c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
		defer c.Stop()
		for _, ev := range order {
			c.Publish(ev)
		}
		c.Flush()
		return fmt.Sprint(c.Incidents())
	}

	forward := render(events)
	reversed := make([]core.Event, len(events))
	for i, ev := range events {
		reversed[len(events)-1-i] = ev
	}
	backward := render(reversed)
	if forward != backward {
		t.Fatalf("incident set depends on event order:\n forward: %s\nbackward: %s", forward, backward)
	}
	if forward == "[]" {
		t.Fatal("no incidents derived")
	}
}

// TestPropagationStraddlingEmissions covers the cross-infection edge:
// the victim was already emitting the payload when a second attacker
// hit it (emissions at t=5 and t=15 straddle the t=10 alert). Every
// arrival order must converge on the same verdict — the attacker
// propagates, with the canonical echo just after its own delivery.
func TestPropagationStraddlingEmissions(t *testing.T) {
	fp := core.FingerprintOf([]byte("worm"))
	events := []core.Event{
		emission(victim, next, 5, fp),
		alert(attacker, victim, 10, fp),
		emission(victim, next, 15, fp),
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {0, 2, 1}, {1, 0, 2}, {2, 0, 1}, {1, 2, 0}}
	var want string
	for i, order := range orders {
		c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}})
		for _, idx := range order {
			c.Publish(events[idx])
		}
		c.Flush()
		inc := find(t, c.Incidents(), attacker)
		c.Stop()
		if inc.Stage != StagePropagation {
			t.Fatalf("order %v: stage = %v, want PROPAGATION", order, inc.Stage)
		}
		got := fmt.Sprint(inc)
		if i == 0 {
			want = got
			// The victim emitted before and after the attack: the
			// canonical echo is just after the delivery.
			if at := inc.Transitions[len(inc.Transitions)-1].AtUS; at != 11 {
				t.Fatalf("echo time = %d, want 11", at)
			}
			continue
		}
		if got != want {
			t.Fatalf("order %v diverged:\n got: %s\nwant: %s", order, got, want)
		}
	}
}

// TestFanoutWindow checks RECON requires the fan-out inside one
// sliding window: the same three destinations spread wider stay NONE.
func TestFanoutWindow(t *testing.T) {
	c := New(Config{Params: Params{WindowUS: 1e6, FanoutThreshold: 3}})
	defer c.Stop()
	c.Publish(flowOpen(attacker, addr(1), 1000))
	c.Publish(flowOpen(attacker, addr(2), 2e6))
	c.Publish(flowOpen(attacker, addr(3), 4e6))
	c.Flush()
	if incs := c.Incidents(); len(incs) != 0 {
		t.Fatalf("slow scan inside a 1s window produced incidents: %v", incs)
	}
}

// TestSeverityFloor checks a recon-only incident carries the floor
// severity and an exploit adopts its alert's.
func TestSeverityFloor(t *testing.T) {
	c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 2}})
	defer c.Stop()
	c.Publish(flowOpen(attacker, addr(1), 1000))
	c.Publish(flowOpen(attacker, addr(2), 2000))
	c.Flush()
	if inc := find(t, c.Incidents(), attacker); inc.Severity != "low" || inc.Stage != StageRecon {
		t.Fatalf("recon incident = %v, want low/RECON", inc)
	}
}

// TestSourceLRUBound feeds more sources than the source cap and checks
// the tracked-state gauge stays at the cap with evictions counted.
func TestSourceLRUBound(t *testing.T) {
	const cap = 64
	c := New(Config{maxSources: cap})
	defer c.Stop()
	for i := 0; i < 10*cap; i++ {
		c.Publish(flowOpen(addr(i), addr(20000+i), uint64(1000+i)))
	}
	c.Flush()
	m := c.Metrics()
	if m.SourcesTracked > cap {
		t.Fatalf("tracked sources = %d, cap %d", m.SourcesTracked, cap)
	}
	if m.SourcesEvictedLRU == 0 {
		t.Fatal("no LRU evictions despite 10x the source cap")
	}
	// Rising timestamps: the cap finalizes the oldest source each time,
	// so exactly the last cap sources are left.
	var kept []netip.Addr
	for _, se := range c.Export("s").Sources {
		kept = append(kept, se.Src)
	}
	var want []netip.Addr
	for i := 9 * cap; i < 10*cap; i++ {
		want = append(want, addr(i))
	}
	if !slices.Equal(kept, want) {
		t.Fatalf("tracked sources %v, want the last %d: %v", kept, cap, want)
	}
	if m.SourcesEvictedLRU != 9*cap {
		t.Fatalf("LRU evictions = %d, want %d", m.SourcesEvictedLRU, 9*cap)
	}
}

// TestEvictionOrderIndependence applies one event set forward and
// reversed to a correlator with a small source cap, over a trace that
// spans three idle windows, and demands the same rendered incidents,
// the same exported evidence and the same eviction counts. The cap and
// the sweep finalize by (stamp, address), a function of the evidence
// applied; finalizing by the order events were applied in keeps a
// different set of sources in each direction.
//
// The set: source z is seen once at the start and once, identically,
// at the end, so each direction's first sweep finalizes it for idleness
// and its last event brings it back. An attacker delivers a payload to
// a victim that keeps emitting it for three idle windows, interleaved
// with one-shot sources (every third also alerts) that overflow the
// cap. The attacker is kept alive by the echoes alone.
//
// Midway the victim also emits variants of one decoded tail, each a
// sketch-bearing fingerprint event, all at one instant and more than
// the test-lowered lineage cap: the observations tie on every witness
// field but the exact fingerprint, and the cap must keep the same ones
// both ways. They come in ascending fingerprint order, so one
// direction offers the full set its greatest observation last and the
// other its least.
func TestEvictionOrderIndependence(t *testing.T) {
	const cap, n, linCap, variants = 8, 60, 4, 12
	step := uint64(sourceIdleUS / 20)
	fp := core.FingerprintOf([]byte("worm"))
	z := netip.MustParseAddr("10.9.9.9")
	t0 := uint64(sourceIdleUS + 2000)
	events := []core.Event{flowOpen(z, addr(9000), 1000), alert(attacker, victim, t0, fp)}
	for i := 0; i < n; i++ {
		ts := t0 + uint64(i+1)*step
		events = append(events, emission(victim, next, ts, fp), flowOpen(addr(i), addr(5000+i), ts+1))
		if i%3 == 0 {
			events = append(events, alert(addr(i), addr(5000+i), ts+2, core.Fingerprint{}))
		}
		if i == n/2 {
			for v := 0; v < variants; v++ {
				ev := emission(victim, next, ts, core.Fingerprint{A: 0x7a11, B: uint64(v), N: 512})
				ev.Sketch = sem.Sketch{Template: 7, TailA: 1, TailB: 2, TailN: 64}
				events = append(events, ev)
			}
		}
	}
	events = append(events, flowOpen(z, addr(9000), 1000))

	type result struct {
		incidents, export string
		lru, idle         uint64
		lineage           int
	}
	run := func(order []core.Event) result {
		c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3}, maxSources: cap})
		defer c.Stop()
		c.mu.Lock()
		c.lin = lineage.NewSet(linCap)
		c.mu.Unlock()
		for _, ev := range order {
			c.Publish(ev)
		}
		c.Flush()
		ex, err := json.Marshal(c.Export("s"))
		if err != nil {
			t.Fatal(err)
		}
		m := c.Metrics()
		return result{fmt.Sprint(c.Incidents()), string(ex), m.SourcesEvictedLRU, m.SourcesEvictedIdle, m.LineageTracked}
	}
	forward := run(events)
	slices.Reverse(events)
	backward := run(events)
	if forward.lru != backward.lru || forward.idle != backward.idle {
		t.Errorf("evictions depend on apply order: forward lru=%d idle=%d, reversed lru=%d idle=%d",
			forward.lru, forward.idle, backward.lru, backward.idle)
	}
	if forward.lru != n-5 || forward.idle != 1 {
		t.Errorf("forward lru=%d idle=%d, want %d and 1", forward.lru, forward.idle, n-5)
	}
	if forward.incidents != backward.incidents {
		t.Errorf("incident set depends on apply order:\n forward: %s\nreversed: %s", forward.incidents, backward.incidents)
	}
	if forward.export != backward.export {
		t.Errorf("exported evidence depends on apply order:\n forward: %s\nreversed: %s", forward.export, backward.export)
	}
	if !strings.Contains(forward.incidents, "PROPAGATION") {
		t.Errorf("attacker did not reach PROPAGATION: %s", forward.incidents)
	}
	if forward.lineage != linCap || backward.lineage != linCap {
		t.Errorf("lineage observations tracked forward %d, reversed %d, want the cap, %d", forward.lineage, backward.lineage, linCap)
	}
}

// TestIdleSweep advances trace time past the 10-minute idle timeout
// and checks staged sources are finalized into the completed set while
// their live state is released.
func TestIdleSweep(t *testing.T) {
	c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 2}})
	defer c.Stop()
	c.Publish(flowOpen(attacker, addr(1), 1000))
	c.Publish(flowOpen(attacker, addr(2), 2000))
	// Unrelated activity past the idle timeout triggers the sweep.
	c.Publish(flowOpen(victim, addr(3), sourceIdleUS+10e6))
	c.Flush()
	m := c.Metrics()
	if m.SourcesEvictedIdle == 0 {
		t.Fatal("idle sweep did not run")
	}
	// The staged incident survives finalization.
	inc := find(t, c.Incidents(), attacker)
	if inc.Stage != StageRecon {
		t.Fatalf("finalized incident stage = %v, want RECON", inc.Stage)
	}
}

// TestOnIncidentStageOrder checks that each stage a source reaches is
// announced to Config.OnIncident once, in the order reached: the scan
// that completes the fan-out raises RECON, the alert EXPLOIT, and
// neither the flows after the threshold nor a second alert announce
// again.
func TestOnIncidentStageOrder(t *testing.T) {
	var got []Stage
	c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 2},
		OnIncident: func(inc Incident) {
			if inc.Src != attacker {
				t.Errorf("announcement for %v, want only %v", inc.Src, attacker)
			}
			got = append(got, inc.Stage)
		}})
	defer c.Stop()

	c.Publish(flowOpen(attacker, addr(1), 1000))
	c.Publish(flowOpen(attacker, addr(2), 2000))
	c.Publish(flowOpen(attacker, addr(3), 3000))
	c.Publish(alert(attacker, victim, 5000, core.Fingerprint{}))
	c.Publish(alert(attacker, victim, 6000, core.Fingerprint{}))
	c.Flush()

	if want := []Stage{StageRecon, StageExploit}; !slices.Equal(got, want) {
		t.Fatalf("announced stages %v, want %v", got, want)
	}
}

// TestEscalationKeepsAttackerAlive pins the sweep bookkeeping: an
// attacker that goes quiet while its victims keep echoing its payload
// must not be idle-finalized mid-outbreak — finalization would
// resurrect it as a fresh skeleton on the next echo and announce the
// same PROPAGATION incident twice.
func TestEscalationKeepsAttackerAlive(t *testing.T) {
	var propagations int
	c := New(Config{Params: Params{WindowUS: 10e6, FanoutThreshold: 3},
		OnIncident: func(inc Incident) {
			if inc.Src == attacker && inc.Stage == StagePropagation {
				propagations++
			}
		}})
	defer c.Stop()

	fp := core.FingerprintOf([]byte("worm"))
	c.Publish(alert(attacker, victim, 1000, fp))
	// The attacker never speaks again; its victim keeps echoing far
	// past the idle window, with sweeps triggering in between. The
	// victim's own follow-up activity re-positions it in front of the
	// attacker in the recency list, so the sweep examines the attacker
	// — whose direct-observation clock is ancient — first.
	for ts := uint64(2000); ts < 6*sourceIdleUS; ts += 4 * sourceIdleUS / 10 {
		c.Publish(emission(victim, next, ts, fp))
		// Enough trace-time advance (over a quarter of the idle window)
		// that this event runs a sweep of its own, finding the attacker
		// at the back of the recency list.
		c.Publish(flowOpen(victim, addr(1), ts+3*sourceIdleUS/10))
	}
	c.Flush()

	var found int
	for _, inc := range c.Incidents() {
		if inc.Src == attacker {
			found++
			if inc.Stage != StagePropagation || inc.FirstUS == 0 {
				t.Fatalf("attacker incident degraded to a skeleton: %+v", inc)
			}
		}
	}
	if found != 1 {
		t.Fatalf("attacker rendered %d incidents, want exactly 1 (no finalize/resurrect split)", found)
	}
	if propagations != 1 {
		t.Fatalf("PROPAGATION announced %d times, want once", propagations)
	}
}

// TestMinKSetDeterministic checks the evidence cap keeps the
// minimum-timestamp entries whatever the insertion order, including
// equal-timestamp ties (broken by key) and the cached-max rejection
// path (repeated too-new inserts against a full set).
func TestMinKSetDeterministic(t *testing.T) {
	ins := [][2]int{{5, 50}, {1, 10}, {3, 30}, {2, 20}, {4, 40}}
	for trial := 0; trial < len(ins); trial++ {
		s := newMinKSet[netip.Addr](lessAddr)
		for i := range ins {
			e := ins[(i+trial)%len(ins)]
			s.put(addr(e[0]), uint64(e[1]), 3)
		}
		// Saturate the rejection fast path.
		for i := 0; i < 10; i++ {
			s.put(addr(100+i), 99, 3)
		}
		for _, want := range []int{1, 2, 3} {
			if _, ok := s.get(addr(want)); !ok {
				t.Fatalf("trial %d: min-3 set %v missing %v", trial, s.m, addr(want))
			}
		}
	}

	// Equal timestamps: retention must depend on the keys, not on
	// which insert came first.
	for _, order := range [][]int{{1, 2, 3, 4}, {4, 3, 2, 1}} {
		s := newMinKSet[netip.Addr](lessAddr)
		for _, k := range order {
			s.put(addr(k), 7, 3)
		}
		for _, want := range []int{1, 2, 3} {
			if _, ok := s.get(addr(want)); !ok {
				t.Fatalf("order %v: tie retention %v missing %v", order, s.m, addr(want))
			}
		}
	}
}
