package fed

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"semnids/internal/incident"
)

// stagedExports returns successive evidence snapshots of a growing
// correlator — the shape a live sensor's Export produces over time.
func stagedExports(t *testing.T, n int) []*incident.EvidenceExport {
	t.Helper()
	evs := synthEvents(42, 200*n)
	var out []*incident.EvidenceExport
	c := incident.New(incident.Config{WindowUS: 30e6, FanoutThreshold: 3})
	defer c.Stop()
	per := len(evs) / n
	for i := 0; i < n; i++ {
		for _, ev := range evs[i*per : (i+1)*per] {
			c.Publish(ev)
		}
		c.Flush()
		out = append(out, c.Export("sensor-a"))
	}
	return out
}

// checkpointAll opens a sink whose Export pops the next staged
// snapshot (sticking at the last), then drives one checkpoint per
// snapshot through the notify path.
func checkpointAll(t *testing.T, dir string, exports []*incident.EvidenceExport, rotateBytes int64) *Sink {
	t.Helper()
	var calls atomic.Int64
	s, err := OpenSink(SinkConfig{
		Dir: dir,
		Retention: Retention{
			RotateBytes:     rotateBytes,
			CheckpointEvery: time.Hour, // notify-driven only, deterministic
		},
		Export: func() *incident.EvidenceExport {
			i := int(calls.Add(1)) - 1
			if i >= len(exports) {
				i = len(exports) - 1
			}
			return exports[i]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(exports); k++ {
		s.Notify()
		// Wait out each checkpoint so notifications never coalesce and
		// every staged snapshot lands.
		want := uint64(k)
		waitFor(t, func() bool { return s.Metrics().Checkpoints == want })
	}
	return s
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSinkRecoverLatest checks the happy path: a sink that wrote
// several checkpoints across several rotated segments recovers its
// newest state.
func TestSinkRecoverLatest(t *testing.T) {
	dir := t.TempDir()
	exports := stagedExports(t, 4)
	// Tiny rotation budget: every checkpoint lands in a fresh segment.
	s := checkpointAll(t, dir, exports, 1)
	s.Close()

	if m := s.Metrics(); m.Checkpoints != 5 || m.Errors != 0 {
		// 4 notify-driven plus Close's final checkpoint.
		t.Fatalf("sink metrics = %+v, want 5 checkpoints, 0 errors", m)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("nothing recovered")
	}
	want := exports[len(exports)-1]
	if !reflect.DeepEqual(got.Sources, want.Sources) {
		t.Fatalf("recovered sources diverged from the newest checkpoint")
	}

	// Retention: old segments pruned to the budget.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 4 {
		t.Fatalf("%d segments retained, budget 4", len(segs))
	}
}

// TestSinkCrashRecovery simulates the crash the satellite names: the
// process dies mid-rotation, leaving a partial final segment (its
// last checkpoint group has no commit mark). Recovery must fall back
// to the newest complete state — first the earlier committed
// checkpoint in the same segment, then, once the segment holds
// nothing committed, the previous segment.
func TestSinkCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	exports := stagedExports(t, 3)
	s := checkpointAll(t, dir, exports, 1<<30) // one segment, three groups
	s.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	last := filepath.Join(dir, segs[len(segs)-1].name)
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}

	// Find the final commit mark and cut inside the group it commits:
	// the tail checkpoint is now partial, exactly as a mid-write crash
	// leaves it.
	idx := bytes.LastIndex(data, []byte(`{"k":"end"`))
	if idx < 0 {
		t.Fatal("no commit mark in segment")
	}
	if err := os.WriteFile(last, data[:idx-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("nothing recovered from a segment with earlier committed checkpoints")
	}
	// The final checkpoint (Close's copy of exports[2]) is lost with
	// the commit mark; the one before it must be what recovery sees.
	if !reflect.DeepEqual(got.Sources, exports[2].Sources) {
		t.Fatal("recovery did not return the newest committed checkpoint")
	}

	// Now destroy every commit mark in the final segment: recovery
	// must fall back to... nothing here (single segment) → fresh start.
	if err := os.WriteFile(last, bytes.ReplaceAll(data, []byte(`{"k":"end"`), []byte(`{"k":"xxx"`)), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("recovered state from a segment with no committed checkpoint")
	}
}

// TestSinkCrashFallsBackOneSegment is the cross-segment half: the
// newest segment is entirely uncommitted (crash right after
// rotation), so recovery reads the one before it.
func TestSinkCrashFallsBackOneSegment(t *testing.T) {
	dir := t.TempDir()
	exports := stagedExports(t, 2)
	s := checkpointAll(t, dir, exports, 1) // segment per checkpoint
	s.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %v (%v)", segs, err)
	}
	// Truncate the newest segment just after its header record: a
	// crash between rotation and the first commit.
	last := filepath.Join(dir, segs[len(segs)-1].name)
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	if err := os.WriteFile(last, data[:nl+1], 0o644); err != nil {
		t.Fatal(err)
	}

	prev, err := os.ReadFile(filepath.Join(dir, segs[len(segs)-2].name))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadExport(bytes.NewReader(prev))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !reflect.DeepEqual(got.Sources, want.Sources) {
		t.Fatal("recovery did not fall back to the previous complete segment")
	}
}

// TestSinkSegmentNameCollision plants a file on the sink's next
// rotation name (what a concurrent process racing the startup scan
// leaves behind): rotation must skip past it and keep checkpointing,
// never wedge retrying the same name.
func TestSinkSegmentNameCollision(t *testing.T) {
	dir := t.TempDir()
	exports := stagedExports(t, 3)

	// The sink will start at index 0; occupy indexes 1 and 2 so the
	// second and third rotations collide.
	for _, idx := range []int{1, 2} {
		if err := os.WriteFile(filepath.Join(dir, segName(idx)), []byte("squatter"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := checkpointAll(t, dir, exports, 1) // rotate on every checkpoint
	s.Close()
	if m := s.Metrics(); m.Errors != 0 || m.Checkpoints != 4 {
		t.Fatalf("sink metrics after collisions = %+v, want 4 checkpoints, 0 errors", m)
	}
	got, err := Recover(dir)
	if err != nil || got == nil {
		t.Fatalf("recovery after collisions: %v, %v", got, err)
	}
	if !reflect.DeepEqual(got.Sources, exports[len(exports)-1].Sources) {
		t.Fatal("recovered state is not the newest checkpoint")
	}
}

// TestSinkPruneSparesCommitted drives prune directly: the newest
// segment known to hold a committed checkpoint must survive any
// retention pressure, or a crash between rotation and the next commit
// would lose all recoverable state.
func TestSinkPruneSparesCommitted(t *testing.T) {
	dir := t.TempDir()
	for idx := 0; idx < 6; idx++ {
		if err := os.WriteFile(filepath.Join(dir, segName(idx)), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := &Sink{cfg: SinkConfig{Dir: dir, Retention: Retention{KeepSegments: 2}}.withDefaults(), committedSeg: 0}
	s.prune()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, seg := range segs {
		if seg.index == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("prune deleted the committed segment; remaining %v", segs)
	}
	if len(segs) > 3 { // budget 2 + the spared committed one
		t.Fatalf("prune retained %d segments, want at most 3", len(segs))
	}

	// KeepSegments=1 is floored to 2: the previous (committed) segment
	// always survives a rotation.
	if got := (Retention{KeepSegments: 1}.withDefaults()).KeepSegments; got != 2 {
		t.Fatalf("KeepSegments floor = %d, want 2", got)
	}
}

// TestSinkNotifyNeverBlocks floods Notify far beyond the trigger
// queue: every call must return immediately, with the excess counted
// as coalesced drops.
func TestSinkNotifyNeverBlocks(t *testing.T) {
	dir := t.TempDir()
	ex := synthExport(t, "sensor-a", 7, 100)
	block := make(chan struct{})
	s, err := OpenSink(SinkConfig{
		Dir:       dir,
		Retention: Retention{CheckpointEvery: time.Hour},
		Export: func() *incident.EvidenceExport {
			<-block // wedge the sink goroutine mid-checkpoint
			return ex
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10_000; i++ {
			s.Notify()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Notify blocked on a wedged sink")
	}
	if s.Metrics().Dropped == 0 {
		t.Error("flooded sink counted no dropped (coalesced) notifications")
	}
	close(block)
	s.Close()
}
