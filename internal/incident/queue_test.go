package incident

import (
	"sync"
	"testing"
	"time"

	"semnids/internal/core"
)

// waitTimeout is how long a test waits for something that must happen;
// settle is how long it watches for something that must not.
const (
	waitTimeout = 10 * time.Second
	settle      = 50 * time.Millisecond
)

// stalled returns a correlator whose goroutine is parked inside
// OnIncident, applying the first event of its first batch, until
// release is called. Release is idempotent.
func stalled(t *testing.T) (c *Correlator, release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c = New(Config{OnIncident: func(Incident) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}})
	c.Publish(alert(attacker, victim, 1, core.Fingerprint{}))
	waitFor(t, entered, "the consumer to enter OnIncident")
	var rel sync.Once
	return c, func() { rel.Do(func() { close(gate) }) }
}

// waitFor fails the test if ch is not closed within waitTimeout.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(waitTimeout):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// goPublish publishes n flow-opens on each of g goroutines, each from a
// source of its own, and returns a channel closed once every one of
// them has returned.
func goPublish(c *Correlator, g, n int) <-chan struct{} {
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				c.Publish(flowOpen(addr(1000+i), addr(j), uint64(10+j)))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

// fill publishes queueDepth/2 events, one per source, which a stalled
// consumer leaves pending, and fails if that blocks.
func fill(t *testing.T, c *Correlator) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < queueDepth/2; i++ {
			c.Publish(flowOpen(addr(i), victim, 5))
		}
	}()
	waitFor(t, done, "queueDepth/2 publishes to a stalled consumer")
	if got := c.q.pending(); got != queueDepth/2 {
		t.Fatalf("queue depth = %d after filling, want %d", got, queueDepth/2)
	}
}

// TestPublishBlocksWhenQueueFull: a stalled consumer holds its batch,
// the open buffer takes queueDepth/2 more events, and the next Publish
// blocks until the consumer moves on; then every publisher finishes
// and every event published is applied.
func TestPublishBlocksWhenQueueFull(t *testing.T) {
	c, release := stalled(t)
	defer c.Stop()
	defer release()
	fill(t, c)

	const publishers, each = 4, 3
	done := goPublish(c, publishers, each)
	select {
	case <-done:
		t.Fatal("Publish returned with queueDepth/2 events pending")
	case <-time.After(settle):
	}
	if got := c.q.pending(); got != queueDepth/2 {
		t.Fatalf("queue depth = %d with publishers blocked, want %d", got, queueDepth/2)
	}

	release()
	waitFor(t, done, "blocked publishers after the consumer resumed")
	c.Flush()
	if got, want := c.Metrics().Events, uint64(1+queueDepth/2+publishers*each); got != want {
		t.Errorf("applied %d events, published %d", got, want)
	}
}

// TestStopReleasesBlockedPublishers: Stop lets publishers blocked on a
// full queue return without their events, and returns itself only once
// every event the queue had accepted is applied — the drain a closed
// channel gave.
func TestStopReleasesBlockedPublishers(t *testing.T) {
	c, release := stalled(t)
	defer release()
	fill(t, c)
	published := goPublish(c, 4, 3)
	select {
	case <-published:
		t.Fatal("Publish returned with queueDepth/2 events pending")
	case <-time.After(settle):
	}

	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	waitFor(t, published, "Stop to release blocked publishers")
	select {
	case <-stopped:
		t.Fatal("Stop returned while the consumer still held accepted events")
	default:
	}

	release()
	waitFor(t, stopped, "Stop after the consumer resumed")
	if got, want := c.Metrics().Events, uint64(1+queueDepth/2); got != want {
		t.Errorf("applied %d events after Stop, want the %d accepted before it", got, want)
	}
}

// TestPublishAfterStop: Publish racing Stop, or after it, neither
// panics nor reaches the evidence once Stop has returned, and Flush
// and Stop stay no-ops. Meant for -race.
func TestPublishAfterStop(t *testing.T) {
	c := New(Config{})
	published := goPublish(c, 4, 2000)
	c.Stop()
	n := c.Metrics().Events
	waitFor(t, published, "publishers racing Stop")
	c.Publish(flowOpen(attacker, victim, 1))
	c.Flush()
	c.Stop()
	if got := c.Metrics().Events; got != n {
		t.Errorf("events applied after Stop: %d, Stop returned at %d", got, n)
	}
	if n > 4*2000 {
		t.Errorf("applied %d events, only %d were published", n, 4*2000)
	}
}

// TestFlushIsBarrier: Flush returns only once everything published
// before it is applied — from each publisher's own view, and while a
// stalled consumer holds the queue.
func TestFlushIsBarrier(t *testing.T) {
	const publishers, each = 8, 200 // each < MaxDestinations: no dest is capped away
	c := New(Config{})
	defer c.Stop()
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := addr(1000 + i)
			for j := 0; j < each; j++ {
				c.Publish(flowOpen(src, addr(j), uint64(10+j)))
			}
			c.Flush()
			c.mu.Lock()
			got := c.sources[src].dests.len()
			c.mu.Unlock()
			if got != each {
				t.Errorf("after Flush, %v has %d destinations applied, published %d", src, got, each)
			}
		}()
	}
	wg.Wait()
	if got := c.Metrics().Events; got != publishers*each {
		t.Errorf("applied %d events, published %d", got, publishers*each)
	}

	s, release := stalled(t)
	defer s.Stop()
	defer release()
	flushed := make(chan struct{})
	go func() {
		s.Flush()
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("Flush returned while the consumer held an unapplied event")
	case <-time.After(settle):
	}
	release()
	waitFor(t, flushed, "Flush after the consumer resumed")
}

// TestPublishAllocs pins a warm Publish at zero allocations: the event
// is copied into a preallocated buffer, and applying a repeat flow-open
// allocates nothing either.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	c := New(Config{})
	defer c.Stop()
	ev := flowOpen(attacker, victim, 1)
	c.Publish(ev)
	c.Flush()
	if allocs := testing.AllocsPerRun(1000, func() { c.Publish(ev) }); allocs != 0 {
		t.Errorf("Publish allocates %.2f objects per event, want 0", allocs)
	}
	c.Flush()
}
