package engine

import (
	"container/list"
	"sync"

	"semnids/internal/core"
	"semnids/internal/sem"
)

// verdictCache memoizes semantic-analysis verdicts by payload
// fingerprint, bounded by an LRU policy with TinyLFU-style admission.
// A cached verdict may be an empty detection list — knowing a frame is
// benign is as valuable as knowing it is hostile, since benign frames
// dominate live traffic.
//
// Admission: every lookup feeds a 4-bit count-min sketch. When the
// cache is full, a new fingerprint is admitted only if its estimated
// frequency exceeds the LRU victim's — so a scan spraying millions of
// one-shot payloads (each seen exactly once) cannot churn out the hot
// worm fingerprints the cache exists to serve. Rejections are counted;
// correctness is unaffected either way, since an unadmitted frame is
// simply analyzed again next time.
type verdictCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used
	entries  map[core.Fingerprint]*list.Element
	admit    *cmSketch
	rejected uint64
}

type cacheEntry struct {
	key core.Fingerprint
	ds  []sem.Detection
	// sk is the frame's structural fingerprint, memoized with the
	// verdict so lineage-enabled engines pay the sketch emulation once
	// per distinct payload (zero when lineage is off or ds is empty).
	sk sem.Sketch
}

func newVerdictCache(capacity int) *verdictCache {
	return &verdictCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[core.Fingerprint]*list.Element, capacity),
		admit:   newCMSketch(capacity),
	}
}

// get returns the cached detections and sketch for a fingerprint. The
// last result distinguishes "cached as benign" (nil, zero, true) from
// "unknown".
func (c *verdictCache) get(key core.Fingerprint) ([]sem.Detection, sem.Sketch, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.admit.inc(key.A)
	el, ok := c.entries[key]
	if !ok {
		return nil, sem.Sketch{}, false
	}
	c.ll.MoveToFront(el)
	en := el.Value.(*cacheEntry)
	return en.ds, en.sk, true
}

// put records the verdict for a fingerprint. A full cache evicts the
// least recently used entry only when the doorkeeper estimates the
// newcomer is hotter; otherwise the newcomer is rejected.
func (c *verdictCache) put(key core.Fingerprint, ds []sem.Detection, sk sem.Sketch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		en := el.Value.(*cacheEntry)
		en.ds = ds
		en.sk = sk
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		victim := c.ll.Back()
		if c.admit.estimate(key.A) <= c.admit.estimate(victim.Value.(*cacheEntry).key.A) {
			c.rejected++
			return
		}
		c.ll.Remove(victim)
		delete(c.entries, victim.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, ds: ds, sk: sk})
}

// len reports the current entry count.
func (c *verdictCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// rejects reports how many inserts the admission policy refused.
func (c *verdictCache) rejects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejected
}
