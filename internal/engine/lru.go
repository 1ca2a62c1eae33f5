package engine

import (
	"container/list"
	"sync"
	"time"

	"photonoc/internal/core"
)

// cacheKey identifies one memoized solve: the interned IDs of the link
// configuration and the scheme, and the target BER's bits. Validated BERs
// lie in (0, 0.5), where equal bits and equal values coincide.
type cacheKey struct {
	link, scheme uint64
	ber          uint64
}

// CacheStats is a snapshot of the memo cache accounting plus the engine's
// cold-solve timing.
type CacheStats struct {
	// Hits and Misses count lookups since the engine was built.
	Hits, Misses uint64
	// Entries is the current number of memoized operating points.
	Entries int
	// Capacity is the configured maximum; 0 means the cache is disabled.
	Capacity int
	// ColdSolves counts solves that ran the compiled pipeline — cache
	// misses, plus every solve when the cache is disabled.
	ColdSolves uint64
	// ColdSolveTime is the cumulative wall time spent in cold solves.
	ColdSolveTime time.Duration
	// SharedSolves counts evaluations that were served by joining another
	// goroutine's in-flight cold solve (a pending cache entry): a stampede
	// of identical cold queries costs exactly one compiled solve, and every
	// other participant increments this counter instead of ColdSolves.
	SharedSolves uint64
	// SessionReuses counts per-point solves served by a NetworkSession's
	// incremental link diff from its previous candidate: each reused
	// cell avoided both the compiled pipeline and the memo cache.
	SessionReuses uint64
	// FERPlans, LinkPlans and Networks count the entries of the engine's
	// registries: FER plans by scheme name, compiled per-link
	// configurations by fingerprint, and built topologies. They fill
	// whether or not the memo cache is enabled.
	FERPlans, LinkPlans, Networks int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// AvgColdSolve returns the mean wall time of one cold solve, or 0 before
// any solve has run.
func (s CacheStats) AvgColdSolve() time.Duration {
	if s.ColdSolves == 0 {
		return 0
	}
	return s.ColdSolveTime / time.Duration(s.ColdSolves)
}

// lruCache is one mutex-guarded LRU of solved operating points, with
// pending entries that coalesce concurrent misses on one key.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[cacheKey]*list.Element
	hits     uint64
	misses   uint64
}

// lruEntry is one memoized solve. It enters the cache pending, when its
// first caller misses, and is published when that caller's solve returns:
// val and err are written under the cache lock, then ready is closed.
type lruEntry struct {
	key   cacheKey
	val   core.Evaluation
	err   error
	ready chan struct{}
}

// pending reports whether the entry's solve is still running.
func (e *lruEntry) pending() bool {
	select {
	case <-e.ready:
		return false
	default:
		return true
	}
}

// outcome reports how lruCache.do served a key.
type outcome uint8

const (
	hit    outcome = iota // a published entry
	solved                // this caller missed and ran the solve
	shared                // this caller missed and joined a pending solve
)

// newLRUCache builds a cache of the given capacity. The map starts empty and
// grows with use: most engines never fill their cache, and a fresh engine
// should not pay for capacity it may not use.
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

// do returns the memoized evaluation of k and how the key was served. A
// published entry is a hit. A missing key gets a pending entry and this
// caller runs solve; callers that find the entry pending count a miss,
// wait, and share its outcome, so a stampede of identical cold queries
// costs one solve. A failed solve is removed rather than published: errors
// are never memoized. The returned evaluation is the entry's own, which
// never changes once published; callers copy it out and must not write
// through it.
func (c *lruCache) do(k cacheKey, solve func() (core.Evaluation, error)) (*core.Evaluation, outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		ent := el.Value.(*lruEntry)
		if !ent.pending() {
			c.hits++
			c.order.MoveToFront(el)
			c.mu.Unlock()
			return &ent.val, hit, nil
		}
		c.misses++
		c.mu.Unlock()
		<-ent.ready
		return &ent.val, shared, ent.err
	}
	c.misses++
	ent := &lruEntry{key: k, ready: make(chan struct{})}
	el := c.order.PushFront(ent)
	c.items[k] = el
	c.mu.Unlock()

	ev, err := solve()

	c.mu.Lock()
	ent.val, ent.err = ev, err
	if err != nil {
		c.order.Remove(el)
		delete(c.items, k)
	} else {
		c.order.MoveToFront(el)
		c.evict(el)
	}
	close(ent.ready)
	c.mu.Unlock()
	return &ent.val, solved, err
}

// evict drops least recently used published entries other than keep until
// the cache is back within capacity. Pending entries are never evicted: a
// solve in flight stays findable, so later callers of its key join it
// instead of solving again. The cache may therefore exceed its capacity by
// the number of solves in flight.
func (c *lruCache) evict(keep *list.Element) {
	for el := c.order.Back(); el != nil && c.order.Len() > c.capacity; {
		prev := el.Prev()
		if ent := el.Value.(*lruEntry); el != keep && !ent.pending() {
			c.order.Remove(el)
			delete(c.items, ent.key)
		}
		el = prev
	}
}

// stats snapshots the accounting.
func (c *lruCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len(), Capacity: c.capacity}
}
