package engine

import (
	"container/list"
	"hash/maphash"
	"math"
	"sync"
	"time"

	"photonoc/internal/core"
)

// cacheKey identifies one memoized solve. The fingerprint pins the link
// configuration, so engines over different configurations never alias even
// if a cache were shared; schemes are keyed by display name (two distinct
// codes must not share one).
type cacheKey struct {
	fingerprint string
	scheme      string
	targetBER   float64
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
	// Shards is the number of independently locked LRU shards the capacity
	// is split across; 0 when the cache is disabled.
	Shards int
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
	// incremental fingerprint diff from its previous candidate: each reused
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

// Shard sizing: a sharded cache only pays off when each shard still holds a
// useful working set, so the automatic shard count grows with capacity
// (one shard per minShardEntries entries) up to defaultCacheShards. Small
// caches — including every eviction-accounting test — collapse to one
// shard, which reproduces the single-mutex LRU exactly.
const (
	defaultCacheShards = 16
	minShardEntries    = 64
	maxCacheShards     = 256
)

// autoShards picks the shard count for a capacity when WithCacheShards is
// not given.
func autoShards(capacity int) int {
	n := capacity / minShardEntries
	if n < 1 {
		n = 1
	}
	if n > defaultCacheShards {
		n = defaultCacheShards
	}
	return n
}

// lruCache is a sharded LRU of solved operating points: the key space is
// hash-partitioned across independently locked shards, so concurrent
// lookups from many request goroutines contend only when they land on the
// same shard instead of serializing on one global mutex.
type lruCache struct {
	shards []lruShard
	seed   maphash.Seed
	// capacity is the total entry budget, summed over shards.
	capacity int
}

// lruShard is one mutex-guarded LRU partition.
type lruShard struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[cacheKey]*list.Element
	hits     uint64
	misses   uint64
}

// lruEntry is one memoized solve. It enters the shard pending, when its
// first caller misses, and is published when that caller's solve returns:
// val and err are written under the shard lock, then ready is closed.
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

// newLRUCache builds a cache of the given total capacity split over shards
// independently locked LRU partitions (shards ≤ capacity is enforced by the
// caller; shard 0..rem−1 take the remainder so the capacities sum exactly).
// Shard maps start empty and grow with use: most engines never fill their
// cache, and a fresh engine should not pay for capacity it may not use.
func newLRUCache(capacity, shards int) *lruCache {
	c := &lruCache{
		shards:   make([]lruShard, shards),
		seed:     maphash.MakeSeed(),
		capacity: capacity,
	}
	base, rem := capacity/shards, capacity%shards
	for i := range c.shards {
		shardCap := base
		if i < rem {
			shardCap++
		}
		c.shards[i] = lruShard{
			capacity: shardCap,
			order:    list.New(),
			items:    make(map[cacheKey]*list.Element),
		}
	}
	return c
}

// shardIndex hashes a key onto its shard's index.
func (c *lruCache) shardIndex(k cacheKey) int {
	if len(c.shards) == 1 {
		return 0
	}
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(k.fingerprint)
	h.WriteString(k.scheme)
	var b [8]byte
	bits := math.Float64bits(k.targetBER)
	for i := range b {
		b[i] = byte(bits >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum64() % uint64(len(c.shards)))
}

// do returns the memoized evaluation of k, the index of the shard consulted
// (so instrumentation can attribute traffic per shard without hashing the
// key twice), and how the key was served. A published entry is a hit. A
// missing key gets a pending entry and this caller runs solve; callers that
// find the entry pending count a miss, wait, and share its outcome, so a
// stampede of identical cold queries costs one solve. A failed solve is
// removed rather than published: errors are never memoized.
func (c *lruCache) do(k cacheKey, solve func() (core.Evaluation, error)) (core.Evaluation, int, outcome, error) {
	i := c.shardIndex(k)
	s := &c.shards[i]
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		ent := el.Value.(*lruEntry)
		if !ent.pending() {
			s.hits++
			s.order.MoveToFront(el)
			ev := ent.val
			s.mu.Unlock()
			return ev, i, hit, nil
		}
		s.misses++
		s.mu.Unlock()
		<-ent.ready
		return ent.val, i, shared, ent.err
	}
	s.misses++
	ent := &lruEntry{key: k, ready: make(chan struct{})}
	el := s.order.PushFront(ent)
	s.items[k] = el
	s.mu.Unlock()

	ev, err := solve()

	s.mu.Lock()
	ent.val, ent.err = ev, err
	if err != nil {
		s.order.Remove(el)
		delete(s.items, k)
	} else {
		s.order.MoveToFront(el)
		s.evict(el)
	}
	close(ent.ready)
	s.mu.Unlock()
	return ev, i, solved, err
}

// evict drops least recently used published entries other than keep until
// the shard is back within capacity. Pending entries are never evicted: a
// solve in flight stays findable, so later callers of its key join it
// instead of solving again. The shard may therefore exceed its capacity by
// the number of solves in flight.
func (s *lruShard) evict(keep *list.Element) {
	for el := s.order.Back(); el != nil && s.order.Len() > s.capacity; {
		prev := el.Prev()
		if ent := el.Value.(*lruEntry); el != keep && !ent.pending() {
			s.order.Remove(el)
			delete(s.items, ent.key)
		}
		el = prev
	}
}

// stats snapshots the accounting, summed across shards.
func (c *lruCache) stats() CacheStats {
	out := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Entries += s.order.Len()
		out.Capacity += s.capacity
		s.mu.Unlock()
	}
	return out
}
