package engine

import (
	"sync"
	"time"
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
	// FERPlans, BlockPlans, LinkPlans and Networks count the entries of
	// the engine's registries: FER plans by scheme name, block plans by
	// (base configuration, wavelength block), compiled network links by
	// (block, length, ONIs, waveguides per channel), and built topologies.
	// They fill whether or not the memo cache is enabled.
	FERPlans, BlockPlans, LinkPlans, Networks int
	// The Hits fields count the lookups each registry served from a
	// published entry since the engine was built; the Misses fields count
	// the rest, as for the solve memo. A block plan miss is one O(G²)
	// compile in the block's channel count G; a link plan miss is O(G).
	FERPlanHits, BlockPlanHits, LinkPlanHits, NetworkHits         uint64
	FERPlanMisses, BlockPlanMisses, LinkPlanMisses, NetworkMisses uint64
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

// registryCap bounds the engine's registries: FER plans, code-side points,
// block and link plans and built networks. Deriving an entry costs far less than the
// solves it serves, so a full registry is flushed like the solve memo.
const registryCap = 512

// memo is one mutex-guarded, bounded memo of values the engine derives once
// per key: solved operating points, interned scheme, block and link plans,
// built networks, code-side points. Pending entries coalesce concurrent
// misses on one key. A full memo is flushed rather than tracked for
// recency: no workload refills a table often enough for recency to pay.
type memo[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[K]*memoEntry[V]
	hits     uint64
	misses   uint64
}

// memoEntry is one memoized value. It enters the memo pending, when its
// first caller misses, and is published when that caller's build returns:
// val, err and done are written under the memo lock, then ready is closed.
// ready is made, under the lock, by the first caller that finds the entry
// pending: most entries are never waited on and never get one.
type memoEntry[V any] struct {
	val   V
	err   error
	done  bool
	ready chan struct{}
}

// outcome reports how memo.do served a key.
type outcome uint8

const (
	hit    outcome = iota // a published entry
	solved                // this caller missed and ran the build
	shared                // this caller missed and joined a pending build
)

// do returns the memoized value of k and how the key was served. A
// published entry is a hit. A missing key gets a pending entry and this
// caller runs build; callers that find the entry pending count a miss,
// wait, and share its outcome, so a stampede of identical cold queries
// costs one build. A failed build is removed rather than published: errors
// are never memoized. A miss on a full memo first deletes every published
// entry; pending entries stay findable, so the memo may exceed its
// capacity by the number of builds in flight. The returned value is the
// entry's own, which never changes once published; callers copy it out and
// must not write through it.
func (c *memo[K, V]) do(k K, build func() (V, error)) (*V, outcome, error) {
	c.mu.Lock()
	if ent, ok := c.m[k]; ok {
		if ent.done {
			c.hits++
			c.mu.Unlock()
			return &ent.val, hit, nil
		}
		c.misses++
		if ent.ready == nil {
			ent.ready = make(chan struct{})
		}
		ready := ent.ready
		c.mu.Unlock()
		<-ready
		return &ent.val, shared, ent.err
	}
	c.misses++
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	} else if len(c.m) >= c.capacity {
		for key, ent := range c.m {
			if ent.done {
				delete(c.m, key)
			}
		}
	}
	ent := &memoEntry[V]{}
	c.m[k] = ent
	c.mu.Unlock()

	val, err := build()

	c.mu.Lock()
	ent.val, ent.err, ent.done = val, err, true
	if err != nil && c.m[k] == ent {
		delete(c.m, k)
	}
	if ent.ready != nil {
		close(ent.ready)
	}
	c.mu.Unlock()
	return &ent.val, solved, err
}

// stats snapshots the accounting.
func (c *memo[K, V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.m), Capacity: c.capacity}
}
