package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

// TestFlightGroupCoalesces pins the cache's coalescing contract
// deterministically: a leader whose solve blocks until every follower has
// joined serves all of them from one execution, and followers report that
// they shared it.
func TestFlightGroupCoalesces(t *testing.T) {
	const followers = 16
	c := newLRUCache(8, 1)
	key := cacheKey{fingerprint: "fp", scheme: "s", targetBER: 1e-11}

	leaderEntered := make(chan struct{})
	release := make(chan struct{})
	var calls int
	want := core.Evaluation{TargetBER: 1e-11, CT: 1.5, Feasible: true}

	var wg sync.WaitGroup
	results := make([]core.Evaluation, followers)
	hows := make([]outcome, followers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ev, _, how, err := c.do(key, func() (core.Evaluation, error) {
			calls++
			close(leaderEntered)
			<-release
			return want, nil
		})
		if err != nil || how != solved {
			t.Errorf("leader: outcome=%v err=%v", how, err)
		}
		if !reflect.DeepEqual(ev, want) {
			t.Errorf("leader result = %+v", ev)
		}
	}()
	<-leaderEntered

	// Every follower joins while the leader's solve is blocked, so each MUST
	// find the pending entry rather than solve on its own.
	joined := make(chan struct{}, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			joined <- struct{}{}
			ev, _, how, err := c.do(key, func() (core.Evaluation, error) {
				t.Error("follower executed solve")
				return core.Evaluation{}, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i] = ev
			hows[i] = how
		}(i)
	}
	for i := 0; i < followers; i++ {
		<-joined
	}
	waitMisses(t, c, 1+followers)
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Errorf("leader solve ran %d times, want 1", calls)
	}
	for i := range results {
		if hows[i] != shared {
			t.Errorf("follower %d did not share the leader's solve (outcome %v)", i, hows[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("follower %d result = %+v, want %+v", i, results[i], want)
		}
	}
}

// waitMisses blocks until the cache has counted n misses: every caller
// counts its miss before it waits on a pending entry, so this is how a test
// knows its followers have joined.
func waitMisses(t *testing.T, c *lruCache, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.stats().Misses < n {
		if time.Now().After(deadline) {
			t.Fatalf("misses = %d, want %d", c.stats().Misses, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightGroupPropagatesError: a failing solve is not memoized, and
// nothing is retried implicitly — the next call solves afresh.
func TestFlightGroupPropagatesError(t *testing.T) {
	c := newLRUCache(8, 1)
	key := cacheKey{fingerprint: "fp", scheme: "s", targetBER: 1e-9}
	boom := errors.New("boom")
	if _, _, how, err := c.do(key, func() (core.Evaluation, error) {
		return core.Evaluation{}, boom
	}); !errors.Is(err, boom) || how != solved {
		t.Errorf("outcome=%v err=%v", how, err)
	}
	if s := c.stats(); s.Entries != 0 {
		t.Errorf("failed solve left %d entries", s.Entries)
	}
	ran := false
	if _, _, how, err := c.do(key, func() (core.Evaluation, error) {
		ran = true
		return core.Evaluation{}, nil
	}); err != nil || !ran || how != solved {
		t.Errorf("second solve: ran=%v outcome=%v err=%v", ran, how, err)
	}
}

// TestFlightPendingSurvivesEviction: at capacity 1, a solve of key B that
// completes while key A's solve is still running must not evict A's pending
// entry — a second A caller shares A's solve instead of running another.
func TestFlightPendingSurvivesEviction(t *testing.T) {
	c := newLRUCache(1, 1)
	keyA := cacheKey{fingerprint: "fp", scheme: "a", targetBER: 1e-11}
	keyB := cacheKey{fingerprint: "fp", scheme: "b", targetBER: 1e-11}
	wantA := core.Evaluation{TargetBER: 1e-11, CT: 2}

	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.do(keyA, func() (core.Evaluation, error) {
			close(entered)
			<-release
			return wantA, nil
		})
	}()
	<-entered

	if _, _, how, err := c.do(keyB, func() (core.Evaluation, error) {
		return core.Evaluation{TargetBER: 1e-11, CT: 3}, nil
	}); err != nil || how != solved {
		t.Fatalf("B: outcome=%v err=%v", how, err)
	}

	type res struct {
		ev  core.Evaluation
		how outcome
		err error
	}
	second := make(chan res, 1)
	go func() {
		ev, _, how, err := c.do(keyA, func() (core.Evaluation, error) {
			t.Error("second A caller solved again: the pending entry was evicted")
			return wantA, nil
		})
		second <- res{ev, how, err}
	}()
	waitMisses(t, c, 3)
	close(release)
	<-leaderDone
	r := <-second
	if r.err != nil || r.how != shared || !reflect.DeepEqual(r.ev, wantA) {
		t.Errorf("second A caller: outcome=%v err=%v ev=%+v", r.how, r.err, r.ev)
	}
}

// TestColdStampedeCoalesces is the ISSUE's acceptance proof: 64 concurrent
// identical cold queries cost exactly one compiled solve, and every
// participant observes the byte-identical evaluation. The pending cache
// entry guarantees ≤1 cold solve among goroutines that miss the cache;
// goroutines arriving after it is published are plain cache hits.
func TestColdStampedeCoalesces(t *testing.T) {
	const goroutines = 64
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	code := ecc.MustHamming7164()
	start := make(chan struct{})
	results := make([]core.Evaluation, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ev, err := e.Evaluate(context.Background(), code, 1e-11)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = ev
		}(i)
	}
	close(start)
	wg.Wait()

	s := e.CacheStats()
	if s.ColdSolves != 1 {
		t.Errorf("cold solves = %d, want exactly 1 for a stampede of identical queries", s.ColdSolves)
	}
	for i := 1; i < goroutines; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("goroutine %d saw a different evaluation", i)
		}
	}
	// Every goroutine performed exactly one cache lookup; of the misses,
	// one ran the solve and the rest shared it.
	if s.Hits+s.Misses != goroutines {
		t.Errorf("hits (%d) + misses (%d) != %d lookups", s.Hits, s.Misses, goroutines)
	}
	if s.SharedSolves > s.Misses-1 {
		t.Errorf("shared solves %d exceed the %d non-leader misses", s.SharedSolves, s.Misses-1)
	}
}

// TestColdSweepStampedeCoalesces runs whole identical sweeps concurrently:
// the grid costs exactly one cold solve per point no matter how many
// clients ask for it at once.
func TestColdSweepStampedeCoalesces(t *testing.T) {
	const clients = 8
	e, err := New(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	bers := []float64{1e-12, 1e-11, 1e-9}
	points := len(e.Schemes()) * len(bers)
	start := make(chan struct{})
	results := make([][]core.Evaluation, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			evs, err := e.Sweep(context.Background(), nil, bers)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = evs
		}(i)
	}
	close(start)
	wg.Wait()

	if s := e.CacheStats(); s.ColdSolves != uint64(points) {
		t.Errorf("cold solves = %d, want %d (one per grid point)", s.ColdSolves, points)
	}
	for i := 1; i < clients; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("client %d saw a different sweep", i)
		}
	}
}

// TestShardOneReproducesSingleLRU: with WithCacheShards(1) the sharded
// cache is the single-mutex LRU, eviction accounting included — the exact
// sequence the pre-shard TestCacheEviction pinned.
func TestShardOneReproducesSingleLRU(t *testing.T) {
	e, err := New(WithCache(2), WithCacheShards(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h74, h7164, unc := ecc.MustHamming74(), ecc.MustHamming7164(), ecc.MustUncoded64()
	for _, c := range []ecc.Code{h74, h7164, unc} { // fills, then evicts h74
		if _, err := e.Evaluate(ctx, c, 1e-11); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.CacheStats(); s.Entries != 2 || s.Misses != 3 || s.Shards != 1 {
		t.Errorf("after fill: %+v", s)
	}
	// h74 was evicted (LRU), so it misses and evicts h7164 in turn.
	if _, err := e.Evaluate(ctx, h74, 1e-11); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Misses != 4 {
		t.Errorf("evicted entry should miss: %+v", s)
	}
	// unc stayed resident.
	if _, err := e.Evaluate(ctx, unc, 1e-11); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 1 {
		t.Errorf("resident entry should hit: %+v", s)
	}
}

// TestAutoShardScaling pins the automatic shard policy: small caches
// collapse to one shard (legacy behavior), the production default spreads
// across 16, and explicit shard counts are clamped to the capacity.
func TestAutoShardScaling(t *testing.T) {
	for _, tc := range []struct {
		opts   []Option
		shards int
	}{
		{[]Option{WithCache(2)}, 1},
		{[]Option{WithCache(64)}, 1},
		{[]Option{WithCache(128)}, 2},
		{[]Option{}, 16}, // DefaultCacheEntries = 4096
		{[]Option{WithCache(8), WithCacheShards(32)}, 8},
		{[]Option{WithCacheShards(4)}, 4},
	} {
		e, err := New(tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if s := e.CacheStats(); s.Shards != tc.shards || s.Capacity != e.cache.capacity {
			t.Errorf("%v: shards = %d (want %d), capacity %d vs %d",
				tc.opts, s.Shards, tc.shards, s.Capacity, e.cache.capacity)
		}
	}
	if _, err := New(WithCacheShards(-1)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("negative shard count: want ErrInvalidConfig, got %v", err)
	}
	if _, err := New(WithCacheShards(maxCacheShards + 1)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("oversized shard count: want ErrInvalidConfig, got %v", err)
	}
}

// TestShardedSweepDeterminism: the sharded cache never changes results —
// sweeps through 1-shard and 16-shard engines are element-identical, warm
// or cold, and the capacity splits exactly across shards.
func TestShardedSweepDeterminism(t *testing.T) {
	bers := []float64{1e-12, 1e-10, 1e-8}
	single, err := New(WithCacheShards(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(WithCacheShards(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := single.Sweep(ctx, nil, bers)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // cold then warm
		b, err := sharded.Sweep(ctx, nil, bers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pass %d: sharded sweep differs from single-shard", pass)
		}
	}
	s := sharded.CacheStats()
	if s.Shards != 16 || s.Capacity != DefaultCacheEntries {
		t.Errorf("sharded stats: %+v", s)
	}
	if want := uint64(len(a)); s.Hits != want || s.Misses != want {
		t.Errorf("hits %d misses %d, want %d each (cold pass misses, warm pass hits)", s.Hits, s.Misses, want)
	}
}
