package engine

import (
	"context"
	"errors"
	"math"
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
	c := &memo[cacheKey, core.Evaluation]{capacity: 8}
	key := cacheKey{link: 1, scheme: 2, ber: math.Float64bits(1e-11)}

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
		ev, how, err := c.do(key, func() (core.Evaluation, error) {
			calls++
			close(leaderEntered)
			<-release
			return want, nil
		})
		if err != nil || how != solved {
			t.Errorf("leader: outcome=%v err=%v", how, err)
		}
		if !reflect.DeepEqual(*ev, want) {
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
			ev, how, err := c.do(key, func() (core.Evaluation, error) {
				t.Error("follower executed solve")
				return core.Evaluation{}, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i] = *ev
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
func waitMisses(t *testing.T, c *memo[cacheKey, core.Evaluation], n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.stats().Misses < n {
		if time.Now().After(deadline) {
			t.Fatalf("misses = %d, want %d", c.stats().Misses, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMemoColdMissAllocs: a cold miss that no other caller waits on
// allocates its entry and nothing else. The channel a waiter blocks on is
// made by the first waiter (TestFlightGroupCoalesces covers that path).
func TestMemoColdMissAllocs(t *testing.T) {
	const runs = 200
	// Size the map up front so inserts never grow it.
	c := &memo[cacheKey, core.Evaluation]{capacity: 2 * runs, m: make(map[cacheKey]*memoEntry[core.Evaluation], 2*runs)}
	build := func() (core.Evaluation, error) { return core.Evaluation{}, nil }
	key := cacheKey{link: 1, scheme: 2}
	allocs := testing.AllocsPerRun(runs, func() {
		key.ber++
		if _, how, err := c.do(key, build); err != nil || how != solved {
			t.Fatalf("outcome=%v err=%v, want a cold solve", how, err)
		}
	})
	if allocs != 1 {
		t.Errorf("cold miss allocates %v objects, want 1 (the entry)", allocs)
	}
}

// TestFlightGroupPropagatesError: a failing solve is not memoized, and
// nothing is retried implicitly — the next call solves afresh.
func TestFlightGroupPropagatesError(t *testing.T) {
	c := &memo[cacheKey, core.Evaluation]{capacity: 8}
	key := cacheKey{link: 1, scheme: 2, ber: math.Float64bits(1e-9)}
	boom := errors.New("boom")
	if _, how, err := c.do(key, func() (core.Evaluation, error) {
		return core.Evaluation{}, boom
	}); !errors.Is(err, boom) || how != solved {
		t.Errorf("outcome=%v err=%v", how, err)
	}
	if s := c.stats(); s.Entries != 0 {
		t.Errorf("failed solve left %d entries", s.Entries)
	}
	ran := false
	if _, how, err := c.do(key, func() (core.Evaluation, error) {
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
	c := &memo[cacheKey, core.Evaluation]{capacity: 1}
	keyA := cacheKey{link: 1, scheme: 2, ber: math.Float64bits(1e-11)}
	keyB := cacheKey{link: 1, scheme: 3, ber: math.Float64bits(1e-11)}
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

	if _, how, err := c.do(keyB, func() (core.Evaluation, error) {
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
		ev, how, err := c.do(keyA, func() (core.Evaluation, error) {
			t.Error("second A caller solved again: the pending entry was evicted")
			return wantA, nil
		})
		second <- res{*ev, how, err}
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
