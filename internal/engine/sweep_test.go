package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

var testBERs = []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7}

// compiled compiles cfg, failing the test on error.
func compiled(t testing.TB, cfg *core.LinkConfig) *core.Compiled {
	t.Helper()
	c, err := cfg.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// evaluator is cfg's sequential, uncached reference Evaluator — the solve
// every engine path must reproduce bit for bit.
func evaluator(t testing.TB, cfg *core.LinkConfig) core.Evaluator {
	return compiled(t, cfg).Evaluator()
}

// TestSweepDeterministicAcrossWorkers is the acceptance gate: the parallel
// sweep must be byte-identical to the sequential reference at every worker
// count, with and without memoization.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := core.DefaultConfig()
	codes := ecc.ExtendedSchemes()
	want, err := core.SweepWith(context.Background(), evaluator(t, &cfg), codes, testBERs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, cacheEntries := range []int{0, DefaultCacheEntries} {
			e, err := New(WithConfig(cfg), WithWorkers(workers), WithCache(cacheEntries))
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Sweep(context.Background(), codes, testBERs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d cache=%d: parallel sweep differs from sequential", workers, cacheEntries)
			}
			// A second pass must be identical too (all cache hits when
			// memoized).
			again, err := e.Sweep(context.Background(), codes, testBERs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Errorf("workers=%d cache=%d: warm sweep differs", workers, cacheEntries)
			}
		}
	}
}

// TestSweepWarmAllocs pins the warm Sweep path: every cell is a cache hit
// solved on the caller's goroutine, so the result slice is the one
// allocation.
func TestSweepWarmAllocs(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	codes := ecc.ExtendedSchemes()
	run := func() {
		if _, err := e.Sweep(ctx, codes, testBERs); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: interns the roster and caches the grid
	if allocs := testing.AllocsPerRun(200, run); allocs > 1 {
		t.Errorf("warm %d×%d Sweep allocated %.1f times per call, want ≤ 1", len(codes), len(testBERs), allocs)
	}
}

func TestSweepNilCodesUsesRoster(t *testing.T) {
	e, err := New(WithSchemes(ecc.MustHamming74(), ecc.MustUncoded64()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := e.Sweep(context.Background(), nil, []float64{1e-11})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Code.Name() != "H(7,4)" || evs[1].Code.Name() != "w/o ECC" {
		t.Errorf("roster sweep wrong: %d results", len(evs))
	}
}

func TestSweepInputValidation(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Sweep(ctx, []ecc.Code{}, []float64{1e-11}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("explicit empty roster: want ErrInvalidInput, got %v", err)
	}
	if _, err := e.Sweep(ctx, nil, nil); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("empty BER grid: want ErrInvalidInput, got %v", err)
	}
	if _, err := e.Sweep(ctx, nil, []float64{1e-11, -3}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative BER: want ErrInvalidInput, got %v", err)
	}
	if _, err := e.Sweep(ctx, []ecc.Code{ecc.MustHamming74(), nil}, []float64{1e-11}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil code: want ErrInvalidInput, got %v", err)
	}
}

func TestSweepStreamOrderAndEquality(t *testing.T) {
	cfg := core.DefaultConfig()
	codes := ecc.ExtendedSchemes()
	want, err := core.SweepWith(context.Background(), evaluator(t, &cfg), codes, testBERs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(WithConfig(cfg), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Evaluation
	next := 0
	for r := range e.SweepStream(context.Background(), codes, testBERs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Index != next {
			t.Fatalf("stream out of order: got index %d, want %d", r.Index, next)
		}
		next++
		got = append(got, r.Evaluation)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("streamed sweep differs from sequential")
	}
}

func TestSweepStreamInvalidInput(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	var results []Result
	for r := range e.SweepStream(context.Background(), nil, []float64{2}) {
		results = append(results, r)
	}
	if len(results) != 1 || !errors.Is(results[0].Err, ErrInvalidInput) {
		t.Errorf("want a single ErrInvalidInput item, got %v", results)
	}
}

func TestSweepPreCancelled(t *testing.T) {
	e, err := New(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Sweep(ctx, ecc.ExtendedSchemes(), testBERs); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// blockingObserver parks every cold solve, once armed, until the solve's
// context is cancelled, so a sweep cannot run ahead of its consumer however
// fast the solver or busy the host.
type blockingObserver struct {
	countingObserver
	armed atomic.Bool
}

func (o *blockingObserver) ColdSolve(ctx context.Context, _ string, _ time.Duration) {
	if o.armed.Load() {
		<-ctx.Done()
	}
}

func TestSweepStreamMidCancellation(t *testing.T) {
	// A large grid whose first point is cached and whose every other point
	// blocks in its cold solve until cancellation: cancel after the first
	// delivered result and require the stream to end with a Canceled item.
	o := &blockingObserver{}
	e, err := New(WithWorkers(4), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	bers := make([]float64, 40)
	for i := range bers {
		bers[i] = 1e-11 * float64(i+1)
	}
	codes := ecc.ExtendedSchemes()
	if _, err := e.Evaluate(context.Background(), codes[0], bers[0]); err != nil {
		t.Fatal(err)
	}
	o.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := e.SweepStream(ctx, codes, bers)
	delivered := 0
	var terminal error
	for r := range stream {
		if r.Err != nil {
			terminal = r.Err
			break
		}
		delivered++
		if delivered == 1 {
			cancel()
		}
	}
	// Drain to prove the channel closes.
	for range stream {
	}
	total := len(bers) * len(codes)
	if delivered >= total {
		t.Fatalf("cancellation did not stop the sweep: %d/%d delivered", delivered, total)
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Errorf("terminal stream error = %v, want context.Canceled", terminal)
	}
}

// TestConcurrentEngineUse exercises the engine from many goroutines at once
// (run under -race in CI): shared cache, overlapping sweeps, streams.
func TestConcurrentEngineUse(t *testing.T) {
	e, err := New(WithWorkers(4), WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	want, err := core.SweepWith(context.Background(), evaluator(t, &cfg), ecc.PaperSchemes(), testBERs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				got, err := e.Sweep(context.Background(), ecc.PaperSchemes(), testBERs)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent sweep diverged")
				}
				return
			}
			for r := range e.SweepStream(context.Background(), ecc.PaperSchemes(), testBERs) {
				if r.Err != nil {
					t.Error(r.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestExperimentsSmallCache: an engine whose cache is smaller than the grid
// still reproduces the sequential figure, solving each point only once.
func TestExperimentsSmallCache(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := New(WithConfig(cfg), WithWorkers(4), WithCache(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Fig5With(context.Background(), evaluator(t, &cfg), testBERs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Fig5With(context.Background(), e, testBERs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("small-cache engine Fig5 differs from sequential")
	}
	grid := uint64(len(testBERs) * 3) // 3 paper schemes
	if s := e.CacheStats(); s.Misses > grid {
		t.Errorf("small cache doubled the solve work: %d misses for a %d-point grid", s.Misses, grid)
	}
}

func TestExperimentsMatchSequential(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := New(WithConfig(cfg), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	wantFig5, err := core.Fig5With(context.Background(), evaluator(t, &cfg), testBERs)
	if err != nil {
		t.Fatal(err)
	}
	gotFig5, err := core.Fig5With(ctx, e, testBERs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFig5, wantFig5) {
		t.Error("engine Fig5 differs from sequential")
	}

	wantFig6a, err := core.Fig6aWith(context.Background(), evaluator(t, &cfg), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	gotFig6a, err := core.Fig6aWith(ctx, e, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFig6a, wantFig6a) {
		t.Error("engine Fig6a differs from sequential")
	}

	wantPlane, err := core.TradeoffPlaneWith(context.Background(), evaluator(t, &cfg), ecc.ExtendedSchemes(), testBERs)
	if err != nil {
		t.Fatal(err)
	}
	gotPlane, err := core.TradeoffPlaneWith(ctx, e, ecc.ExtendedSchemes(), testBERs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPlane, wantPlane) {
		t.Error("engine TradeoffPlane differs from sequential")
	}

	wantHead, err := core.HeadlineWith(context.Background(), evaluator(t, &cfg), &cfg, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	gotHead, err := core.HeadlineWith(ctx, e, &cfg, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHead, wantHead) {
		t.Error("engine Headline differs from sequential")
	}

	wantEnergy, err := core.EnergySweepWith(context.Background(), evaluator(t, &cfg), &cfg, ecc.PaperSchemes(), testBERs)
	if err != nil {
		t.Fatal(err)
	}
	gotEnergy, err := core.EnergySweepWith(ctx, e, &cfg, ecc.PaperSchemes(), testBERs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEnergy, wantEnergy) {
		t.Error("engine EnergySweep differs from sequential")
	}
}

// TestOrdered drives the reorder buffer behind every engine stream
// directly: items emitted in any order come out in index order, and a
// producer that stops early — with an error, or on cancellation — ends the
// stream with one terminal item at the first missing index.
func TestOrdered(t *testing.T) {
	type item struct {
		i   int
		err error
	}
	terminal := func(next int, err error) item {
		if err == nil {
			err = errors.New("aborted")
		}
		return item{next, err}
	}
	collect := func(ch <-chan item) []item {
		var out []item
		for it := range ch {
			out = append(out, it)
		}
		return out
	}

	t.Run("out of order", func(t *testing.T) {
		const n = 64
		got := collect(ordered(context.Background(), n, func(emit func(int, item)) error {
			var wg sync.WaitGroup
			for i := n - 1; i >= 0; i-- {
				wg.Add(1)
				go func() {
					defer wg.Done()
					emit(i, item{i: i})
				}()
			}
			wg.Wait()
			return nil
		}, terminal))
		if len(got) != n {
			t.Fatalf("got %d items, want %d", len(got), n)
		}
		for i, it := range got {
			if it.i != i || it.err != nil {
				t.Fatalf("item %d = %+v", i, it)
			}
		}
	})

	t.Run("early error", func(t *testing.T) {
		boom := errors.New("boom")
		got := collect(ordered(context.Background(), 5, func(emit func(int, item)) error {
			emit(2, item{i: 2})
			emit(0, item{i: 0})
			return boom
		}, terminal))
		want := []item{{0, nil}, {1, boom}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	})

	t.Run("cancel between emissions", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		got := collect(ordered(ctx, 5, func(emit func(int, item)) error {
			emit(0, item{i: 0})
			cancel()
			return nil
		}, terminal))
		if len(got) != 2 || got[0] != (item{0, nil}) || got[1].i != 1 || !errors.Is(got[1].err, context.Canceled) {
			t.Fatalf("got %+v, want item 0 then a Canceled terminal at 1", got)
		}
	})

	t.Run("stopped without error", func(t *testing.T) {
		got := collect(ordered(context.Background(), 3, func(emit func(int, item)) error {
			emit(0, item{i: 0})
			return nil
		}, terminal))
		if len(got) != 2 || got[1].i != 1 || got[1].err == nil || got[1].err.Error() != "aborted" {
			t.Fatalf("got %+v, want item 0 then the fallback terminal at 1", got)
		}
	})
}
