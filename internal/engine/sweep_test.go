package engine

import (
	"context"
	"errors"
	"iter"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/noc"
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
	for ev, err := range e.SweepStream(context.Background(), codes, testBERs) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
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
	var errs []error
	for _, err := range e.SweepStream(context.Background(), nil, []float64{2}) {
		errs = append(errs, err)
	}
	if len(errs) != 1 || !errors.Is(errs[0], ErrInvalidInput) {
		t.Errorf("want a single ErrInvalidInput item, got %v", errs)
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
	delivered := 0
	var terminal error
	for _, err := range e.SweepStream(ctx, codes, bers) {
		if err != nil {
			terminal = err
			break
		}
		delivered++
		if delivered == 1 {
			cancel()
		}
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
			for _, err := range e.SweepStream(context.Background(), ecc.PaperSchemes(), testBERs) {
				if err != nil {
					t.Error(err)
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

// TestOrdered drives the reorder behind NetworkBatchStream directly:
// items visited in any order come out in index order, a pool that stops
// early — with an error, or on cancellation — ends the stream with one
// terminal pair at the first missing index, and the pool has returned by
// the time the stream does.
func TestOrdered(t *testing.T) {
	type pair struct {
		ber float64
		err error
	}
	collect := func(ctx context.Context, n int, each func(context.Context, func(int, *noc.Result, *CandidateError)) error) []pair {
		var out []pair
		inOrder(ctx, n, each, func(res noc.Result, err error) bool {
			out = append(out, pair{res.TargetBER, err})
			return true
		})
		return out
	}
	result := func(i int) *noc.Result { return &noc.Result{TargetBER: float64(i)} }

	t.Run("out of order", func(t *testing.T) {
		const n = 64
		got := collect(context.Background(), n, func(_ context.Context, visit func(int, *noc.Result, *CandidateError)) error {
			var wg sync.WaitGroup
			for i := n - 1; i >= 0; i-- {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if i%5 == 3 {
						visit(i, nil, &CandidateError{Index: i, Err: ErrInvalidInput})
						return
					}
					visit(i, result(i), nil)
				}()
			}
			wg.Wait()
			return nil
		})
		if len(got) != n {
			t.Fatalf("got %d items, want %d", len(got), n)
		}
		for i, p := range got {
			var ce *CandidateError
			if i%5 == 3 && (!errors.As(p.err, &ce) || ce.Index != i) {
				t.Fatalf("item %d = %+v, want its CandidateError", i, p)
			}
			if i%5 != 3 && (p.ber != float64(i) || p.err != nil) {
				t.Fatalf("item %d = %+v", i, p)
			}
		}
	})

	t.Run("early error", func(t *testing.T) {
		boom := errors.New("boom")
		got := collect(context.Background(), 5, func(_ context.Context, visit func(int, *noc.Result, *CandidateError)) error {
			visit(2, result(2), nil)
			visit(0, result(0), nil)
			return boom
		})
		want := []pair{{0, nil}, {0, boom}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	})

	t.Run("cancel between emissions", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		got := collect(ctx, 5, func(_ context.Context, visit func(int, *noc.Result, *CandidateError)) error {
			visit(0, result(0), nil)
			cancel()
			return nil
		})
		if len(got) != 2 || got[0] != (pair{0, nil}) || !errors.Is(got[1].err, context.Canceled) {
			t.Fatalf("got %+v, want item 0 then a Canceled terminal", got)
		}
	})

	t.Run("stopped without error", func(t *testing.T) {
		got := collect(context.Background(), 3, func(_ context.Context, visit func(int, *noc.Result, *CandidateError)) error {
			visit(0, result(0), nil)
			return nil
		})
		if len(got) != 2 || got[1].err == nil || got[1].err.Error() != "photonoc: network batch aborted at candidate 1" {
			t.Fatalf("got %+v, want item 0 then the fallback terminal at 1", got)
		}
	})

	t.Run("break", func(t *testing.T) {
		// The consumer stops after item 0: the pool sees its context
		// cancelled, not the parent's 5 s deadline, and has returned
		// before inOrder does.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var poolErr atomic.Value
		n := 0
		inOrder(ctx, 4, func(ctx context.Context, visit func(int, *noc.Result, *CandidateError)) error {
			visit(0, result(0), nil)
			<-ctx.Done()
			poolErr.Store(ctx.Err())
			return ctx.Err()
		}, func(noc.Result, error) bool {
			n++
			return false
		})
		if err, _ := poolErr.Load().(error); n != 1 || err != context.Canceled {
			t.Fatalf("yielded %d items, pool ended with %v; want 1 and context.Canceled", n, err)
		}
	})
}

// settleGoroutines waits for the goroutine count to fall back to base: a
// pool worker that has signalled its return may still be exiting.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the stream, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// breakAfterFirst ranges over stream, breaks after its first pair and
// checks that the range left nothing running: the goroutine count returns
// to what it was before, and the engine's cold-solve count, read when the
// range ends, does not move afterwards. It returns that count.
func breakAfterFirst[T any](t *testing.T, e *Engine, stream iter.Seq2[T, error]) uint64 {
	t.Helper()
	base := runtime.NumGoroutine()
	for _, err := range stream {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	cold := e.CacheStats().ColdSolves
	settleGoroutines(t, base)
	time.Sleep(10 * time.Millisecond)
	if after := e.CacheStats().ColdSolves; after != cold {
		t.Fatalf("%d cold solves after the range ended, %d when it did", after, cold)
	}
	return cold
}

// TestSweepStreamEarlyBreak: breaking out of a sweep stream stops it at
// once. The sweep solves on the ranging goroutine, so a fresh engine has
// made exactly the first point's cold solve.
func TestSweepStreamEarlyBreak(t *testing.T) {
	e, err := New(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if cold := breakAfterFirst(t, e, e.SweepStream(context.Background(), ecc.ExtendedSchemes(), testBERs)); cold != 1 {
		t.Fatalf("%d cold solves after breaking at the first point, want 1", cold)
	}
}
