package netsim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"photonoc/internal/noc"
)

// overlapRunner is RunNetwork taken apart the way it hands itself to
// overlap, so a test can wrap its generator or its event loop.
type overlapRunner struct {
	limit   int
	sources []int
	next    func(src int, now float64) TraceEvent
	run     func(ctx context.Context, tr Trace, ready <-chan int) (NetResults, error)
}

// netRunner is RunNetwork's runner for a 20k-message mesh-4×4 run.
func netRunner(t *testing.T) overlapRunner {
	t.Helper()
	net, decisions, opts := buildNetwork(t, noc.Mesh, 16, 1e-11)
	cfg, sources, next, err := NetConfig{
		Net:                     net,
		Decisions:               decisions,
		InjectionRateBitsPerSec: 0.5 * saturationRate(t, net, decisions, opts),
		Seed:                    1,
	}.generator()
	if err != nil {
		t.Fatal(err)
	}
	return overlapRunner{cfg.Messages, sources, next, func(ctx context.Context, tr Trace, ready <-chan int) (NetResults, error) {
		return simulateNetwork(ctx, cfg, tr, ready)
	}}
}

// settleGoroutines waits for the goroutine count to fall back to base: the
// generator's goroutine may still be exiting when overlap returns.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// cancelDuringGeneration cancels the run's context from inside its
// generator, at arrival 3000 of 20000: the generator stops at its next
// check, so the event loop is left waiting on arrivals that never come.
func cancelDuringGeneration(t *testing.T, r overlapRunner) {
	t.Helper()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	generated := 0
	next := func(src int, now float64) TraceEvent {
		if generated++; generated == 3000 {
			cancel()
		}
		return r.next(src, now)
	}
	if _, err := overlap(ctx, r.limit, r.sources, next, r.run); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if generated >= r.limit {
		t.Fatalf("generator ran to the end (%d arrivals) after cancellation", generated)
	}
	settleGoroutines(t, base)
}

// cancelDuringSimulation lets generation finish, then starts the event loop
// on the first half of the trace and cancels while it runs or waits for
// the rest.
func cancelDuringSimulation(t *testing.T, r overlapRunner) {
	t.Helper()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(ctx context.Context, tr Trace, ready <-chan int) (NetResults, error) {
		for n := 0; n < len(tr); n = <-ready {
		}
		half := make(chan int, 1)
		half <- len(tr) / 2
		go cancel()
		return r.run(ctx, tr, half)
	}
	if _, err := overlap(ctx, r.limit, r.sources, r.next, run); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
}

// TestOverlapCancelDuringGeneration: cancelling while the trace is still
// being generated aborts the run with context.Canceled and leaves no
// goroutine behind.
func TestOverlapCancelDuringGeneration(t *testing.T) {
	cancelDuringGeneration(t, netRunner(t))
}

// TestOverlapCancelDuringSimulation: cancelling once generation is done and
// the event loop runs aborts the run with context.Canceled and leaves no
// goroutine behind.
func TestOverlapCancelDuringSimulation(t *testing.T) {
	cancelDuringSimulation(t, netRunner(t))
}

// TestNonFiniteArrivalsRejected: a rate small enough for the exponential
// inter-arrival times to overflow to +Inf passes the configuration checks,
// so the generated trace itself must be rejected, as a replayed one is,
// instead of the run returning NaN statistics. RunNetwork validates each
// chunk its generator publishes, and the failure stops a generator that is
// still running; RunCtx validates the recorded trace before replaying it.
func TestNonFiniteArrivalsRejected(t *testing.T) {
	wantInvalid := func(t *testing.T, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Fatalf("err = %v, want the trace validation error", err)
		}
	}
	net, decisions, _ := buildNetwork(t, noc.Mesh, 16, 1e-11)
	netCfg := NetConfig{Net: net, Decisions: decisions, InjectionRateBitsPerSec: 1e-310, Seed: 1}

	t.Run("RunNetwork", func(t *testing.T) {
		base := runtime.NumGoroutine()
		_, err := RunNetwork(context.Background(), netCfg)
		wantInvalid(t, err)
		settleGoroutines(t, base)
	})

	t.Run("RunNetwork mid-trace", func(t *testing.T) {
		// The generator is held at arrival 2000 until the run's context is
		// cancelled, so it is provably mid-trace when the first published
		// chunk fails validation. The hold gives up after 5 s, so a run
		// that never fails is reported, not deadlocked.
		base := runtime.NumGoroutine()
		cfg, sources, next, err := netCfg.generator()
		if err != nil {
			t.Fatal(err)
		}
		runCtx := make(chan context.Context, 1)
		run := func(ctx context.Context, tr Trace, ready <-chan int) (NetResults, error) {
			runCtx <- ctx
			return simulateNetwork(ctx, cfg, tr, ready)
		}
		generated := 0
		held := func(src int, now float64) TraceEvent {
			if generated++; generated == 2000 {
				select {
				case <-(<-runCtx).Done():
				case <-time.After(5 * time.Second):
				}
			}
			return next(src, now)
		}
		_, err = overlap(context.Background(), cfg.Messages, sources, held, run)
		wantInvalid(t, err)
		if generated >= cfg.Messages {
			t.Fatalf("generator ran to the end (%d arrivals) after the run failed", generated)
		}
		settleGoroutines(t, base)
	})

	t.Run("RunCtx", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Load = 1e-320
		_, err := run(cfg)
		wantInvalid(t, err)
	})
}
