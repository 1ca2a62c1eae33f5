package engine

import (
	"context"
	"time"
)

// Observer receives engine instrumentation events: cold-solve durations,
// cache hits and misses and coalesced solves. It is
// the seam the serving layer hangs its telemetry on — histograms, access-log
// attribution, per-request statistics — without the engine knowing anything
// about metrics or logging.
//
// Every hook receives the context of the evaluation that triggered it, which
// may belong to a different goroutine than the request that submitted the
// work (batch solves, streamed or not, fan across the worker pool with the
// request context threaded through; Sweep, NetworkSweep, the two sweep
// streams and one Network or SimulateNetwork call fire their events on
// the caller's goroutine, the one ranging over a stream).
// Implementations attribute events per-request by reading request-scoped
// carriers out of that context.
//
// Hooks are called synchronously on the solve path, potentially from many
// goroutines at once: implementations must be concurrency-safe and cheap
// (atomic counters, lock-free histograms). The engine's default is no
// observer at all — a nil observer costs one pointer comparison per event
// site and allocates nothing, which is what keeps the zero-alloc session
// gates green.
type Observer interface {
	// ColdSolve reports one compiled-pipeline run: the scheme solved and the
	// wall time it took. Fired for every cache miss that reaches the
	// pipeline, and for every solve when the cache is disabled.
	ColdSolve(ctx context.Context, scheme string, d time.Duration)

	// CacheHit reports a memo-cache hit. The cache is one memo, so shard is
	// always 0; the argument keeps existing implementations compiling.
	CacheHit(ctx context.Context, shard int)

	// CacheMiss reports a memo-cache miss; shard is always 0, as for
	// CacheHit.
	CacheMiss(ctx context.Context, shard int)

	// SharedSolve reports an evaluation served by joining another
	// goroutine's in-flight cold solve (a pending cache entry).
	SharedSolve(ctx context.Context)
}

// WithObserver installs an instrumentation observer (default: none). The
// observer sees every solve the engine performs, whichever API initiated it.
func WithObserver(o Observer) Option {
	return func(s *settings) error {
		s.obs = o
		return nil
	}
}
