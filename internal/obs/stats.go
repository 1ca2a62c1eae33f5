package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// RequestStats accumulates the engine events attributable to one request.
// The onocd middleware allocates one per request and stores it in the
// request context; the engine's Observer hooks (running on whatever worker
// goroutine performs the solve) find it through the context they were
// handed and add to it atomically. The access log then attributes each
// p99 spike to cold solves vs cache traffic without any global state.
type RequestStats struct {
	ColdSolves   atomic.Uint64
	ColdSolveNS  atomic.Int64
	CacheHits    atomic.Uint64
	CacheMisses  atomic.Uint64
	SharedSolves atomic.Uint64
}

// ColdSolveTime returns the accumulated cold-solve wall time.
func (s *RequestStats) ColdSolveTime() time.Duration {
	return time.Duration(s.ColdSolveNS.Load())
}

// statsKey carries a *RequestStats in a context.
type statsKey struct{}

// ContextWithStats attaches a request-stats accumulator.
func ContextWithStats(ctx context.Context, s *RequestStats) context.Context {
	return context.WithValue(ctx, statsKey{}, s)
}

// StatsFrom returns the context's accumulator, or nil when the request is
// not instrumented (library callers, tests). Observer implementations
// nil-check the result; the lookup itself allocates nothing.
func StatsFrom(ctx context.Context) *RequestStats {
	s, _ := ctx.Value(statsKey{}).(*RequestStats)
	return s
}
