package onocd

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"photonoc/internal/obs"
)

// coldSolveBuckets are the upper bounds (seconds) of the cold-solve duration
// histogram. Compiled solves run tens of microseconds to low milliseconds;
// the tail buckets catch pathological configurations.
var coldSolveBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// engineObserver is the serving layer's engine.Observer: it aggregates the
// engine's cold solves into the /metrics histogram (the cache and
// shared-solve totals come from engine.CacheStats) and mirrors each
// event into the per-request obs.RequestStats riding the evaluation's
// context, so the access log can attribute latency per request.
//
// One observer lives per engine generation (it is built alongside the engine
// in newEngineState), so a hot reload starts its histograms cold together
// with the memo cache. All fields are atomics: the hooks run concurrently on
// the solve path.
type engineObserver struct {
	coldBuckets []atomic.Uint64 // indexed like coldSolveBuckets; overflow uncounted (le=+Inf uses count)
	coldCount   atomic.Uint64
	coldSumNS   atomic.Int64
}

func newEngineObserver() *engineObserver {
	return &engineObserver{coldBuckets: make([]atomic.Uint64, len(coldSolveBuckets))}
}

func (o *engineObserver) ColdSolve(ctx context.Context, scheme string, d time.Duration) {
	sec := d.Seconds()
	for i, ub := range coldSolveBuckets {
		if sec <= ub {
			o.coldBuckets[i].Add(1)
			break
		}
	}
	o.coldCount.Add(1)
	o.coldSumNS.Add(int64(d))
	if s := obs.StatsFrom(ctx); s != nil {
		s.ColdSolves.Add(1)
		s.ColdSolveNS.Add(int64(d))
	}
}

func (o *engineObserver) CacheHit(ctx context.Context, _ int) {
	if s := obs.StatsFrom(ctx); s != nil {
		s.CacheHits.Add(1)
	}
}

func (o *engineObserver) CacheMiss(ctx context.Context, _ int) {
	if s := obs.StatsFrom(ctx); s != nil {
		s.CacheMisses.Add(1)
	}
}

func (o *engineObserver) SharedSolve(ctx context.Context) {
	if s := obs.StatsFrom(ctx); s != nil {
		s.SharedSolves.Add(1)
	}
}

// writeTo renders the observer's series in the Prometheus text format.
func (o *engineObserver) writeTo(w io.Writer) {
	fmt.Fprintf(w, "# HELP onocd_cold_solve_duration_seconds Wall time of compiled-pipeline solves (cache misses).\n# TYPE onocd_cold_solve_duration_seconds histogram\n")
	var cum uint64
	for i, ub := range coldSolveBuckets {
		cum += o.coldBuckets[i].Load()
		fmt.Fprintf(w, "onocd_cold_solve_duration_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	count := o.coldCount.Load()
	fmt.Fprintf(w, "onocd_cold_solve_duration_seconds_bucket{le=\"+Inf\"} %d\n", count)
	fmt.Fprintf(w, "onocd_cold_solve_duration_seconds_sum %g\n", time.Duration(o.coldSumNS.Load()).Seconds())
	fmt.Fprintf(w, "onocd_cold_solve_duration_seconds_count %d\n", count)
}
