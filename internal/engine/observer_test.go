package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"photonoc/internal/ecc"
	"photonoc/internal/obs"
)

// countingObserver tallies every hook invocation and mirrors events into the
// context's RequestStats when one is attached — the same shape the serving
// layer's observer has.
type countingObserver struct {
	coldSolves   atomic.Uint64
	coldNS       atomic.Int64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	sharedSolves atomic.Uint64
}

func (o *countingObserver) ColdSolve(ctx context.Context, scheme string, d time.Duration) {
	o.coldSolves.Add(1)
	o.coldNS.Add(int64(d))
	if s := obs.StatsFrom(ctx); s != nil {
		s.ColdSolves.Add(1)
		s.ColdSolveNS.Add(int64(d))
	}
}

func (o *countingObserver) CacheHit(ctx context.Context, _ int) {
	o.cacheHits.Add(1)
	if s := obs.StatsFrom(ctx); s != nil {
		s.CacheHits.Add(1)
	}
}

func (o *countingObserver) CacheMiss(ctx context.Context, _ int) {
	o.cacheMisses.Add(1)
	if s := obs.StatsFrom(ctx); s != nil {
		s.CacheMisses.Add(1)
	}
}

func (o *countingObserver) SharedSolve(ctx context.Context) {
	o.sharedSolves.Add(1)
	if s := obs.StatsFrom(ctx); s != nil {
		s.SharedSolves.Add(1)
	}
}

// TestObserverMatchesCacheStats: the observer's tallies agree with the
// engine's own CacheStats accounting across cold solves, cache hits and a
// repeated sweep, and per-request stats attached to the context receive the
// same events.
func TestObserverMatchesCacheStats(t *testing.T) {
	o := &countingObserver{}
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes, WithObserver(o))

	st := &obs.RequestStats{}
	ctx := obs.ContextWithStats(context.Background(), st)
	bers := []float64{1e-9, 1e-10, 1e-11, 1e-12}
	if _, err := e.Sweep(ctx, codes, bers); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sweep(ctx, codes, bers); err != nil {
		t.Fatal(err)
	}

	cs := e.CacheStats()
	if got, want := o.coldSolves.Load(), cs.ColdSolves; got != want {
		t.Errorf("observer cold solves %d, CacheStats %d", got, want)
	}
	if got, want := o.cacheHits.Load(), cs.Hits; got != want {
		t.Errorf("observer cache hits %d, CacheStats %d", got, want)
	}
	if got, want := o.cacheMisses.Load(), cs.Misses; got != want {
		t.Errorf("observer cache misses %d, CacheStats %d", got, want)
	}
	if got, want := o.sharedSolves.Load(), cs.SharedSolves; got != want {
		t.Errorf("observer shared solves %d, CacheStats %d", got, want)
	}
	if o.coldNS.Load() <= 0 {
		t.Error("observer accumulated no cold-solve time")
	}
	// The second sweep is all hits: at least one hit per grid point.
	if o.cacheHits.Load() < uint64(len(codes)*len(bers)) {
		t.Errorf("cache hits %d < grid size %d", o.cacheHits.Load(), len(codes)*len(bers))
	}
	// Request attribution: the context carrier saw the same totals.
	if st.ColdSolves.Load() != cs.ColdSolves || st.CacheHits.Load() != cs.Hits {
		t.Errorf("request stats (cold %d, hits %d) diverge from CacheStats (cold %d, hits %d)",
			st.ColdSolves.Load(), st.CacheHits.Load(), cs.ColdSolves, cs.Hits)
	}
}

// TestObserverNilPathZeroAlloc is the CI gate for the instrumentation seam:
// with no observer installed, steady-state cache hits through the public
// Evaluate path allocate nothing — the seam is a pointer comparison, not a
// wrapper.
func TestObserverNilPathZeroAlloc(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes)
	ctx := context.Background()
	if _, err := e.Evaluate(ctx, codes[0], 1e-11); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Evaluate(ctx, codes[0], 1e-11); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("nil-observer cache hit allocated %.1f times per call, want 0", allocs)
	}
}

// BenchmarkObserverNilPath measures the warm-hit path with the seam in place
// and no observer — the -benchtime=1x CI smoke runs this with allocation
// reporting.
func BenchmarkObserverNilPath(b *testing.B) {
	codes := ecc.PaperSchemes()
	e, err := New(WithSchemes(codes...))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Evaluate(ctx, codes[0], 1e-11); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(ctx, codes[0], 1e-11); err != nil {
			b.Fatal(err)
		}
	}
}
