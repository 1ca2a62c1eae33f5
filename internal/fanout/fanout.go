// Package fanout is the module's one worker pool: network batches,
// validation grids and Monte-Carlo shard rounds run on Chunks. Each of them
// has items that cost far more than a goroutine hand-off; sweeps, whose
// cells cost about a microsecond, run in order on the caller's goroutine
// instead.
package fanout

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Chunks splits [0, n) into contiguous chunks of size indices (the last may
// be shorter; a size below 1 counts as 1) and runs work(ctx, lo, hi) for
// each on at most workers goroutines, which claim the chunks in index
// order, goroutine g starting with chunk g. Goroutine 0 is the caller's
// own, so with one worker the chunks run in order on it. Size 1 balances
// items of uneven cost, such as validation points or Monte-Carlo shards;
// size ⌈n/workers⌉ gives each goroutine exactly one block, so per-chunk
// state (a pooled session) sees the locality of its input. The first error
// cancels the context the other chunks see, stops further claims and is
// returned; otherwise Chunks returns ctx.Err(). work checks its context
// between the items of a chunk.
func Chunks(ctx context.Context, workers, n, size int, work func(ctx context.Context, lo, hi int) error) error {
	step := max(size, 1) // a fresh variable, so the closures capture it by value
	chunks := (n + step - 1) / step
	if workers = min(workers, chunks); workers <= 1 {
		for c := 0; c < chunks && ctx.Err() == nil; c++ {
			if err := work(ctx, c*step, min((c+1)*step, n)); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		once  sync.Once
		first error
	)
	run := func(g int) {
		for c := g; c < chunks && poolCtx.Err() == nil; c = int(next.Add(1) - 1) {
			if err := work(poolCtx, c*step, min((c+1)*step, n)); err != nil {
				once.Do(func() { first = err; cancel() })
				return
			}
		}
	}
	wg.Add(workers - 1)
	next.Store(int64(workers))
	for g := 1; g < workers; g++ {
		go func() {
			defer wg.Done()
			run(g)
		}()
	}
	// A goroutine just started waits in this P's next-run slot, which an
	// idle P steals only after a back-off of tens of microseconds: a
	// batch's second block would start that late. Yielding once runs it
	// here at once and resumes the caller on the next free P.
	runtime.Gosched()
	run(0)
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}
