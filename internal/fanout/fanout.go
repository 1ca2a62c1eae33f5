// Package fanout is the module's one worker pool: sweeps, validation grids,
// network batches and Monte-Carlo shard rounds all run on Chunks.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Chunks splits [0, n) into contiguous chunks of size indices (the last may
// be shorter; a size below 1 counts as 1) and runs work(ctx, lo, hi) for
// each on at most workers goroutines, which claim the chunks in index
// order, goroutine g starting with chunk g; with one worker the chunks run
// in order on the caller's goroutine. Size 1 balances items of uneven cost
// and grows the finished prefix at the pool's rate, as an in-order stream
// needs; size ⌈n/workers⌉ gives each goroutine exactly one block, so
// per-chunk state (a pooled session) sees the locality of its input. The
// first error cancels the context the other chunks see, stops further
// claims and is returned; otherwise Chunks returns ctx.Err(). work checks
// its context between the items of a chunk.
func Chunks(ctx context.Context, workers, n, size int, work func(ctx context.Context, lo, hi int) error) error {
	size = max(size, 1)
	chunks := (n + size - 1) / size
	run := func(ctx context.Context, c int) error { return work(ctx, c*size, min((c+1)*size, n)) }
	if workers = min(workers, chunks); workers <= 1 {
		for c := 0; c < chunks && ctx.Err() == nil; c++ {
			if err := run(ctx, c); err != nil {
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
	wg.Add(workers)
	next.Store(int64(workers))
	for g := range workers {
		go func() {
			defer wg.Done()
			for c := g; c < chunks && poolCtx.Err() == nil; c = int(next.Add(1) - 1) {
				if err := run(poolCtx, c); err != nil {
					once.Do(func() { first = err; cancel() })
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}
