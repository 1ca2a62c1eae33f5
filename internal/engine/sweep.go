package engine

import (
	"context"
	"fmt"
	"runtime"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/fanout"
)

// point is one (scheme, target BER) cell of a sweep grid.
type point struct {
	code ecc.Code
	ber  float64
}

// Result is one streamed sweep outcome. Index is the position the result
// occupies in the equivalent batch Sweep slice (BER-major, then scheme
// order); a terminal failure is delivered as the final Result with Err set.
type Result struct {
	Index      int
	Evaluation core.Evaluation
	Err        error
}

// sweepPoints validates a sweep request and expands it into the
// deterministic BER-major grid. A nil codes slice means the engine roster.
func (e *Engine) sweepPoints(codes []ecc.Code, targetBERs []float64) ([]point, error) {
	if codes == nil {
		codes = e.schemes
	}
	if len(codes) == 0 {
		return nil, fmt.Errorf("%w: empty scheme roster", ErrInvalidInput)
	}
	if len(targetBERs) == 0 {
		return nil, fmt.Errorf("%w: empty BER grid", ErrInvalidInput)
	}
	for i, c := range codes {
		if c == nil {
			return nil, fmt.Errorf("%w: nil code at index %d", ErrInvalidInput, i)
		}
	}
	for _, ber := range targetBERs {
		if err := validateBER(ber); err != nil {
			return nil, err
		}
	}
	pts := make([]point, 0, len(codes)*len(targetBERs))
	for _, ber := range targetBERs {
		for _, c := range codes {
			pts = append(pts, point{code: c, ber: ber})
		}
	}
	return pts, nil
}

// Sweep solves codes × targetBERs across the worker pool and returns the
// results in deterministic order — identical, element for element, to the
// sequential core.LinkConfig.Sweep (BER-major, then scheme order). A nil
// codes slice sweeps the engine roster. The first error (or context
// cancellation) aborts the remaining work.
func (e *Engine) Sweep(ctx context.Context, codes []ecc.Code, targetBERs []float64) ([]core.Evaluation, error) {
	pts, err := e.sweepPoints(codes, targetBERs)
	if err != nil {
		return nil, err
	}
	out := make([]core.Evaluation, len(pts))
	if err := e.forEach(ctx, len(pts), func(ctx context.Context, i int) error {
		ev, err := e.Evaluate(ctx, pts[i].code, pts[i].ber)
		if err != nil {
			return err
		}
		out[i] = ev
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SweepStream is the streaming variant of Sweep: it returns immediately
// with a channel that yields one Result per grid point, in the same
// deterministic order as Sweep, as soon as each point (and all its
// predecessors) has been solved. The channel is buffered for the whole
// grid, so the producer never blocks and abandoning the stream leaks
// nothing. On error or cancellation the stream ends early with a final
// Result carrying Err; the channel is always closed.
func (e *Engine) SweepStream(ctx context.Context, codes []ecc.Code, targetBERs []float64) <-chan Result {
	pts, err := e.sweepPoints(codes, targetBERs)
	if err != nil {
		return failed(Result{Err: err})
	}
	return ordered(ctx, len(pts), func(emit func(int, Result)) error {
		return e.forEach(ctx, len(pts), func(ctx context.Context, i int) error {
			ev, err := e.Evaluate(ctx, pts[i].code, pts[i].ber)
			if err != nil {
				return err
			}
			emit(i, Result{Index: i, Evaluation: ev})
			return nil
		})
	}, func(next int, err error) Result {
		if err == nil {
			err = fmt.Errorf("photonoc: sweep aborted at point %d", next)
		}
		return Result{Index: next, Err: err}
	})
}

// failed returns a closed stream holding the single item v: the stream
// form of an error found before any work starts.
func failed[T any](v T) <-chan T {
	out := make(chan T, 1)
	out <- v
	close(out)
	return out
}

// ordered is the reorder buffer behind every engine stream: produce runs
// on its own goroutine and emits items 0..n-1 in any order, and the
// returned channel yields each in index order once its predecessors have.
// It buffers all n items plus one, so abandoning it leaks nothing. If
// produce stops early, the stream ends with terminal(next, err): next is
// the first missing index, err produce's error, else ctx's, else nil.
func ordered[T any](ctx context.Context, n int, produce func(emit func(int, T)) error, terminal func(next int, err error) T) <-chan T {
	type item struct {
		i int
		v T
	}
	out := make(chan T, n+1)
	go func() {
		defer close(out)
		unordered := make(chan item, n)
		var err error
		go func() {
			defer close(unordered)
			err = produce(func(i int, v T) {
				unordered <- item{i, v}
				runtime.Gosched() // pool workers never block: let the reorder loop run
			})
		}()
		pending := make([]T, n)
		arrived := make([]bool, n)
		next := 0
		for it := range unordered {
			pending[it.i], arrived[it.i] = it.v, true
			for ; next < n && arrived[next]; next++ {
				out <- pending[next]
			}
		}
		if next < n {
			// err is safely visible here: produce's goroutine wrote it
			// before closing unordered, and the range above completed.
			if err == nil {
				err = ctx.Err()
			}
			out <- terminal(next, err)
		}
	}()
	return out
}

// forEach runs fn(0..n-1) on the engine's worker pool, one index per
// claim in index order: grid points of uneven cost balance across the
// workers, and a stream's in-order prefix grows at the pool's rate. The
// first error or the caller's cancellation stops the rest and is returned.
func (e *Engine) forEach(ctx context.Context, n int, fn func(context.Context, int) error) error {
	return fanout.Chunks(ctx, e.workers, n, 1, func(ctx context.Context, i, _ int) error {
		return fn(ctx, i)
	})
}
