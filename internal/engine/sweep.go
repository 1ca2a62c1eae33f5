package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

// Result is one streamed sweep outcome. Index is the position the result
// occupies in the equivalent batch Sweep slice (BER-major, then scheme
// order); a terminal failure is delivered as the final Result with Err set.
type Result struct {
	Index      int
	Evaluation core.Evaluation
	Err        error
}

// checkSweep validates a sweep request up front and returns the roster it
// sweeps: a nil codes slice means the engine roster.
func (e *Engine) checkSweep(codes []ecc.Code, targetBERs []float64) ([]ecc.Code, error) {
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
	return codes, nil
}

// Sweep solves codes × targetBERs on the caller's goroutine and returns
// the results in BER-major, then scheme order: it is the sequential
// reference core.SweepWith run over the engine's memo cache. A nil codes
// slice sweeps the engine roster. The first error (or context
// cancellation) aborts the remaining work.
func (e *Engine) Sweep(ctx context.Context, codes []ecc.Code, targetBERs []float64) ([]core.Evaluation, error) {
	codes, err := e.checkSweep(codes, targetBERs)
	if err != nil {
		return nil, err
	}
	return core.SweepWith(ctx, e, codes, targetBERs)
}

// SweepStream is the streaming variant of Sweep: it returns immediately
// with a channel that yields one Result per grid point, in Sweep's order,
// as soon as each point has been solved by the one producer goroutine
// behind the stream. The channel is buffered for the whole grid, so the
// producer never blocks and abandoning the stream leaks nothing. On error
// or cancellation the stream ends early with a final Result carrying Err;
// the channel is always closed.
func (e *Engine) SweepStream(ctx context.Context, codes []ecc.Code, targetBERs []float64) <-chan Result {
	codes, err := e.checkSweep(codes, targetBERs)
	if err != nil {
		return failed(Result{Err: err})
	}
	codes, bers := slices.Clone(codes), slices.Clone(targetBERs)
	out := make(chan Result, len(codes)*len(bers))
	go func() {
		defer close(out)
		i := 0
		for _, ber := range bers {
			for _, c := range codes {
				ev, err := e.Evaluate(ctx, c, ber)
				if err != nil {
					out <- Result{Index: i, Err: err}
					return
				}
				out <- Result{Index: i, Evaluation: ev}
				i++
			}
		}
	}()
	return out
}

// failed returns a closed stream holding the single item v: the stream
// form of an error found before any work starts.
func failed[T any](v T) <-chan T {
	out := make(chan T, 1)
	out <- v
	close(out)
	return out
}

// ordered is the reorder buffer behind NetworkBatchStream: produce runs on
// its own goroutine and emits items 0..n-1 in any order, and the returned
// channel yields each in index order once its predecessors have. It
// buffers all n items plus one, so abandoning it leaks nothing. If produce
// stops early, the stream ends with terminal(next, err): next is the first
// missing index, err produce's error, else ctx's, else nil.
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
