package engine

import (
	"context"
	"fmt"
	"iter"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

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

// SweepStream is the streaming variant of Sweep: the returned iterator
// solves the grid when it is ranged over, on the ranging goroutine, and
// yields each evaluation as soon as it is solved, in Sweep's order: the
// i-th pair is item i of the batch slice. An invalid request or a failed
// solve (cancellation included) ends the stream with one pair carrying the
// error; breaking out of the range stops the sweep at once. The codes and
// BER slices are read when the iterator runs.
func (e *Engine) SweepStream(ctx context.Context, codes []ecc.Code, targetBERs []float64) iter.Seq2[core.Evaluation, error] {
	return func(yield func(core.Evaluation, error) bool) {
		codes, err := e.checkSweep(codes, targetBERs)
		if err != nil {
			yield(core.Evaluation{}, err)
			return
		}
		for _, ber := range targetBERs {
			for _, c := range codes {
				ev, err := e.Evaluate(ctx, c, ber)
				if err != nil {
					yield(core.Evaluation{}, err)
					return
				}
				if !yield(ev, nil) {
					return
				}
			}
		}
	}
}
