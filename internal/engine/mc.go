package engine

import (
	"context"
	"fmt"
	"math"

	"photonoc/internal/ecc"
	"photonoc/internal/fanout"
	"photonoc/internal/mc"
)

// ValidateMC cross-checks the analytic error models behind the engine's
// solves by direct Monte-Carlo simulation: it transmits opts.Frames
// codewords of the scheme through a binary symmetric channel with raw bit
// error probability p and measures the post-decoding bit and frame error
// rates with Wilson confidence intervals (see internal/mc for the bit-sliced
// kernel and the determinism contract). opts.Workers defaults to the
// engine's worker-pool size.
//
// Unlike Evaluate, p here is the *raw channel* flip probability (any value
// in [0, 1) is simulatable), not a post-decoding target.
func (e *Engine) ValidateMC(ctx context.Context, code ecc.Code, p float64, opts mc.Options) (mc.Result, error) {
	if code == nil {
		return mc.Result{}, fmt.Errorf("%w: nil code", ErrInvalidInput)
	}
	if math.IsNaN(p) || p < 0 || p >= 1 {
		return mc.Result{}, fmt.Errorf("%w: raw BER %g outside [0, 1)", ErrInvalidInput, p)
	}
	if opts.Workers <= 0 {
		opts.Workers = e.workers
	}
	res, err := mc.Run(ctx, code, p, opts)
	if err != nil {
		if ctx.Err() != nil {
			return mc.Result{}, err
		}
		return mc.Result{}, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	return res, nil
}

// ValidateGrid runs ValidateMC over the codes × rawBERs grid. Results are
// in deterministic p-major order — all codes at rawBERs[0], then
// rawBERs[1], ... — matching Sweep's grid order. A nil codes slice
// validates the engine roster.
//
// Each point draws from an independent seed derived from opts.Seed and the
// point's grid index, so the full grid is reproducible for a fixed
// (Seed, Shards, grid) regardless of worker count.
//
// This is the one grid the engine fans out: the worker pool claims one
// point at a time and runs its shards on that goroutine (Workers 1). A
// point of the referee's size costs milliseconds, so the fan-out pays. At
// 2 CPUs, the paper roster × {1e-2, 1e-3} grid at 2^18 frames per point
// took 5.4–7.5 ms this way and 10.6–12.2 ms with the points in order and
// the pool on each point's shards instead (5 alternating runs of 30). Keep
// the parallelism at the grid level.
func (e *Engine) ValidateGrid(ctx context.Context, codes []ecc.Code, rawBERs []float64, opts mc.Options) ([]mc.Result, error) {
	if codes == nil {
		codes = e.schemes
	}
	if len(codes) == 0 {
		return nil, fmt.Errorf("%w: empty scheme roster", ErrInvalidInput)
	}
	if len(rawBERs) == 0 {
		return nil, fmt.Errorf("%w: empty raw-BER grid", ErrInvalidInput)
	}
	for i, c := range codes {
		if c == nil {
			return nil, fmt.Errorf("%w: nil code at index %d", ErrInvalidInput, i)
		}
	}
	for _, p := range rawBERs {
		if math.IsNaN(p) || p < 0 || p >= 1 {
			return nil, fmt.Errorf("%w: raw BER %g outside [0, 1)", ErrInvalidInput, p)
		}
	}
	out := make([]mc.Result, len(codes)*len(rawBERs))
	err := fanout.Chunks(ctx, e.workers, len(out), 1, func(ctx context.Context, i, _ int) error {
		o := opts
		o.Workers = 1
		o.Seed = mc.DeriveSeed(opts.Seed, i)
		o.Progress = nil // per-point streaming would interleave across points
		var err error
		out[i], err = e.ValidateMC(ctx, codes[i%len(codes)], rawBERs[i/len(codes)], o)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
