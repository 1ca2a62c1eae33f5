package noc

import (
	"fmt"
	"math"

	"photonoc/internal/apierr"
)

// ErrZeroTraffic re-exports the API sentinel for an all-silent traffic
// matrix: every row sums to zero, so no link carries load and saturation
// and throughput figures are undefined. Matrix.Validate wraps it, and
// EvalSession.Aggregate returns it as a defense-in-depth guard if such a
// matrix slips past validation — the result is never a silent +Inf.
var ErrZeroTraffic = apierr.ErrZeroTraffic

// Matrix is a row-normalized traffic matrix: Matrix[s][d] is the fraction
// of tile s's injected payload destined to tile d. Rows sum to 1 (or to 0
// for a silent source, as trace-driven matrices produce), the diagonal is
// zero. The netsim layer extracts matrices from its synthetic patterns
// (Pattern.Matrix) and from recorded traces (Trace.Matrix).
type Matrix [][]float64

// UniformMatrix spreads every tile's traffic evenly over the other tiles.
func UniformMatrix(tiles int) Matrix {
	m := make(Matrix, tiles)
	w := 1 / float64(tiles-1)
	for s := range m {
		m[s] = make([]float64, tiles)
		for d := range m[s] {
			if d != s {
				m[s][d] = w
			}
		}
	}
	return m
}

// Weight returns the fraction of tile src's traffic destined to dst in a
// tiles-tile network: m[src][dst], or for a nil matrix the uniform rule,
// 1/(tiles−1) off the diagonal and 0 on it — the values UniformMatrix
// stores, bit for bit.
func (m Matrix) Weight(src, dst, tiles int) float64 {
	if m != nil {
		return m[src][dst]
	}
	if src == dst {
		return 0
	}
	return 1 / float64(tiles-1)
}

// rowSumTol absorbs the float error of row normalization.
const rowSumTol = 1e-9

// Validate checks shape and stochasticity for a tiles-tile network.
func (m Matrix) Validate(tiles int) error {
	if len(m) != tiles {
		return fmt.Errorf("noc: traffic matrix has %d rows for %d tiles", len(m), tiles)
	}
	active := 0
	for s, row := range m {
		if len(row) != tiles {
			return fmt.Errorf("noc: traffic matrix row %d has %d columns for %d tiles", s, len(row), tiles)
		}
		sum := 0.0
		for d, w := range row {
			if math.IsNaN(w) || w < 0 {
				return fmt.Errorf("noc: traffic matrix [%d][%d] = %g must be a non-negative number", s, d, w)
			}
			if d == s && w != 0 {
				return fmt.Errorf("noc: traffic matrix row %d sends to itself", s)
			}
			sum += w
		}
		switch {
		case sum == 0:
			// Silent source (legal for trace-driven matrices).
		case math.Abs(sum-1) <= rowSumTol:
			active++
		default:
			return fmt.Errorf("noc: traffic matrix row %d sums to %g, want 0 or 1", s, sum)
		}
	}
	if active == 0 {
		return fmt.Errorf("%w: traffic matrix has no active source", ErrZeroTraffic)
	}
	return nil
}
