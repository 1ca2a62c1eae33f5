// Package engine is the concurrent, context-aware evaluation core behind
// the public photonoc.Engine API: a batch solver over the (scheme ×
// target-BER) design space, a bounded, coalescing memo cache
// keyed by (interned configuration, interned scheme, BER), and typed errors
// for the API boundary. The manager and the traffic simulator evaluate through it, so
// repeated decisions and overlapping sweeps never re-solve the optical
// budget.
package engine

import "photonoc/internal/apierr"

// The API-boundary sentinels, re-exported from internal/apierr (the
// neutral home every layer can wrap them from).
var (
	// ErrInvalidConfig reports an engine that cannot be constructed:
	// invalid link configuration, empty scheme roster, non-positive
	// worker count or negative cache size.
	ErrInvalidConfig = apierr.ErrInvalidConfig

	// ErrInvalidInput reports a per-call input the engine refuses to
	// evaluate: a nil code, a target BER outside (0, 0.5), an empty
	// sweep grid.
	ErrInvalidInput = apierr.ErrInvalidInput

	// ErrInfeasible reports that no registered scheme satisfies the
	// requested operating point; it wraps the manager's
	// ErrNoFeasibleScheme at the API boundary.
	ErrInfeasible = apierr.ErrInfeasible

	// ErrZeroTraffic reports a NoC candidate whose traffic matrix injects
	// no traffic (every row sums to zero), so saturation and throughput
	// figures are undefined. It rides inside the ErrInvalidInput wrap the
	// network paths apply, and errors.Is matches both sentinels.
	ErrZeroTraffic = apierr.ErrZeroTraffic
)
