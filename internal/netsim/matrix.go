package netsim

import "fmt"

// Matrix returns the pattern's stationary destination distribution for an
// n-tile interconnect: row s is the probability that a message sourced at s
// targets each destination (zero diagonal, rows sum to 1). It is the
// analytic counterpart of the sampling in trafficGenerator.pickDestination,
// and the traffic-matrix input of the network-level evaluator (internal/noc).
//
// hotspotNode and hotspotFrac apply to Hotspot only (Config.HotspotNode,
// Config.HotspotFraction); the Streaming pattern shapes arrival times, not
// destinations, so its matrix is Uniform's.
func (p Pattern) Matrix(n, hotspotNode int, hotspotFrac float64) ([][]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("netsim: matrix needs at least 2 tiles, got %d", n)
	}
	m := make([][]float64, n)
	for s := range m {
		m[s] = make([]float64, n)
	}
	uniform := 1 / float64(n-1)
	switch p {
	case Uniform, Streaming:
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if d != s {
					m[s][d] = uniform
				}
			}
		}
	case Hotspot:
		if hotspotNode < 0 || hotspotNode >= n {
			return nil, fmt.Errorf("netsim: hotspot node %d outside [0,%d)", hotspotNode, n)
		}
		if !(hotspotFrac > 0 && hotspotFrac < 1) { // NaN fails too
			return nil, fmt.Errorf("netsim: hotspot fraction %g outside (0, 1)", hotspotFrac)
		}
		for s := 0; s < n; s++ {
			if s == hotspotNode {
				for d := 0; d < n; d++ {
					if d != s {
						m[s][d] = uniform
					}
				}
				continue
			}
			// The sampler sends the hotspot share straight to the hot node
			// and the rest uniformly over every other tile — which can hit
			// the hot node again, exactly as pickDestination draws it.
			for d := 0; d < n; d++ {
				if d != s {
					m[s][d] = (1 - hotspotFrac) * uniform
				}
			}
			m[s][hotspotNode] += hotspotFrac
		}
	case Permutation:
		for s := 0; s < n; s++ {
			d := (s + n/2) % n
			if d == s {
				d = (d + 1) % n
			}
			m[s][d] = 1
		}
	default:
		return nil, fmt.Errorf("netsim: unknown pattern %v", p)
	}
	return m, nil
}

// Matrix extracts the empirical traffic matrix of a recorded trace for an
// n-tile interconnect: row s is the fraction of source s's payload bits
// destined to each tile (rows of silent sources are zero). Trace-driven
// matrices feed the network-level evaluator with measured workloads.
func (tr Trace) Matrix(n int) ([][]float64, error) {
	if err := tr.Validate(n); err != nil {
		return nil, err
	}
	m := make([][]float64, n)
	totals := make([]float64, n)
	for s := range m {
		m[s] = make([]float64, n)
	}
	for _, ev := range tr {
		m[ev.Src][ev.Dst] += float64(ev.Bits)
		totals[ev.Src] += float64(ev.Bits)
	}
	for s := range m {
		if totals[s] == 0 {
			continue
		}
		for d := range m[s] {
			m[s][d] /= totals[s]
		}
	}
	return m, nil
}
