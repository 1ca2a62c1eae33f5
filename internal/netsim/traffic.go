package netsim

import "math/rand"

// trafficGenerator produces each source's next message according to the
// configured pattern.
type trafficGenerator struct {
	cfg          Config
	rng          *rand.Rand
	srcRate      float64
	baseTransfer float64
	n            int
}

// next returns the source's next arrival after `now`: the arrival time is
// drawn before the destination.
func (g *trafficGenerator) next(src int, now float64) TraceEvent {
	var at float64
	switch g.cfg.Pattern {
	case Streaming:
		if src%2 == 0 {
			// Streaming sources are periodic with 20% jitter.
			period := 1 / g.srcRate
			at = now + period*(0.9+0.2*g.rng.Float64())
		} else {
			at = now + g.rng.ExpFloat64()/g.srcRate
		}
	default:
		at = now + g.rng.ExpFloat64()/g.srcRate
	}

	ev := TraceEvent{TimeSec: at, Src: src, Dst: g.pickDestination(src), Bits: g.cfg.MessageBits}
	if g.cfg.DeadlineSlack > 0 {
		slack := g.cfg.DeadlineSlack
		if g.cfg.Pattern == Streaming && src%2 == 0 {
			// Streaming flows carry the tight deadlines.
			slack = max(1.05, slack/2)
		}
		ev.DeadlineSec = at + slack*g.baseTransfer
	}
	return ev
}

// pickDestination applies the pattern's destination distribution.
func (g *trafficGenerator) pickDestination(src int) int {
	switch g.cfg.Pattern {
	case Hotspot:
		if src != g.cfg.HotspotNode && g.rng.Float64() < g.cfg.HotspotFraction {
			return g.cfg.HotspotNode
		}
		return g.uniformOther(src)
	case Permutation:
		dst := (src + g.n/2) % g.n
		if dst == src {
			dst = (dst + 1) % g.n
		}
		return dst
	default:
		return g.uniformOther(src)
	}
}

// uniformOther picks a uniformly random destination other than src.
func (g *trafficGenerator) uniformOther(src int) int {
	dst := g.rng.Intn(g.n - 1)
	if dst >= src {
		dst++
	}
	return dst
}
