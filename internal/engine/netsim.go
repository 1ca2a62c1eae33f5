package engine

import (
	"context"
	"fmt"

	"photonoc/internal/manager"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
)

// NetworkSimOptions parameterizes one network-scale discrete-event
// simulation run (Engine.SimulateNetwork).
type NetworkSimOptions struct {
	// TargetBER is the post-decoding BER every link must meet.
	TargetBER float64
	// Objective picks the per-link scheme (manager.Choose's rule).
	Objective manager.Objective
	// DAC, when non-nil, quantizes each link's laser setting exactly as
	// the runtime manager would program it.
	DAC *manager.DAC
	// Traffic is the row-normalized traffic matrix; nil means uniform.
	Traffic noc.Matrix
	// InjectionRateBitsPerSec is the offered payload per active tile;
	// 0 simulates at half the analytic saturation rate — the same default
	// operating point the analytic Network evaluates, so analytic and
	// simulated results are directly comparable out of the box.
	InjectionRateBitsPerSec float64
	// MessageBits is the payload per message (0 = 4 KiB).
	MessageBits int
	// Messages is the number of messages to inject (0 = 20000).
	Messages int
	// Seed makes runs reproducible.
	Seed int64
	// MaxQueueDepth bounds per-link occupancy (0 = unbounded; see
	// netsim.NetConfig.MaxQueueDepth).
	MaxQueueDepth int
}

// SimulateNetwork runs the network-scale discrete-event simulator over a
// topology: one NetworkSession.Evaluate on the caller's goroutine, the
// call Network makes, solves the (link × scheme) lattice at the target BER
// through the shared memo cache, decides the per-link winners and resolves
// the default rate, so the simulated scheme/DAC decisions are
// bit-identical to the analytic evaluator's; the event-driven simulation
// then replays a seeded synthetic workload over the routes. The
// simulation core is sequential, so results for a fixed seed are
// bit-identical across engine worker counts.
//
// A topology with an infeasible link cannot be simulated and returns an
// error wrapping ErrInfeasible (unlike the analytic Network, which reports
// it in the Result).
func (e *Engine) SimulateNetwork(ctx context.Context, cfg noc.Config, opts NetworkSimOptions) (netsim.NetResults, error) {
	if err := validateBER(opts.TargetBER); err != nil {
		return netsim.NetResults{}, err
	}
	net, err := e.BuildNetwork(cfg)
	if err != nil {
		return netsim.NetResults{}, err
	}
	// Fail fast, before the lattice solves: the simulator re-validates
	// the traffic and the counts, but by then the solves have already run.
	if opts.Traffic != nil {
		if err := opts.Traffic.Validate(net.Tiles()); err != nil {
			return netsim.NetResults{}, fmt.Errorf("%w: %v", ErrInvalidInput, err)
		}
	}
	if err := netsim.CheckCounts(opts.Messages, opts.MaxQueueDepth); err != nil {
		return netsim.NetResults{}, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	// The decisions alias the session, so it is held until the simulator
	// has copied them.
	s := e.acquireSession()
	defer e.releaseSession(s)
	agg, err := s.Evaluate(ctx, NetworkCandidate{Topology: cfg, Opts: noc.EvalOptions{
		TargetBER:               opts.TargetBER,
		Objective:               opts.Objective,
		Traffic:                 opts.Traffic,
		InjectionRateBitsPerSec: opts.InjectionRateBitsPerSec,
		MessageBits:             opts.MessageBits,
		DAC:                     opts.DAC,
	}})
	if err != nil {
		return netsim.NetResults{}, err
	}
	if !agg.Feasible {
		return netsim.NetResults{}, fmt.Errorf("%w: %s", ErrInfeasible, agg.InfeasibleReason)
	}

	// With a zero rate the aggregate adopts the analytic default operating
	// point, half the saturation rate of this exact decision set.
	res, err := netsim.RunNetwork(ctx, netsim.NetConfig{
		Net:                     net,
		Decisions:               agg.Decisions,
		Traffic:                 opts.Traffic,
		MessageBits:             opts.MessageBits,
		InjectionRateBitsPerSec: agg.InjectionRateBitsPerSec,
		Messages:                opts.Messages,
		Seed:                    opts.Seed,
		MaxQueueDepth:           opts.MaxQueueDepth,
	})
	if err != nil && ctx.Err() == nil {
		// Everything netsim rejects at this point is a per-call input
		// (negative counts, malformed rate); cancellation passes through.
		return res, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	return res, err
}
