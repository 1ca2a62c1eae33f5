package netsim

import (
	"context"
	"fmt"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// RunCtx generates the configured workload and executes the simulation,
// solving the scheme roster through ev. It is exactly RecordTraceCtx
// followed by RunTraceCtx, which guarantees that recorded traces replay to
// identical results. The engine layer passes itself as ev so the roster
// resolves against its memo cache; a nil ev is an invalid configuration.
// Cancellation aborts trace generation and the event loop.
func RunCtx(ctx context.Context, cfg Config, ev core.Evaluator) (Results, error) {
	tr, err := RecordTraceCtx(ctx, cfg)
	if err != nil {
		return Results{}, err
	}
	return RunTraceCtx(ctx, cfg, tr, ev)
}

// RunTraceCtx replays a recorded trace against the configured link and
// policies (see RunCtx). The traffic fields of cfg (Pattern, HotspotNode,
// HotspotFraction, MessageBits, Load, Messages, Seed, DeadlineSlack) are
// ignored and not validated: the trace carries its own arrivals, payloads
// and deadlines.
//
// The link is the event loop's degenerate network: reader channel d is
// link d, one hop from every writer (the zero noc.Router). The run solves
// the roster through ev and programs each feasible scheme's DAC once;
// manager.Choose decides each transfer after the token grant and manager
// round trip (core.TokenOverheadSec) have held the channel. With
// AdaptToDeadline the CT cap is what the message's remaining slack allows;
// when no scheme fits the fastest is used, and the miss is counted at
// delivery.
func RunTraceCtx(ctx context.Context, cfg Config, tr Trace, ev core.Evaluator) (Results, error) {
	if err := cfg.validateLink(); err != nil {
		return Results{}, err
	}
	topo := cfg.Link.Channel.Topo
	n := topo.ONIs
	if err := tr.Validate(n); err != nil {
		return Results{}, err
	}
	if ev == nil {
		return Results{}, fmt.Errorf("%w: netsim: nil evaluator", apierr.ErrInvalidConfig)
	}
	if err := cfg.DAC.Validate(); err != nil {
		return Results{}, fmt.Errorf("%w: %v", apierr.ErrInvalidConfig, err)
	}
	nw := float64(topo.Wavelengths)
	capacity := nw * cfg.Link.FmodHz
	modW := cfg.Link.ModulatorPowerW * nw

	row, err := core.EvaluateAllWith(ctx, ev, cfg.Schemes, cfg.TargetBER)
	if err != nil {
		return Results{}, fmt.Errorf("netsim: configuring transfer: %w", err)
	}
	// Program each feasible scheme once. A programming error is kept with
	// its scheme: only the transfers that choose that scheme fail on it.
	grants := make([]grant, len(row))
	progErr := make([]error, len(row))
	for i := range row {
		if !row[i].Feasible {
			continue
		}
		dec, err := manager.Program(cfg.DAC, &cfg.Link, &row[i])
		progErr[i] = err
		grants[i] = grant{
			laserW: dec.QuantizedLaserPowerW * nw,
			modW:   modW,
			intfW:  cfg.Link.InterfacePowerFor(row[i].Code).TotalW(),
		}
		if !cfg.IdleLaserOff {
			// Lasers of an idle channel keep their standing power unless
			// the idle-laser-off extension [9] is active.
			grants[i].heldW = grants[i].laserW
		}
	}
	// The deadline fallback (fastest, uncapped) and its error are fixed too.
	fallback := manager.Choose(row, manager.Requirements{Objective: manager.MinLatency})
	fallbackErr := fmt.Errorf("%w (%w): BER %g, CT cap 0", manager.ErrNoFeasibleScheme, apierr.ErrInfeasible, cfg.TargetBER)
	if fallback >= 0 {
		fallbackErr = progErr[fallback]
	}

	servers := make([]server, n)
	for d := range servers {
		servers[d] = server{hold: core.TokenOverheadSec}
	}

	uses := make([]int64, len(row))
	t, err := simulate(ctx, tr, nil, n, noc.Router{}, servers, 0, func(_ int, m *TraceEvent, start float64) (grant, error) {
		req := manager.Requirements{Objective: cfg.Objective}
		if cfg.AdaptToDeadline && m.DeadlineSec > 0 {
			if maxCT := (m.DeadlineSec - start) / (float64(m.Bits) / capacity); maxCT >= 1 {
				req.MaxCT = maxCT
			} else {
				req.Objective = manager.MinLatency // already late: go fastest
			}
		}
		i := manager.Choose(row, req)
		if i < 0 || progErr[i] != nil {
			// Deadline pressure can make every scheme ineligible; fall back
			// to the fastest (best effort, counted as a miss).
			if fallbackErr != nil {
				return grant{}, fmt.Errorf("netsim: configuring transfer: %w", fallbackErr)
			}
			i = fallback
		}
		uses[i]++
		g := grants[i]
		g.sec = float64(m.Bits) / capacity * row[i].CT
		return g, nil
	})
	if err != nil {
		return Results{}, err
	}

	res := Results{SchemeUse: make(map[string]int64)}
	for i, u := range uses {
		if u > 0 {
			res.SchemeUse[row[i].Code.Name()] += u
		}
	}
	res.Messages = t.delivered
	res.DeliveredBits = t.deliveredBits
	res.SimTimeSec = t.horizon
	res.MeanLatencySec, res.P50LatencySec, res.P95LatencySec, res.P99LatencySec, res.MaxLatencySec = t.mean, t.p50, t.p95, t.p99, t.max
	res.MeanQueueWaitSec = t.meanWait
	res.DeadlineMisses = t.misses
	res.LaserEnergyJ, res.ModulatorEnergyJ, res.InterfaceEnergyJ, res.IdleEnergyJ = t.laserJ, t.modJ, t.intfJ, t.idleJ
	res.TotalEnergyJ = res.LaserEnergyJ + res.ModulatorEnergyJ + res.InterfaceEnergyJ + res.IdleEnergyJ
	if res.DeliveredBits > 0 {
		res.EnergyPerBitJ = res.TotalEnergyJ / float64(res.DeliveredBits)
	}
	if res.SimTimeSec > 0 {
		res.ThroughputBitsPerSec = float64(res.DeliveredBits) / res.SimTimeSec
		var busy float64
		res.PerChannel = make([]ChannelStats, n)
		for d, lt := range t.links {
			busy += lt.busy
			res.PerChannel[d] = ChannelStats{
				Channel:       d,
				Messages:      lt.served,
				BusyFraction:  lt.busy / res.SimTimeSec,
				ActiveEnergyJ: lt.laserJ + lt.sendJ,
			}
		}
		res.ChannelUtilization = busy / (res.SimTimeSec * float64(n))
	}
	return res, nil
}

// percentile reads a quantile from an ascending-sorted sample using the
// lower nearest-rank convention: index ⌊q·(n−1)⌋. Edge behavior is defined
// explicitly (and pinned by TestPercentileEdges) rather than left to
// implicit indexing: an empty sample yields 0, a single sample is returned
// for every q, q ≤ 0 (including NaN) yields the minimum and q ≥ 1 the
// maximum.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if !(q > 0) { // q ≤ 0, and NaN quantiles land on the defined floor
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
