package netsim

import (
	"context"
	"fmt"

	"photonoc/internal/core"
	"photonoc/internal/manager"
)

// RunCtx generates the configured workload and executes the simulation
// with every per-transfer manager decision solved through ev. It is exactly
// RecordTraceCtx followed by RunTraceCtx, which guarantees that recorded
// traces replay to identical results. The engine layer passes itself as ev
// so decisions resolve against its memo cache; a nil ev is an invalid
// configuration. Cancellation aborts the event loop between transfers.
func RunCtx(ctx context.Context, cfg Config, ev core.Evaluator) (Results, error) {
	tr, err := RecordTraceCtx(ctx, cfg)
	if err != nil {
		return Results{}, err
	}
	return RunTraceCtx(ctx, cfg, tr, ev)
}

// RunTraceCtx replays a recorded trace against the configured link and
// policies, solving every manager decision through ev (see RunCtx). The
// traffic fields of cfg (Pattern, HotspotNode, HotspotFraction,
// MessageBits, Load, Messages, Seed, DeadlineSlack) are ignored and not
// validated: the trace carries its own arrivals, payloads and deadlines.
//
// The link is the event loop's degenerate network: reader channel d is
// link d, one hop from every writer. The manager reconfigures the link for
// every transfer, so the token grant and manager round trip
// (core.TokenOverheadSec) occupy the channel before each transfer. With
// AdaptToDeadline the manager caps CT at what the message's remaining slack
// allows; when no scheme fits it falls back to the fastest, and the miss is
// counted at delivery.
func RunTraceCtx(ctx context.Context, cfg Config, tr Trace, ev core.Evaluator) (Results, error) {
	if err := cfg.validateLink(); err != nil {
		return Results{}, err
	}
	topo := cfg.Link.Channel.Topo
	n := topo.ONIs
	if err := tr.Validate(n); err != nil {
		return Results{}, err
	}
	mgr, err := manager.NewWithEvaluator(&cfg.Link, cfg.Schemes, cfg.DAC, ev)
	if err != nil {
		return Results{}, err
	}
	nw := float64(topo.Wavelengths)
	capacity := nw * cfg.Link.FmodHz
	modW := cfg.Link.ModulatorPowerW * nw

	hop := make([][]int, n)
	servers := make([]server, n)
	for d := range hop {
		hop[d] = []int{d}
		servers[d] = server{hold: core.TokenOverheadSec}
	}
	routes := make([][][]int, n)
	for s := range routes {
		routes[s] = hop
	}

	res := Results{SchemeUse: make(map[string]int64)}
	t, err := simulate(ctx, tr, nil, routes, servers, 0, func(_ int, m *TraceEvent, start float64) (grant, error) {
		// Each transfer costs a manager call, so cancellation is checked
		// per transfer here, not only every 4096 events as in the loop.
		if err := ctx.Err(); err != nil {
			return grant{}, err
		}
		req := manager.Requirements{TargetBER: cfg.TargetBER, Objective: cfg.Objective}
		if cfg.AdaptToDeadline && m.DeadlineSec > 0 {
			if maxCT := (m.DeadlineSec - start) / (float64(m.Bits) / capacity); maxCT >= 1 {
				req.MaxCT = maxCT
			} else {
				req.Objective = manager.MinLatency // already late: go fastest
			}
		}
		dec, err := mgr.ConfigureCtx(ctx, req)
		if err != nil {
			// Deadline pressure can make every scheme ineligible; retry
			// without the cap (best effort, counted as a miss).
			req.MaxCT = 0
			req.Objective = manager.MinLatency
			if dec, err = mgr.ConfigureCtx(ctx, req); err != nil {
				return grant{}, fmt.Errorf("netsim: configuring transfer: %w", err)
			}
		}
		res.SchemeUse[dec.Eval.Code.Name()]++
		g := grant{
			sec:    float64(m.Bits) / capacity * dec.Eval.CT,
			laserW: dec.QuantizedLaserPowerW * nw,
			modW:   modW,
			intfW:  cfg.Link.InterfacePowerFor(dec.Eval.Code).TotalW(),
		}
		if !cfg.IdleLaserOff {
			// Lasers of an idle channel keep their standing power unless
			// the idle-laser-off extension [9] is active.
			g.heldW = g.laserW
		}
		return g, nil
	})
	if err != nil {
		return Results{}, err
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
