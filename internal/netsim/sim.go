package netsim

import (
	"context"
	"fmt"
	"sort"

	"photonoc/internal/core"
	"photonoc/internal/manager"
)

// message is one in-flight transfer.
type message struct {
	src, dst int
	arrival  float64
	deadline float64 // 0 = none
	bits     int
}

// arrivalEvent orders message generation on the event heap.
type arrivalEvent struct {
	at  float64
	msg message
}

// before orders arrivals by time alone; ties keep the heap's (stable,
// deterministic) layout order, as the historical per-type heap did.
func (e arrivalEvent) before(o arrivalEvent) bool { return e.at < o.at }

// eventHeap is the trace generator's min-heap on arrival time.
type eventHeap = simHeap[arrivalEvent]

// TokenOverheadSec is the fixed MWSR arbitration cost per transfer
// (token grant + manager request/response round trip). The network-level
// evaluator (internal/noc) charges the same cost per hop so analytic and
// simulated latencies share the arbitration model. The constant lives in
// core so noc and netsim can both reference it without a package cycle.
const TokenOverheadSec = core.TokenOverheadSec

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

// runMessages is the service/energy/statistics core shared by RunCtx and
// RunTraceCtx. feed must yield messages in non-decreasing arrival order.
func runMessages(ctx context.Context, cfg Config, ev core.Evaluator, feed func(yield func(message))) (Results, error) {
	mgr, err := manager.NewWithEvaluator(&cfg.Link, cfg.Schemes, cfg.DAC, ev)
	if err != nil {
		return Results{}, err
	}
	topo := cfg.Link.Channel.Topo
	n := topo.ONIs
	nw := float64(topo.Wavelengths)
	capacity := nw * cfg.Link.FmodHz
	baseTransfer := float64(cfg.MessageBits) / capacity

	// Channel (reader) server state.
	nextFree := make([]float64, n)
	busyTime := make([]float64, n)
	idleLaserW := make([]float64, n) // standing laser power while idle
	chMessages := make([]int64, n)
	chEnergy := make([]float64, n)

	res := Results{SchemeUse: make(map[string]int64)}
	latencies := make([]float64, 0, cfg.Messages)
	var queueWaitSum float64
	var feedErr error

	feed(func(m message) {
		if feedErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			feedErr = err
			return
		}
		start := m.arrival
		if nextFree[m.dst] > start {
			start = nextFree[m.dst]
		}
		start += TokenOverheadSec

		// The manager configures the link for this transfer.
		req := manager.Requirements{TargetBER: cfg.TargetBER, Objective: cfg.Objective}
		if cfg.AdaptToDeadline && m.deadline > 0 {
			avail := m.deadline - start
			if maxCT := avail / baseTransfer; maxCT >= 1 {
				req.MaxCT = maxCT
			} else {
				req.Objective = manager.MinLatency // already late: go fastest
			}
		}
		dec, err := mgr.ConfigureCtx(ctx, req)
		if err != nil {
			// Deadline pressure can make every scheme ineligible; retry
			// without the cap (best effort, counted as a miss below).
			req.MaxCT = 0
			req.Objective = manager.MinLatency
			dec, err = mgr.ConfigureCtx(ctx, req)
			if err != nil {
				feedErr = fmt.Errorf("netsim: configuring transfer: %w", err)
				return
			}
		}

		transfer := float64(m.bits) / capacity * dec.Eval.CT
		done := start + transfer
		nextFree[m.dst] = done
		busyTime[m.dst] += transfer
		idleLaserW[m.dst] = dec.QuantizedLaserPowerW * nw

		latency := done - m.arrival
		latencies = append(latencies, latency)
		queueWaitSum += start - m.arrival
		if m.deadline > 0 && done > m.deadline {
			res.DeadlineMisses++
		}

		// Active energy of the transfer, all wavelengths of the channel.
		laserE := dec.QuantizedLaserPowerW * nw * transfer
		modE := cfg.Link.ModulatorPowerW * nw * transfer
		intfE := cfg.Link.InterfacePowerFor(dec.Eval.Code).TotalW() * transfer
		res.LaserEnergyJ += laserE
		res.ModulatorEnergyJ += modE
		res.InterfaceEnergyJ += intfE
		chMessages[m.dst]++
		chEnergy[m.dst] += laserE + modE + intfE
		res.SchemeUse[dec.Eval.Code.Name()]++
		res.Messages++
		res.DeliveredBits += int64(m.bits)
		if done > res.SimTimeSec {
			res.SimTimeSec = done
		}
	})
	if feedErr != nil {
		return Results{}, feedErr
	}

	// Idle energy: lasers of an idle channel keep their standing power
	// unless the idle-laser-off extension [9] is active.
	if !cfg.IdleLaserOff {
		for d := 0; d < n; d++ {
			idle := res.SimTimeSec - busyTime[d]
			if idle > 0 {
				res.IdleEnergyJ += idleLaserW[d] * idle
			}
		}
	}
	res.TotalEnergyJ = res.LaserEnergyJ + res.ModulatorEnergyJ + res.InterfaceEnergyJ + res.IdleEnergyJ

	if len(latencies) > 0 {
		sort.Float64s(latencies)
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.MeanLatencySec = sum / float64(len(latencies))
		res.P50LatencySec = percentile(latencies, 0.50)
		res.P95LatencySec = percentile(latencies, 0.95)
		res.P99LatencySec = percentile(latencies, 0.99)
		res.MaxLatencySec = latencies[len(latencies)-1]
		res.MeanQueueWaitSec = queueWaitSum / float64(len(latencies))
	}
	if res.DeliveredBits > 0 {
		res.EnergyPerBitJ = res.TotalEnergyJ / float64(res.DeliveredBits)
	}
	if res.SimTimeSec > 0 {
		res.ThroughputBitsPerSec = float64(res.DeliveredBits) / res.SimTimeSec
		var busy float64
		for _, b := range busyTime {
			busy += b
		}
		res.ChannelUtilization = busy / (res.SimTimeSec * float64(n))
		res.PerChannel = make([]ChannelStats, n)
		for d := 0; d < n; d++ {
			res.PerChannel[d] = ChannelStats{
				Channel:       d,
				Messages:      chMessages[d],
				BusyFraction:  busyTime[d] / res.SimTimeSec,
				ActiveEnergyJ: chEnergy[d],
			}
		}
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
