package noc

import (
	"fmt"
	"math"

	"photonoc/internal/core"
	"photonoc/internal/manager"
)

// Optical propagation constants for the latency model: silicon waveguide
// group index over the speed of light in cm/s.
const (
	siliconGroupIndex = 4.2
	lightSpeedCMPerS  = 2.99792458e10
	// PropagationDelaySecPerCM is the signal flight time per waveguide
	// centimeter (≈140 ps/cm).
	PropagationDelaySecPerCM = siliconGroupIndex / lightSpeedCMPerS
)

// EvalOptions parameterizes one network evaluation.
type EvalOptions struct {
	// TargetBER is the post-decoding BER every link must meet.
	TargetBER float64
	// Objective picks the per-link scheme among feasible evaluations,
	// using exactly the manager's selection rule (manager.Better).
	Objective manager.Objective
	// Traffic is the row-normalized traffic matrix; nil means uniform.
	Traffic Matrix
	// InjectionRateBitsPerSec is the offered payload per active tile;
	// 0 evaluates at half the saturation rate.
	InjectionRateBitsPerSec float64
	// MessageBits sizes the serialization and queueing terms of the
	// latency model (default 4 KiB messages, netsim's default payload).
	MessageBits int
	// DAC, when non-nil, quantizes each link's laser setting exactly as
	// the runtime manager programs it (rounding the optical power up to
	// the next step). Nil keeps the exact analytic laser power.
	DAC *manager.DAC
}

// withDefaults resolves the option defaults against a network.
func (o EvalOptions) withDefaults(net *Network) (EvalOptions, error) {
	if math.IsNaN(o.TargetBER) || o.TargetBER <= 0 || o.TargetBER >= 0.5 {
		return o, fmt.Errorf("noc: target BER %g outside (0, 0.5)", o.TargetBER)
	}
	if o.Traffic == nil {
		o.Traffic = UniformMatrix(net.Tiles())
	}
	if err := o.Traffic.Validate(net.Tiles()); err != nil {
		return o, err
	}
	if o.MessageBits == 0 {
		o.MessageBits = 4096 * 8
	}
	if o.MessageBits < 0 {
		return o, fmt.Errorf("noc: message size %d must be positive", o.MessageBits)
	}
	if math.IsNaN(o.InjectionRateBitsPerSec) || o.InjectionRateBitsPerSec < 0 {
		return o, fmt.Errorf("noc: injection rate %g must be a non-negative number", o.InjectionRateBitsPerSec)
	}
	if o.DAC != nil {
		if err := o.DAC.Validate(); err != nil {
			return o, err
		}
	}
	return o, nil
}

// LinkDecision is the chosen operating point of one link.
type LinkDecision struct {
	// Link is the link ID.
	Link int
	// Eval is the winning scheme's evaluation (zero when infeasible).
	Eval core.Evaluation
	// LaserPowerW is the electrical laser power per wavelength actually
	// charged: Eval.LaserPowerW, or the quantized power when a DAC is set.
	LaserPowerW float64
	// DACCode is the programmed step (−1 without a DAC).
	DACCode int
	// EnergyPerBitJ is the active energy per payload bit on this link,
	// including any DAC quantization waste.
	EnergyPerBitJ float64
	// Feasible is false when no roster scheme closes the link at the
	// target BER (or the DAC cannot realize the winning setting).
	Feasible bool
	// InfeasibleReason explains an infeasible link.
	InfeasibleReason string
}

// Decide picks each link's scheme from its solved roster evaluations.
// evals[linkID] holds the link's evaluations in roster order, as produced
// by the engine's per-link solves. Selection mirrors the runtime manager:
// feasible schemes compete under the objective with the manager's
// tie-breaking, then the optional DAC programs the laser.
//
// Decide is the one-shot entry point; it runs on a fresh EvalSession and
// the returned slice is owned by the caller. Hot loops reuse an
// EvalSession instead, which performs the identical computation with zero
// steady-state allocations.
func Decide(net *Network, evals [][]core.Evaluation, opts EvalOptions) ([]LinkDecision, error) {
	decisions, err := NewEvalSession().Decide(net, evals, opts)
	if err != nil {
		return nil, err
	}
	return decisions, nil
}

// decideLink resolves one link's decision.
func decideLink(l *Link, evals []core.Evaluation, opts EvalOptions) LinkDecision {
	d := LinkDecision{Link: l.ID, DACCode: -1}
	var best *core.Evaluation
	for i := range evals {
		ev := &evals[i]
		if !ev.Feasible {
			continue
		}
		if best == nil || manager.Better(*ev, *best, opts.Objective) {
			best = ev
		}
	}
	if best == nil {
		d.InfeasibleReason = fmt.Sprintf("no feasible scheme at BER %g", opts.TargetBER)
		if len(evals) > 0 && evals[0].InfeasibleReason != "" {
			d.InfeasibleReason += ": " + evals[0].InfeasibleReason
		}
		return d
	}
	d.Eval = *best
	d.LaserPowerW = best.LaserPowerW
	if opts.DAC != nil {
		code, quantW, err := opts.DAC.Quantize(best.Op.LaserOpticalW)
		if err != nil {
			d.InfeasibleReason = fmt.Sprintf("DAC cannot program %s: %v", best.Code.Name(), err)
			return d
		}
		pe, err := l.Config.Channel.Laser.ElectricalPower(quantW, l.Config.Channel.Activity)
		if err != nil {
			d.InfeasibleReason = fmt.Sprintf("quantized setting infeasible for %s: %v", best.Code.Name(), err)
			return d
		}
		d.DACCode = code
		d.LaserPowerW = pe
	}
	nw := float64(l.Config.Channel.Topo.Wavelengths)
	perLambda := d.LaserPowerW + l.Config.ModulatorPowerW + l.Config.InterfacePowerFor(best.Code).TotalW()/nw
	d.EnergyPerBitJ = perLambda * best.CT / l.Config.FmodHz
	d.Feasible = true
	return d
}

// LinkLoad is the traffic view of one link at the evaluated injection rate.
type LinkLoad struct {
	// Link is the link ID.
	Link int
	// CapacityBitsPerSec is the payload capacity: NW·Fmod/CT.
	CapacityBitsPerSec float64
	// OfferedBitsPerSec is the routed payload demand.
	OfferedBitsPerSec float64
	// Utilization is offered over capacity.
	Utilization float64
	// QueueWaitSec is the M/D/1 mean arbitration wait (+Inf at or past
	// saturation).
	QueueWaitSec float64
}

// Result is one solved network operating point.
type Result struct {
	// Kind, Tiles and Links describe the evaluated topology.
	Kind  Kind
	Tiles int
	Links int
	// TargetBER is the evaluated BER target.
	TargetBER float64
	// Feasible is false when any link has no feasible scheme; the traffic
	// aggregates are then zero and InfeasibleReason names a failing link.
	Feasible         bool
	InfeasibleReason string
	// Decisions are the per-link operating points, link-ID order.
	Decisions []LinkDecision
	// Loads are the per-link traffic figures, link-ID order.
	Loads []LinkLoad
	// SchemeUse counts links per winning scheme name.
	SchemeUse map[string]int
	// SaturationInjectionBitsPerSec is the per-tile injection rate at
	// which the most loaded link reaches unit utilization (bisection over
	// the injection rate).
	SaturationInjectionBitsPerSec float64
	// InjectionRateBitsPerSec is the rate the aggregates are evaluated at.
	InjectionRateBitsPerSec float64
	// Saturated reports that the evaluated rate meets or exceeds
	// saturation: queue waits (and the latency percentiles) are +Inf and
	// utilizations are capped at 1 for the energy accounting.
	Saturated bool
	// DeliveredBitsPerSec is the aggregate payload: active tiles × rate.
	DeliveredBitsPerSec float64
	// Power totals across all links, all wavelengths. Lasers burn their
	// standing power continuously (no idle-off); modulator and interface
	// power scale with link utilization, matching the netsim accounting.
	LaserPowerW     float64
	ModulatorPowerW float64
	InterfacePowerW float64
	NetworkPowerW   float64
	// EnergyPerBitJ is NetworkPowerW over the delivered payload rate.
	EnergyPerBitJ float64
	// ActiveEnergyPerBitJ drops the idle-laser standing cost: the
	// traffic-weighted mean of the per-link active energies, which for the
	// degenerate bus equals the single-link Evaluation.EnergyPerBitJ.
	ActiveEnergyPerBitJ float64
	// Latency statistics across (src, dst) pairs, traffic-weighted:
	// per hop, token arbitration + M/D/1 queue wait + serialization +
	// waveguide propagation.
	MeanLatencySec float64
	P50LatencySec  float64
	P95LatencySec  float64
	P99LatencySec  float64
	MaxLatencySec  float64
}

// Aggregate folds solved per-link decisions under the traffic matrix into
// the network-level figures: per-link loads, saturation injection rate
// (bisection), energy totals and traffic-weighted latency percentiles.
//
// Aggregate is the one-shot entry point; it runs on a fresh EvalSession
// and the returned Result is owned by the caller. Hot loops reuse an
// EvalSession instead, which performs the identical computation with zero
// steady-state allocations.
func Aggregate(net *Network, decisions []LinkDecision, opts EvalOptions) (Result, error) {
	res, err := NewEvalSession().Aggregate(net, decisions, opts)
	if err != nil {
		return Result{}, err
	}
	return *res, nil
}
