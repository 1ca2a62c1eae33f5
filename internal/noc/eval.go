package noc

import (
	"fmt"

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
	// Objective picks the per-link scheme among feasible evaluations with
	// the runtime manager's rule, manager.Choose.
	Objective manager.Objective
	// Traffic is the row-normalized traffic matrix; nil means uniform.
	Traffic Matrix
	// InjectionRateBitsPerSec is the offered payload per active tile;
	// 0 evaluates at half the saturation rate.
	InjectionRateBitsPerSec float64
	// MessageBits sizes the serialization and queueing terms of the
	// latency model (default 4 KiB messages, netsim's default payload).
	MessageBits int
	// DAC, when non-nil, programs each link's laser with manager.Program,
	// as the runtime manager does; nil keeps the exact analytic power.
	DAC *manager.DAC
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

// decideLink resolves one link's decision into d with the runtime
// manager's rule: manager.Choose with no CT cap, then manager.Program,
// through the session's laser memo, for an optional DAC.
func decideLink(d *LinkDecision, l *Link, evals []core.Evaluation, opts *EvalOptions, lasers *manager.LaserMemo) {
	*d = LinkDecision{Link: l.ID, DACCode: -1}
	i := manager.Choose(evals, manager.Requirements{Objective: opts.Objective})
	if i < 0 {
		d.InfeasibleReason = fmt.Sprintf("no feasible scheme at BER %g", opts.TargetBER)
		if len(evals) > 0 && evals[0].InfeasibleReason != "" {
			d.InfeasibleReason += ": " + evals[0].InfeasibleReason
		}
		return
	}
	best := &evals[i]
	d.Eval = *best
	d.LaserPowerW = best.LaserPowerW
	if opts.DAC != nil {
		dec, err := lasers.Program(*opts.DAC, &l.net.cfg.Base, best)
		if err != nil {
			d.InfeasibleReason = err.Error()
			return
		}
		d.DACCode = dec.DACCode
		d.LaserPowerW = dec.QuantizedLaserPowerW
	}
	// The evaluation was solved on this link's configuration, so its
	// per-wavelength modulator and interface powers are the link's.
	perLambda := d.LaserPowerW + best.ModulatorPowerW + best.InterfacePowerW
	d.EnergyPerBitJ = perLambda * best.CT / l.net.cfg.Base.FmodHz
	d.Feasible = true
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
	// which the most loaded link reaches unit utilization: utilization is
	// linear in the rate, so it is min over loaded links of
	// capacity/share, exactly.
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
