package core

import (
	"context"

	"photonoc/internal/ecc"
	"photonoc/internal/onoc"
)

// Evaluator solves one (scheme, target BER) operating point under a
// context. It is the seam between the experiment harnesses and whatever
// actually performs the solve: Compiled.Evaluator() is the plain
// sequential solver, while the engine layer contributes a memoizing,
// concurrency-safe implementation that the manager and the traffic
// simulator share.
type Evaluator interface {
	Evaluate(ctx context.Context, code ecc.Code, targetBER float64) (Evaluation, error)
}

// Evaluation is the solved operating state of one (scheme, target BER)
// configuration of the link — one point of the paper's Figures 5 and 6.
// All powers are per wavelength unless suffixed otherwise.
type Evaluation struct {
	// Code is the communication scheme.
	Code ecc.Code
	// TargetBER is the post-decoding BER requirement.
	TargetBER float64
	// RawBER is the channel bit error probability the code tolerates.
	RawBER float64
	// SNR is the required detector SNR (Eq. 4 input).
	SNR float64
	// CT is the communication-time expansion n/k (Fig. 6 x-axis).
	CT float64
	// Op carries the optical solution (budget, OPlaser, feasibility).
	Op onoc.OperatingPoint
	// LaserPowerW is Plaser per wavelength.
	LaserPowerW float64
	// ModulatorPowerW is PMR per wavelength.
	ModulatorPowerW float64
	// InterfacePowerW is the per-wavelength share of the Table I
	// interface power (PENC+DEC).
	InterfacePowerW float64
	// ChannelPowerW is Pchannel = PENC+DEC + PMR + Plaser per wavelength.
	ChannelPowerW float64
	// EnergyPerBitJ is the energy per *payload* bit:
	// Pchannel · CT / Fmod.
	EnergyPerBitJ float64
	// Feasible is false when the laser cannot deliver the required
	// optical power (then the power fields beyond Op are zero).
	Feasible bool
	// InfeasibleReason explains an infeasible configuration.
	InfeasibleReason string
}

// EvaluateAllWith solves every scheme at one target BER through ev,
// preserving order.
func EvaluateAllWith(ctx context.Context, ev Evaluator, codes []ecc.Code, targetBER float64) ([]Evaluation, error) {
	out := make([]Evaluation, 0, len(codes))
	for _, c := range codes {
		e, err := ev.Evaluate(ctx, c, targetBER)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// SweepWith evaluates codes × targetBERs (outer loop over BER) through ev.
// The result order is deterministic: BER-major, then scheme order. The
// result is the one allocation of the sweep itself.
func SweepWith(ctx context.Context, ev Evaluator, codes []ecc.Code, targetBERs []float64) ([]Evaluation, error) {
	out := make([]Evaluation, 0, len(codes)*len(targetBERs))
	for _, ber := range targetBERs {
		for _, c := range codes {
			e, err := ev.Evaluate(ctx, c, ber)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// PowerPerWaveguideW returns the channel power summed over all wavelengths
// of one waveguide (the paper's 251 mW → 136 mW comparison).
func (ev Evaluation) PowerPerWaveguideW(cfg *LinkConfig) float64 {
	return ev.ChannelPowerW * float64(cfg.Channel.Topo.Wavelengths)
}

// InterconnectPowerW scales one waveguide to the whole interconnect:
// waveguides per channel × ONIs (the paper's 22 W saving baseline).
func (ev Evaluation) InterconnectPowerW(cfg *LinkConfig) float64 {
	t := cfg.Channel.Topo
	return ev.PowerPerWaveguideW(cfg) * float64(t.WaveguidesPerChannel) * float64(t.ONIs)
}

// LaserShare returns the laser's fraction of the per-wavelength channel
// power (the paper: 92% for uncoded transmission).
func (ev Evaluation) LaserShare() float64 {
	if ev.ChannelPowerW == 0 {
		return 0
	}
	return ev.LaserPowerW / ev.ChannelPowerW
}

// PayloadRateBitsPerSec is the effective payload throughput of one
// wavelength: Fmod divided by the CT expansion.
func (ev Evaluation) PayloadRateBitsPerSec(cfg *LinkConfig) float64 {
	return cfg.FmodHz / ev.CT
}
