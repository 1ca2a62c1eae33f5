package photonoc

import (
	"context"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/netsim"
	"photonoc/internal/onoc"
	"photonoc/internal/photonics"
	"photonoc/internal/synth"
)

// Re-exported core types: the public API of the reproduction. The
// concurrent entry point — Engine, New and its options — lives in
// engine.go.
type (
	// LinkConfig is the full channel + interface configuration.
	LinkConfig = core.LinkConfig
	// Evaluation is one solved (scheme, BER) operating point.
	Evaluation = core.Evaluation
	// Evaluator solves operating points under a context; *Engine
	// satisfies it, and so does a compiled configuration's Evaluator
	// method (the sequential, uncached reference).
	Evaluator = core.Evaluator
	// Fig5Point is one sample of Figure 5 (laser power vs target BER).
	Fig5Point = core.Fig5Point
	// Fig6aBar is one bar group of Figure 6a (channel power breakdown).
	Fig6aBar = core.Fig6aBar
	// Fig6bPoint is one point of the Figure 6b trade-off plane.
	Fig6bPoint = core.Fig6bPoint
	// EnergyPoint is one sample of an energy-per-bit sweep.
	EnergyPoint = core.EnergyPoint
	// InterfacePower is a Table I transmitter/receiver power pair.
	InterfacePower = core.InterfacePower
	// Headline carries the Section V-C summary numbers.
	Headline = core.Headline
	// Code is a block code (scheme) on the link: Name, N, K, T and the
	// in-place codec EncodeInto/DecodeInto, which writes into caller-owned
	// buffers and is what the Monte-Carlo engine and the serdes pipeline
	// run on. An external implementation provides these six methods; its
	// post-decoding BER comes from the generic model for its T (Eq. 2 for
	// T = 1, the union bound above).
	Code = ecc.Code
	// LinearCode is a systematic linear block code (the concrete type
	// behind the paper's Hamming schemes).
	LinearCode = ecc.LinearCode
	// InterleavedCode is a block code behind a burst-spreading
	// interleaver (see InterleavedHamming74).
	InterleavedCode = ecc.InterleavedCode
	// ChannelSpec is the optical MWSR channel description.
	ChannelSpec = onoc.ChannelSpec
	// Laser is the thermally-limited VCSEL model.
	Laser = photonics.Laser
	// Ring is the micro-ring resonator model.
	Ring = photonics.Ring
	// Manager is the runtime energy/performance manager.
	Manager = manager.Manager
	// Requirements is a manager configuration request.
	Requirements = manager.Requirements
	// DAC is the laser output power controller.
	DAC = manager.DAC
	// SimConfig configures the interconnect traffic simulator.
	SimConfig = netsim.Config
	// SimResults carries the traffic simulator's outputs.
	SimResults = netsim.Results
	// SimTrace is a recorded, replayable traffic workload.
	SimTrace = netsim.Trace
)

// Objectives for the runtime manager.
const (
	MinPower   = manager.MinPower
	MinEnergy  = manager.MinEnergy
	MinLatency = manager.MinLatency
)

// DefaultConfig returns the paper's evaluation configuration: 12 ONIs,
// 16 wavelengths, 6 cm waveguide, ER 6.9 dB, 700 µW laser cap, Table I
// interface powers.
func DefaultConfig() LinkConfig { return core.DefaultConfig() }

// PaperSchemes returns the paper's three communication schemes:
// w/o ECC, H(71,64), H(7,4). The slice is the caller's; the codes are
// shared, read-only instances, the same on every call.
func PaperSchemes() []Code { return ecc.PaperSchemes() }

// ExtendedSchemes adds SECDED(72,64), BCH(15,7), BCH(31,21), repetition and
// parity — the "other coding techniques" the paper leaves open. Like
// PaperSchemes it returns a fresh slice of shared, read-only codes.
func ExtendedSchemes() []Code { return ecc.ExtendedSchemes() }

// Uncoded64 returns the 64-bit pass-through scheme.
func Uncoded64() Code { return ecc.MustUncoded64() }

// Hamming74 returns the paper's H(7,4) code.
func Hamming74() Code { return ecc.MustHamming74() }

// Hamming7164 returns the paper's shortened H(71,64) code.
func Hamming7164() Code { return ecc.MustHamming7164() }

// InterleavedHamming74 returns H(7,4) behind a block interleaver of the
// given depth: bursts of up to `depth` consecutive channel errors are
// always corrected (see examples/burstprotection).
func InterleavedHamming74(depth int) (Code, error) {
	return ecc.NewInterleavedCode(ecc.MustHamming74(), depth)
}

// PaperDAC returns the 6-bit, 700 µW laser controller.
func PaperDAC() DAC { return manager.PaperDAC() }

// The paper's experiments, each solved through any Evaluator — pass an
// Engine to fan the grid over its memo cache.

// Fig5With regenerates Figure 5 (Plaser vs target BER, paper schemes).
func Fig5With(ctx context.Context, ev Evaluator, targetBERs []float64) ([]Fig5Point, error) {
	return core.Fig5With(ctx, ev, targetBERs)
}

// Fig6aWith regenerates Figure 6a (channel power breakdown) at one BER.
func Fig6aWith(ctx context.Context, ev Evaluator, targetBER float64) ([]Fig6aBar, error) {
	return core.Fig6aWith(ctx, ev, targetBER)
}

// TradeoffPlaneWith computes the (CT, Pchannel) trade-off plane with Pareto
// membership; over PaperSchemes it is Figure 6b.
func TradeoffPlaneWith(ctx context.Context, ev Evaluator, codes []Code, targetBERs []float64) ([]Fig6bPoint, error) {
	return core.TradeoffPlaneWith(ctx, ev, codes, targetBERs)
}

// HeadlineWith computes the Section V-C summary at one BER; cfg supplies
// the waveguide/interconnect scaling.
func HeadlineWith(ctx context.Context, ev Evaluator, cfg *LinkConfig, targetBER float64) (Headline, error) {
	return core.HeadlineWith(ctx, ev, cfg, targetBER)
}

// EnergySweepWith computes energy-per-payload-bit curves over the BER grid.
func EnergySweepWith(ctx context.Context, ev Evaluator, cfg *LinkConfig, codes []Code, targetBERs []float64) ([]EnergyPoint, error) {
	return core.EnergySweepWith(ctx, ev, cfg, codes, targetBERs)
}

// BestEnergySchemeByBERWith returns, per BER, the scheme the runtime
// manager picks under MinEnergy with no CT cap; infeasible BERs are absent.
func BestEnergySchemeByBERWith(ctx context.Context, ev Evaluator, codes []Code, targetBERs []float64) (map[float64]string, error) {
	out := make(map[float64]string, len(targetBERs))
	for _, ber := range targetBERs {
		row, err := core.EvaluateAllWith(ctx, ev, codes, ber)
		if err != nil {
			return nil, err
		}
		if i := manager.Choose(row, Requirements{Objective: MinEnergy}); i >= 0 {
			out[ber] = codes[i].Name()
		}
	}
	return out, nil
}

// ParetoByBER returns the non-dominated (CT, Pchannel) set per BER.
func ParetoByBER(ctx context.Context, ev Evaluator, codes []Code, targetBERs []float64) (map[float64][]Evaluation, error) {
	return core.ParetoByBER(ctx, ev, codes, targetBERs)
}

// DefaultSimConfig returns a ready-to-run 12-ONI simulation.
func DefaultSimConfig() SimConfig { return netsim.DefaultConfig() }

// SynthesizeTable1 regenerates the paper's Table I from gate netlists with
// the default 28nm-calibrated library.
func SynthesizeTable1() ([]synth.Table1Row, []synth.Table1Totals, error) {
	return synth.Table1(synth.DefaultLibrary())
}
