package core

import (
	"context"
	"fmt"

	"photonoc/internal/ecc"
)

// Fig5Point is one sample of Figure 5: Plaser versus target BER for one
// scheme. Infeasible samples keep the demanded optical power so the figure
// can show why the curve ends (the uncoded series stops above 1e-11).
type Fig5Point struct {
	TargetBER     float64
	Scheme        string
	LaserPowerW   float64
	LaserOpticalW float64
	Feasible      bool
}

// Fig5With regenerates Figure 5 through ev over the given BER grid (the
// paper sweeps 1e-12 … 1e-3) for the paper's three schemes.
func Fig5With(ctx context.Context, ev Evaluator, targetBERs []float64) ([]Fig5Point, error) {
	var out []Fig5Point
	for _, ber := range targetBERs {
		for _, code := range ecc.PaperSchemes() {
			e, err := ev.Evaluate(ctx, code, ber)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig5Point{
				TargetBER:     ber,
				Scheme:        code.Name(),
				LaserPowerW:   e.LaserPowerW,
				LaserOpticalW: e.Op.LaserOpticalW,
				Feasible:      e.Feasible,
			})
		}
	}
	return out, nil
}

// Fig6aBar is one bar group of Figure 6a: the per-wavelength channel power
// decomposition of a scheme at the target BER, plus the CT and energy/bit
// annotations the figure carries.
type Fig6aBar struct {
	Scheme          string
	InterfaceW      float64 // PENC+DEC per wavelength
	ModulatorW      float64 // PMR
	LaserW          float64 // Plaser
	TotalW          float64 // Pchannel
	CT              float64
	EnergyPerBitPJ  float64
	ReductionVsBase float64 // channel power reduction vs the uncoded bar
	Feasible        bool
}

// Fig6aWith regenerates Figure 6a through ev at the given BER (the paper
// uses 1e-11).
func Fig6aWith(ctx context.Context, ev Evaluator, targetBER float64) ([]Fig6aBar, error) {
	evs, err := EvaluateAllWith(ctx, ev, ecc.PaperSchemes(), targetBER)
	if err != nil {
		return nil, err
	}
	base := evs[0].ChannelPowerW
	out := make([]Fig6aBar, len(evs))
	for i, e := range evs {
		bar := Fig6aBar{
			Scheme:         e.Code.Name(),
			InterfaceW:     e.InterfacePowerW,
			ModulatorW:     e.ModulatorPowerW,
			LaserW:         e.LaserPowerW,
			TotalW:         e.ChannelPowerW,
			CT:             e.CT,
			EnergyPerBitPJ: e.EnergyPerBitJ * 1e12,
			Feasible:       e.Feasible,
		}
		if base > 0 && e.Feasible {
			bar.ReductionVsBase = 1 - e.ChannelPowerW/base
		}
		out[i] = bar
	}
	return out, nil
}

// Fig6bPoint is one point of the Figure 6b trade-off plane: (CT, Pchannel)
// for a scheme at a BER, with its Pareto membership among the same-BER set.
type Fig6bPoint struct {
	TargetBER     float64
	Scheme        string
	CT            float64
	ChannelPowerW float64
	OnPareto      bool
	Feasible      bool
}

// TradeoffPlaneWith computes the power/performance trade-off plane through
// ev, marking Pareto membership per BER. Over ecc.PaperSchemes() and BER
// 1e-6 … 1e-12 it regenerates Figure 6b (the paper's right panel); other
// scheme sets give the code-family ablation.
func TradeoffPlaneWith(ctx context.Context, ev Evaluator, codes []ecc.Code, targetBERs []float64) ([]Fig6bPoint, error) {
	var out []Fig6bPoint
	for _, ber := range targetBERs {
		evs, err := EvaluateAllWith(ctx, ev, codes, ber)
		if err != nil {
			return nil, err
		}
		pareto := OnParetoFront(evs)
		for i, e := range evs {
			out = append(out, Fig6bPoint{
				TargetBER:     ber,
				Scheme:        e.Code.Name(),
				CT:            e.CT,
				ChannelPowerW: e.ChannelPowerW,
				OnPareto:      pareto[i],
				Feasible:      e.Feasible,
			})
		}
	}
	return out, nil
}

// Headline gathers the Section V-C numbers the paper reports in prose.
type Headline struct {
	TargetBER float64
	// LaserShareUncoded is Plaser/Pchannel without ECC (paper: 92%).
	LaserShareUncoded float64
	// ChannelReduction maps scheme → channel power reduction vs uncoded
	// (paper: 45% H(71,64), 49% H(7,4)).
	ChannelReduction map[string]float64
	// PerWaveguideW maps scheme → 16-wavelength waveguide power
	// (paper: 251 mW uncoded → 136 mW H(71,64)).
	PerWaveguideW map[string]float64
	// EnergyPerBitPJ maps scheme → pJ/bit (paper: H(71,64) best).
	EnergyPerBitPJ map[string]float64
	// BestEnergyScheme is the most energy-efficient scheme.
	BestEnergyScheme string
	// InterconnectSavingW is the whole-interconnect saving of the best
	// scheme vs uncoded across ONIs × waveguides (paper: ≈22 W).
	InterconnectSavingW float64
}

// HeadlineWith computes the Section V-C summary through ev at the given BER
// (paper: 1e-11); cfg is still needed for the waveguide/interconnect
// scaling.
func HeadlineWith(ctx context.Context, ev Evaluator, cfg *LinkConfig, targetBER float64) (Headline, error) {
	evs, err := EvaluateAllWith(ctx, ev, ecc.PaperSchemes(), targetBER)
	if err != nil {
		return Headline{}, err
	}
	uncoded := evs[0]
	if !uncoded.Feasible {
		return Headline{}, fmt.Errorf("core: uncoded scheme infeasible at BER %g; headline undefined", targetBER)
	}
	h := Headline{
		TargetBER:         targetBER,
		LaserShareUncoded: uncoded.LaserShare(),
		ChannelReduction:  make(map[string]float64, len(evs)),
		PerWaveguideW:     make(map[string]float64, len(evs)),
		EnergyPerBitPJ:    make(map[string]float64, len(evs)),
	}
	bestEnergy := uncoded
	for _, e := range evs {
		if !e.Feasible {
			continue
		}
		name := e.Code.Name()
		h.ChannelReduction[name] = 1 - e.ChannelPowerW/uncoded.ChannelPowerW
		h.PerWaveguideW[name] = e.PowerPerWaveguideW(cfg)
		h.EnergyPerBitPJ[name] = e.EnergyPerBitJ * 1e12
		if e.EnergyPerBitJ < bestEnergy.EnergyPerBitJ {
			bestEnergy = e
		}
	}
	h.BestEnergyScheme = bestEnergy.Code.Name()
	h.InterconnectSavingW = uncoded.InterconnectPowerW(cfg) - bestEnergy.InterconnectPowerW(cfg)
	return h, nil
}
