package core

import (
	"context"
	"fmt"
	"io"

	"photonoc/internal/ecc"
	"photonoc/internal/mathx"
)

// WriteReport renders a self-contained markdown report of every paper
// experiment from the live model — the regenerable core of EXPERIMENTS.md.
// It is deliberately dependency-free (no report package) so that core's
// public surface stays at the bottom of the dependency graph.
func (cfg *LinkConfig) WriteReport(w io.Writer) error {
	c, err := cfg.Compile()
	if err != nil {
		return err
	}
	ctx, ev := context.Background(), c.Evaluator()
	pr := func(format string, args ...interface{}) {}
	var firstErr error
	pr = func(format string, args ...interface{}) {
		if firstErr != nil {
			return
		}
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			firstErr = err
		}
	}

	pr("# photonoc experiment report\n\n")
	pr("Configuration: %d ONIs, %d wavelengths, %.0f cm waveguide, activity %.0f%%, Fmod %.0f Gb/s.\n\n",
		cfg.Channel.Topo.ONIs, cfg.Channel.Topo.Wavelengths,
		cfg.Channel.Waveguide.LengthCM, cfg.Channel.Activity*100, cfg.FmodHz/1e9)

	// Fig 5.
	pr("## Laser power vs target BER (Fig. 5)\n\n")
	pr("| BER | w/o ECC | H(71,64) | H(7,4) |\n|---|---|---|---|\n")
	pts, err := Fig5With(ctx, ev, mathx.Logspace(1e-12, 1e-3, 10))
	if err != nil {
		return err
	}
	row := map[float64]map[string]Fig5Point{}
	var bers []float64
	for _, p := range pts {
		if row[p.TargetBER] == nil {
			row[p.TargetBER] = map[string]Fig5Point{}
			bers = append(bers, p.TargetBER)
		}
		row[p.TargetBER][p.Scheme] = p
	}
	cell := func(p Fig5Point) string {
		if !p.Feasible {
			return "infeasible"
		}
		return fmt.Sprintf("%.2f mW", p.LaserPowerW*1e3)
	}
	for _, ber := range bers {
		r := row[ber]
		pr("| %.0e | %s | %s | %s |\n", ber, cell(r["w/o ECC"]), cell(r["H(71,64)"]), cell(r["H(7,4)"]))
	}

	// Fig 6a.
	pr("\n## Channel power breakdown @ BER 1e-11 (Fig. 6a)\n\n")
	pr("| scheme | Penc+dec | PMR | Plaser | total | CT | pJ/bit |\n|---|---|---|---|---|---|---|\n")
	bars, err := Fig6aWith(ctx, ev, 1e-11)
	if err != nil {
		return err
	}
	for _, b := range bars {
		pr("| %s | %.2f µW | %.2f mW | %.2f mW | %.2f mW | %.3f | %.2f |\n",
			b.Scheme, b.InterfaceW*1e6, b.ModulatorW*1e3, b.LaserW*1e3, b.TotalW*1e3, b.CT, b.EnergyPerBitPJ)
	}

	// Headline.
	h, err := HeadlineWith(ctx, ev, cfg, 1e-11)
	if err != nil {
		return err
	}
	pr("\n## Headline (Section V-C)\n\n")
	pr("- laser share of the uncoded channel: %.1f%%\n", h.LaserShareUncoded*100)
	pr("- channel power reduction: %.1f%% H(71,64), %.1f%% H(7,4)\n",
		h.ChannelReduction["H(71,64)"]*100, h.ChannelReduction["H(7,4)"]*100)
	pr("- per-waveguide power: %.0f mW uncoded → %.0f mW H(71,64)\n",
		h.PerWaveguideW["w/o ECC"]*1e3, h.PerWaveguideW["H(71,64)"]*1e3)
	pr("- interconnect saving: %.1f W; best energy scheme: %s\n",
		h.InterconnectSavingW, h.BestEnergyScheme)

	// Boundary.
	pr("\n## Laser-limited BER boundary\n\n")
	for _, code := range ecc.PaperSchemes() {
		b, err := c.tightestBER(code)
		if err != nil {
			return err
		}
		if b <= tightestBERFloor {
			pr("- %s: no ceiling within the model range (≤ 1e-18)\n", code.Name())
		} else {
			pr("- %s: %.2e\n", code.Name(), b)
		}
	}

	// Pareto.
	pr("\n## Trade-off plane (Fig. 6b)\n\n")
	plane, err := TradeoffPlaneWith(ctx, ev, ecc.PaperSchemes(), []float64{1e-6, 1e-8, 1e-10, 1e-12})
	if err != nil {
		return err
	}
	pr("| BER | scheme | CT | Pchannel | Pareto |\n|---|---|---|---|---|\n")
	for _, p := range plane {
		if !p.Feasible {
			pr("| %.0e | %s | %.3f | — | infeasible |\n", p.TargetBER, p.Scheme, p.CT)
			continue
		}
		pr("| %.0e | %s | %.3f | %.2f mW | %v |\n", p.TargetBER, p.Scheme, p.CT, p.ChannelPowerW*1e3, p.OnPareto)
	}
	return firstErr
}
