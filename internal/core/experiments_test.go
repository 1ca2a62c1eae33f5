package core

import (
	"context"
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/mathx"
)

func TestFig5Series(t *testing.T) {
	cfg := DefaultConfig()
	bers := mathx.Logspace(1e-12, 1e-3, 10)
	pts, err := Fig5With(context.Background(), evaluator(t, &cfg), bers)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 30 {
		t.Fatalf("points = %d, want 10 BERs × 3 schemes", len(pts))
	}
	// Qualitative Fig. 5 features: (i) uncoded always needs the most
	// laser power, (ii) every scheme's power grows toward tighter BER,
	// (iii) the uncoded series is infeasible at 1e-12 only.
	byScheme := map[string][]Fig5Point{}
	for _, p := range pts {
		byScheme[p.Scheme] = append(byScheme[p.Scheme], p)
	}
	for i := range byScheme["w/o ECC"] {
		u := byScheme["w/o ECC"][i]
		h74 := byScheme["H(7,4)"][i]
		h7164 := byScheme["H(71,64)"][i]
		if u.Feasible {
			if u.LaserPowerW <= h7164.LaserPowerW || h7164.LaserPowerW <= h74.LaserPowerW {
				t.Errorf("BER %g: expected Plaser(uncoded) > Plaser(H71,64) > Plaser(H7,4)", u.TargetBER)
			}
		}
	}
	for name, series := range byScheme {
		for i := 1; i < len(series); i++ {
			// Grid is ascending in BER → optical demand must decrease.
			if series[i].LaserOpticalW >= series[i-1].LaserOpticalW {
				t.Errorf("%s: OPlaser not decreasing from BER %g to %g", name, series[i-1].TargetBER, series[i].TargetBER)
			}
		}
	}
	// Uncoded infeasible at the tightest point, feasible at the loosest.
	if byScheme["w/o ECC"][0].Feasible {
		t.Error("uncoded at 1e-12 should be infeasible")
	}
	last := len(byScheme["w/o ECC"]) - 1
	if !byScheme["w/o ECC"][last].Feasible {
		t.Error("uncoded at 1e-3 should be feasible")
	}
	// Coded schemes are feasible everywhere on the grid.
	for _, name := range []string{"H(71,64)", "H(7,4)"} {
		for _, p := range byScheme[name] {
			if !p.Feasible {
				t.Errorf("%s infeasible at BER %g", name, p.TargetBER)
			}
		}
	}
}

func TestFig6aBars(t *testing.T) {
	cfg := DefaultConfig()
	bars, err := Fig6aWith(context.Background(), evaluator(t, &cfg), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 3 {
		t.Fatalf("bars = %d", len(bars))
	}
	// Order: uncoded, H(71,64), H(7,4); CT annotations 1, 1.11, 1.75.
	wantCT := []float64{1, 71.0 / 64.0, 1.75}
	for i, bar := range bars {
		if !approx(bar.CT, wantCT[i], 1e-9) {
			t.Errorf("bar %d CT = %g, want %g", i, bar.CT, wantCT[i])
		}
		if !approx(bar.TotalW, bar.InterfaceW+bar.ModulatorW+bar.LaserW, 1e-12) {
			t.Errorf("bar %d total is not the stack sum", i)
		}
		if !bar.Feasible {
			t.Errorf("bar %d infeasible", i)
		}
	}
	// Channel power reductions: paper −45% H(71,64), −49% H(7,4).
	if r := bars[1].ReductionVsBase; r < 0.40 || r > 0.52 {
		t.Errorf("H(71,64) reduction = %.1f%%, paper 45%%", r*100)
	}
	if r := bars[2].ReductionVsBase; r < 0.44 || r > 0.56 {
		t.Errorf("H(7,4) reduction = %.1f%%, paper 49%%", r*100)
	}
	if bars[0].ReductionVsBase != 0 {
		t.Error("baseline bar should have zero reduction")
	}
	// Energy/bit annotation: H(71,64) is the minimum (paper 3.76 pJ/b).
	if !(bars[1].EnergyPerBitPJ < bars[0].EnergyPerBitPJ) {
		t.Error("H(71,64) should beat uncoded on energy/bit")
	}
}

func TestFig6bParetoClaim(t *testing.T) {
	// The paper: "for a given BER, all the coding techniques belong to
	// the Pareto front".
	cfg := DefaultConfig()
	bers := []float64{1e-6, 1e-8, 1e-10, 1e-12}
	pts, err := TradeoffPlaneWith(context.Background(), evaluator(t, &cfg), ecc.PaperSchemes(), bers)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if !p.Feasible {
			// Only the uncoded 1e-12 point may be infeasible.
			if p.Scheme != "w/o ECC" || p.TargetBER != 1e-12 {
				t.Errorf("unexpected infeasible point: %+v", p)
			}
			continue
		}
		if !p.OnPareto {
			t.Errorf("%s at BER %g is not on the Pareto front", p.Scheme, p.TargetBER)
		}
	}
}

func TestTradeoffPlaneWithExtendedCodes(t *testing.T) {
	// With the extension codes added: uncoded and H(71,64) stay on the
	// front, the double-error-correcting BCH codes join it, and — a
	// genuine finding of the ablation — BCH(31,21) *dominates* H(7,4)
	// (less time and less laser power thanks to t=2). Repetition burns
	// both axes and is dominated.
	cfg := DefaultConfig()
	pts, err := TradeoffPlaneWith(context.Background(), evaluator(t, &cfg), ecc.ExtendedSchemes(), []float64{1e-9})
	if err != nil {
		t.Fatal(err)
	}
	onFront := map[string]bool{}
	byScheme := map[string]Fig6bPoint{}
	for _, p := range pts {
		onFront[p.Scheme] = p.OnPareto
		byScheme[p.Scheme] = p
	}
	for _, name := range []string{"w/o ECC", "H(71,64)", "BCH(31,21,t=2)", "BCH(15,7,t=2)"} {
		if !onFront[name] {
			t.Errorf("%s should be on the extended Pareto front", name)
		}
	}
	if onFront["Rep(16x3)"] {
		t.Error("triple repetition should be dominated on the trade-off plane")
	}
	if onFront["H(7,4)"] {
		t.Error("H(7,4) should be dominated by BCH(31,21) in the extended pool")
	}
	bch := byScheme["BCH(31,21,t=2)"]
	h74 := byScheme["H(7,4)"]
	if !(bch.CT < h74.CT && bch.ChannelPowerW < h74.ChannelPowerW) {
		t.Error("BCH(31,21) should beat H(7,4) on both axes")
	}
}

func TestHeadlineNumbers(t *testing.T) {
	cfg := DefaultConfig()
	h, err := HeadlineWith(context.Background(), evaluator(t, &cfg), &cfg, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if h.LaserShareUncoded < 0.88 || h.LaserShareUncoded > 0.95 {
		t.Errorf("laser share = %.1f%%, paper 92%%", h.LaserShareUncoded*100)
	}
	if r := h.ChannelReduction["H(71,64)"]; r < 0.40 || r > 0.52 {
		t.Errorf("H(71,64) reduction = %.1f%%, paper 45%%", r*100)
	}
	if r := h.ChannelReduction["H(7,4)"]; r < 0.44 || r > 0.56 {
		t.Errorf("H(7,4) reduction = %.1f%%, paper 49%%", r*100)
	}
	if h.BestEnergyScheme != "H(71,64)" {
		t.Errorf("best energy scheme = %s, paper says H(71,64)", h.BestEnergyScheme)
	}
	if h.InterconnectSavingW < 18 || h.InterconnectSavingW > 25 {
		t.Errorf("interconnect saving = %.1f W, paper ≈22", h.InterconnectSavingW)
	}
	// Headline is undefined when the baseline is infeasible.
	if _, err := HeadlineWith(context.Background(), evaluator(t, &cfg), &cfg, 1e-12); err == nil {
		t.Error("headline at 1e-12 should fail (uncoded infeasible)")
	}
}
