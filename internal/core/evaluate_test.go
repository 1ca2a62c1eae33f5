package core

import (
	"context"
	"math"
	"testing"

	"photonoc/internal/ecc"
)

// compiled compiles cfg, failing the test on error.
func compiled(t testing.TB, cfg *LinkConfig) *Compiled {
	t.Helper()
	c, err := cfg.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// evaluator is cfg's sequential, uncached reference Evaluator.
func evaluator(t testing.TB, cfg *LinkConfig) Evaluator { return compiled(t, cfg).Evaluator() }

func approx(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		return d <= tol
	}
	return d <= tol*m
}

func TestDefaultConfigValidates(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.FmodHz != 10e9 || cfg.FIPHz != 1e9 || cfg.Ndata != 64 {
		t.Error("paper clocks wrong")
	}
	if cfg.ModulatorPowerW != 1.36e-3 {
		t.Error("PMR should be 1.36 mW")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, mutate := range []func(*LinkConfig){
		func(c *LinkConfig) { c.FmodHz = 0 },
		func(c *LinkConfig) { c.FIPHz = -1 },
		func(c *LinkConfig) { c.Ndata = 0 },
		func(c *LinkConfig) { c.ModulatorPowerW = -1 },
		func(c *LinkConfig) { c.Channel.Activity = 2 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Error("mutated config should fail validation")
		}
	}
}

func TestEvaluatePaperOperatingPoint(t *testing.T) {
	// The Fig. 6a numbers at BER 1e-11. Paper: Plaser 14.35/7.12/6.64 mW;
	// our calibrated model: ≈13.7/6.8/6.2 mW with identical structure.
	cfg := DefaultConfig()
	evs, err := EvaluateAllWith(context.Background(), evaluator(t, &cfg), ecc.PaperSchemes(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	wantLaserMW := []struct {
		lo, hi float64
	}{
		{12.5, 15.0}, // w/o ECC (paper 14.35)
		{6.2, 7.6},   // H(71,64) (paper 7.12)
		{5.5, 7.0},   // H(7,4)  (paper 6.64)
	}
	for i, ev := range evs {
		if !ev.Feasible {
			t.Fatalf("%s infeasible at 1e-11", ev.Code.Name())
		}
		mw := ev.LaserPowerW * 1e3
		if mw < wantLaserMW[i].lo || mw > wantLaserMW[i].hi {
			t.Errorf("%s: Plaser = %.2f mW, want in [%.1f, %.1f]", ev.Code.Name(), mw, wantLaserMW[i].lo, wantLaserMW[i].hi)
		}
		// PMR identical for all schemes (paper Fig. 6a: 1.36 mW each).
		if ev.ModulatorPowerW != 1.36e-3 {
			t.Errorf("%s: PMR = %g", ev.Code.Name(), ev.ModulatorPowerW)
		}
		// The interface is µW-scale: three orders below the laser.
		if ev.InterfacePowerW <= 0 || ev.InterfacePowerW > 5e-6 {
			t.Errorf("%s: interface share = %g W", ev.Code.Name(), ev.InterfacePowerW)
		}
		if !approx(ev.ChannelPowerW, ev.LaserPowerW+ev.ModulatorPowerW+ev.InterfacePowerW, 1e-12) {
			t.Errorf("%s: Pchannel must be the sum of its parts", ev.Code.Name())
		}
	}
	// Laser ordering and ≈50% reduction.
	if !(evs[2].LaserPowerW < evs[1].LaserPowerW && evs[1].LaserPowerW < evs[0].LaserPowerW) {
		t.Error("laser power must order H(7,4) < H(71,64) < uncoded")
	}
	red := 1 - evs[2].ChannelPowerW/evs[0].ChannelPowerW
	if red < 0.42 || red > 0.56 {
		t.Errorf("H(7,4) channel reduction = %.1f%%, paper reports 49%%", red*100)
	}
}

func TestEvaluateRawBERAndSNRChain(t *testing.T) {
	cfg := DefaultConfig()
	ev, err := compiled(t, &cfg).Evaluate(ecc.MustHamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	// The chain must be internally consistent.
	if post := ecc.PlanFor(ev.Code).PostDecodeBER(ev.RawBER); !approx(post/1e-11, 1, 1e-5) {
		t.Errorf("raw BER %g does not reproduce the target: %g", ev.RawBER, post)
	}
	if back := ecc.RawBERFromSNR(ev.SNR); !approx(back/ev.RawBER, 1, 1e-6) {
		t.Errorf("SNR %g does not reproduce raw BER: %g vs %g", ev.SNR, back, ev.RawBER)
	}
	if ev.CT != 1.75 {
		t.Errorf("CT = %g", ev.CT)
	}
}

func TestEnergyPerBitOrdering(t *testing.T) {
	// Paper Section V-C: H(71,64) is the most energy-efficient scheme.
	cfg := DefaultConfig()
	evs, err := EvaluateAllWith(context.Background(), evaluator(t, &cfg), ecc.PaperSchemes(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Evaluation{}
	for _, ev := range evs {
		byName[ev.Code.Name()] = ev
	}
	e7164 := byName["H(71,64)"].EnergyPerBitJ
	if e7164 >= byName["w/o ECC"].EnergyPerBitJ {
		t.Errorf("H(71,64) %g pJ/b should beat uncoded %g", e7164*1e12, byName["w/o ECC"].EnergyPerBitJ*1e12)
	}
	if e7164 >= byName["H(7,4)"].EnergyPerBitJ {
		t.Errorf("H(71,64) %g pJ/b should beat H(7,4) %g", e7164*1e12, byName["H(7,4)"].EnergyPerBitJ*1e12)
	}
	// Energy/bit in the paper's pJ range (ours ≈0.9–1.6 pJ/b).
	for name, ev := range byName {
		pj := ev.EnergyPerBitJ * 1e12
		if pj < 0.3 || pj > 10 {
			t.Errorf("%s: %g pJ/bit outside plausible range", name, pj)
		}
	}
}

func TestUncodedInfeasibleAt1e12(t *testing.T) {
	cfg := DefaultConfig()
	link := compiled(t, &cfg)
	ev, err := link.Evaluate(ecc.MustUncoded64(), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Feasible {
		t.Fatal("uncoded at 1e-12 must be infeasible (laser cap)")
	}
	if ev.InfeasibleReason == "" {
		t.Error("infeasible evaluation needs a reason")
	}
	if ev.ChannelPowerW != 0 || ev.LaserPowerW != 0 {
		t.Error("infeasible evaluation should not report powers")
	}
	// Both codes stay feasible.
	for _, code := range []ecc.Code{ecc.MustHamming7164(), ecc.MustHamming74()} {
		ev, err := link.Evaluate(code, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Feasible {
			t.Errorf("%s should be feasible at 1e-12", code.Name())
		}
	}
}

func TestPerWaveguideAndInterconnectTotals(t *testing.T) {
	// Paper: 251 mW → 136 mW per waveguide; ≈22 W across 12 ONIs × 16
	// waveguides. Our calibration: ≈240 → ≈131 mW and ≈21 W.
	cfg := DefaultConfig()
	evs, err := EvaluateAllWith(context.Background(), evaluator(t, &cfg), ecc.PaperSchemes(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	uncodedWG := evs[0].PowerPerWaveguideW(&cfg) * 1e3
	h7164WG := evs[1].PowerPerWaveguideW(&cfg) * 1e3
	if uncodedWG < 225 || uncodedWG > 265 {
		t.Errorf("uncoded per-waveguide = %.0f mW, paper 251", uncodedWG)
	}
	if h7164WG < 120 || h7164WG > 145 {
		t.Errorf("H(71,64) per-waveguide = %.0f mW, paper 136", h7164WG)
	}
	saving := evs[0].InterconnectPowerW(&cfg) - evs[1].InterconnectPowerW(&cfg)
	if saving < 18 || saving > 25 {
		t.Errorf("interconnect saving = %.1f W, paper ≈22 W", saving)
	}
	// Consistency: interconnect = waveguide × 16 × 12.
	if !approx(evs[0].InterconnectPowerW(&cfg), evs[0].PowerPerWaveguideW(&cfg)*16*12, 1e-9) {
		t.Error("interconnect total inconsistent with per-waveguide")
	}
}

func TestLaserShareUncoded(t *testing.T) {
	// Paper: lasers are 92% of the uncoded channel power.
	cfg := DefaultConfig()
	ev, err := compiled(t, &cfg).Evaluate(ecc.MustUncoded64(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if share := ev.LaserShare(); share < 0.88 || share > 0.95 {
		t.Errorf("laser share = %.1f%%, paper 92%%", share*100)
	}
}

func TestInterfacePowerForFallback(t *testing.T) {
	cfg := DefaultConfig()
	// Table hits are exact.
	p := cfg.InterfacePowerFor(ecc.MustHamming74())
	if p.TransmitterW != 9.59e-6 || p.ReceiverW != 10.1e-6 {
		t.Errorf("H(7,4) table lookup wrong: %+v", p)
	}
	// Unknown schemes interpolate between uncoded and H(7,4) on CT.
	bch := ecc.MustBCH3121() // CT ≈ 1.476 → frac ≈ 0.635
	est := cfg.InterfacePowerFor(bch)
	if est.TransmitterW <= 3.18e-6 || est.TransmitterW >= 9.59e-6 {
		t.Errorf("BCH interface estimate %g outside (uncoded, H(7,4))", est.TransmitterW)
	}
	// Monotone in redundancy: parity (CT≈1.016) below SECDED (CT=1.125).
	par, _ := ecc.NewParity(64)
	sec := ecc.MustSECDED7264()
	if cfg.InterfacePowerFor(par).TotalW() >= cfg.InterfacePowerFor(sec).TotalW() {
		t.Error("interface estimate should grow with redundancy")
	}
}

func TestSweepShape(t *testing.T) {
	cfg := DefaultConfig()
	bers := []float64{1e-6, 1e-9, 1e-12}
	evs, err := SweepWith(context.Background(), evaluator(t, &cfg), ecc.PaperSchemes(), bers)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 9 {
		t.Fatalf("sweep size = %d, want 9", len(evs))
	}
	// Within a scheme, tighter BER costs more laser power.
	for s := 0; s < 3; s++ {
		loose := evs[s]   // 1e-6
		tight := evs[6+s] // 1e-12
		if tight.Feasible && loose.Feasible && tight.Op.LaserOpticalW <= loose.Op.LaserOpticalW {
			t.Errorf("%s: tighter BER should need more optical power", loose.Code.Name())
		}
	}
}

func TestPayloadRate(t *testing.T) {
	cfg := DefaultConfig()
	ev, err := compiled(t, &cfg).Evaluate(ecc.MustHamming74(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// 10 Gb/s wire rate at CT 1.75 → 5.71 Gb/s payload.
	if got := ev.PayloadRateBitsPerSec(&cfg); !approx(got, 10e9/1.75, 1e-9) {
		t.Errorf("payload rate = %g", got)
	}
}
