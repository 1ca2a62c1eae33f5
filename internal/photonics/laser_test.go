package photonics

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"photonoc/internal/mathx"
)

func TestPaperLaserCalibration(t *testing.T) {
	l := PaperLaser()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Thermal rollover at 25% activity ≈ 716 µW; deliverable capped at 700.
	peak, err := l.ThermalPeakOpticalW(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if peak < 700e-6 || peak > 730e-6 {
		t.Errorf("thermal peak = %.1f µW, want ≈716", peak*1e6)
	}
	maxOp, err := l.MaxOpticalW(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if maxOp != 700e-6 {
		t.Errorf("max optical = %.1f µW, want the 700 µW rated cap", maxOp*1e6)
	}
}

func TestLaserLinearRegionThenBlowUp(t *testing.T) {
	// The paper's Fig. 4: linear within 0–500 µW, exponential-looking after.
	l := PaperLaser()
	pe100, err := l.ElectricalPower(100e-6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pe200, err := l.ElectricalPower(200e-6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Low-power region: doubling OP ≈ doubles Pe (within 2%).
	if ratio := pe200 / pe100; math.Abs(ratio-2) > 0.04 {
		t.Errorf("low-power ratio = %g, want ≈2", ratio)
	}
	// Efficiency at 100 µW close to η0.
	if eff, _ := l.WallPlugEfficiency(100e-6, 0.25); math.Abs(eff-l.Eta0)/l.Eta0 > 0.02 {
		t.Errorf("small-signal efficiency = %g, want ≈%g", eff, l.Eta0)
	}
	// High-power region: the incremental cost explodes near the rollover.
	pe690, err := l.ElectricalPower(690e-6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pe699, err := l.ElectricalPower(699e-6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	slopeLow := (pe200 - pe100) / 100e-6
	slopeHigh := (pe699 - pe690) / 9e-6
	if slopeHigh < 2*slopeLow {
		t.Errorf("rollover slope %.1f not >> linear slope %.1f", slopeHigh, slopeLow)
	}
}

func TestLaserPaperOperatingPoints(t *testing.T) {
	// The three Fig. 6a laser powers: ≈665 µW → ≈13.7 mW (uncoded),
	// ≈363 µW → ≈6.9 mW H(71,64), ≈328 µW → ≈6.2 mW H(7,4) — the ≈50%
	// reduction the paper headlines (its exact values: 14.35/7.12/6.64).
	l := PaperLaser()
	cases := []struct {
		opticalUW float64
		wantMW    float64
		tolMW     float64
	}{
		{665, 13.7, 0.5},
		{363, 6.9, 0.3},
		{328, 6.2, 0.3},
	}
	for _, c := range cases {
		pe, err := l.ElectricalPower(c.opticalUW*1e-6, 0.25)
		if err != nil {
			t.Fatalf("OP=%g µW: %v", c.opticalUW, err)
		}
		if got := pe * 1e3; math.Abs(got-c.wantMW) > c.tolMW {
			t.Errorf("Pe(%g µW) = %.2f mW, want %.1f ± %.1f", c.opticalUW, got, c.wantMW, c.tolMW)
		}
	}
}

func TestLaserInfeasibleBeyondCap(t *testing.T) {
	l := PaperLaser()
	_, err := l.ElectricalPower(731e-6, 0.25) // the uncoded 1e-12 request
	if !errors.Is(err, ErrLaserInfeasible) {
		t.Errorf("want ErrLaserInfeasible, got %v", err)
	}
	// Just inside the cap works.
	if _, err := l.ElectricalPower(699e-6, 0.25); err != nil {
		t.Errorf("699 µW should be feasible: %v", err)
	}
}

func TestLaserActivityDependence(t *testing.T) {
	l := PaperLaser()
	// Hotter chip → less headroom → more electrical power for the same OP
	// and a lower deliverable maximum.
	pe25, err := l.ElectricalPower(300e-6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pe75, err := l.ElectricalPower(300e-6, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if pe75 <= pe25 {
		t.Errorf("Pe at 75%% activity (%g) should exceed 25%% (%g)", pe75, pe25)
	}
	max0, _ := l.ThermalPeakOpticalW(0)
	max75, _ := l.ThermalPeakOpticalW(0.75)
	if max75 >= max0 {
		t.Errorf("thermal peak should shrink with activity: %g vs %g", max75, max0)
	}
	if _, err := l.ElectricalPower(100e-6, 1.5); err == nil {
		t.Error("activity > 1 should error")
	}
	if _, err := l.ElectricalPower(100e-6, -0.1); err == nil {
		t.Error("negative activity should error")
	}
}

func TestLaserRoundTripProperty(t *testing.T) {
	// Property: OpticalFromElectrical(ElectricalPower(op)) == op over the
	// feasible range.
	l := PaperLaser()
	for _, opUW := range mathx.Linspace(1, 699, 60) {
		op := opUW * 1e-6
		pe, err := l.ElectricalPower(op, 0.25)
		if err != nil {
			t.Fatalf("OP=%g µW: %v", opUW, err)
		}
		back, err := l.OpticalFromElectrical(pe, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if !mathx.ApproxEqual(back/op, 1, 1e-6) {
			t.Fatalf("roundtrip %g µW → %g W → %g", opUW, pe, back)
		}
	}
}

func TestLaserMonotone(t *testing.T) {
	l := PaperLaser()
	prev := 0.0
	for _, opUW := range mathx.Linspace(10, 699, 70) {
		pe, err := l.ElectricalPower(opUW*1e-6, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if pe <= prev {
			t.Fatalf("Pe not increasing at %g µW", opUW)
		}
		prev = pe
	}
}

func TestLaserCurveFig4(t *testing.T) {
	l := PaperLaser()
	curve, err := l.Curve(800e-6, 81, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 81 {
		t.Fatal("curve length")
	}
	feasible, infeasible := 0, 0
	for _, p := range curve {
		if p.Feasible {
			feasible++
		} else {
			infeasible++
		}
	}
	// Everything up to 700 µW is feasible, the tail beyond is not.
	if feasible < 70 || infeasible < 9 {
		t.Errorf("feasible/infeasible split = %d/%d", feasible, infeasible)
	}
	if _, err := l.Curve(800e-6, 1, 0.25); err == nil {
		t.Error("points < 2 should error")
	}
	// Zero-power start.
	if curve[0].ElectricalW != 0 || !curve[0].Feasible {
		t.Error("curve must start at the origin")
	}
}

func TestLaserValidate(t *testing.T) {
	bad := []Laser{
		{Eta0: 0, RthKPerW: 1, DeltaTMax0K: 1, Gamma: 1, RatedMaxOpticalW: 1},
		{Eta0: 0.05, RthKPerW: 0, DeltaTMax0K: 1, Gamma: 1, RatedMaxOpticalW: 1},
		{Eta0: 0.05, RthKPerW: 1, DeltaTMax0K: 0, Gamma: 1, RatedMaxOpticalW: 1},
		{Eta0: 0.05, RthKPerW: 1, DeltaTMax0K: 1, ActivityTempK: -1, Gamma: 1, RatedMaxOpticalW: 1},
		{Eta0: 0.05, RthKPerW: 1, DeltaTMax0K: 1, Gamma: 0, RatedMaxOpticalW: 1},
		{Eta0: 0.05, RthKPerW: 1, DeltaTMax0K: 1, Gamma: 1, RatedMaxOpticalW: 0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if err := PaperLaser().Validate(); err != nil {
		t.Errorf("paper laser should validate: %v", err)
	}
}

// bigElectricalPower solves OP(Pe) = opticalW in 256-bit arithmetic for an
// integral collapse exponent, by bisection on [0, hi]: the reference the
// float64 inversion is held to.
func bigElectricalPower(l Laser, opticalW, activity, hi float64) *big.Float {
	const prec = 256
	h := l.DeltaTMax0K - activity*l.ActivityTempK
	eta := new(big.Float).SetPrec(prec).SetFloat64(l.Eta0)
	k := new(big.Float).SetPrec(prec).Quo(
		new(big.Float).SetPrec(prec).SetFloat64(l.RthKPerW),
		new(big.Float).SetPrec(prec).SetFloat64(h))
	target := new(big.Float).SetPrec(prec).SetFloat64(opticalW)
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	// op returns Pe·η0·(1 − (k·Pe)^γ).
	op := func(pe *big.Float) *big.Float {
		x := new(big.Float).SetPrec(prec).Mul(k, pe)
		xg := new(big.Float).SetPrec(prec).Set(one)
		for i := 0; i < int(l.Gamma); i++ {
			xg.Mul(xg, x)
		}
		eff := new(big.Float).SetPrec(prec).Sub(one, xg)
		eff.Mul(eff, eta)
		return eff.Mul(eff, pe)
	}
	lo := new(big.Float).SetPrec(prec)
	up := new(big.Float).SetPrec(prec).SetFloat64(hi)
	half := new(big.Float).SetPrec(prec).SetFloat64(0.5)
	for i := 0; i < 200; i++ {
		mid := new(big.Float).SetPrec(prec).Add(lo, up)
		mid.Mul(mid, half)
		if op(mid).Cmp(target) < 0 {
			lo = mid
		} else {
			up = mid
		}
	}
	return up
}

func TestElectricalPowerMatchesBigFloatReference(t *testing.T) {
	// Seeded targets over the feasible range at activities across [0, 1],
	// for the paper laser (rated-bound at low activity, thermal-bound when
	// hot) and an uncapped one: the float64 inversion must sit within
	// 1e-14 relative of the exact root.
	rng := rand.New(rand.NewSource(17))
	uncapped := PaperLaser()
	uncapped.RatedMaxOpticalW = 1
	worst := 0.0
	for _, l := range []Laser{PaperLaser(), uncapped} {
		for i := 0; i < 400; i++ {
			activity := rng.Float64()
			maxOp, err := l.MaxOpticalW(activity)
			if err != nil {
				t.Fatal(err)
			}
			// Targets from 1e-6 of the ceiling up to 95% of it, log-uniform.
			op := maxOp * math.Pow(10, -6*rng.Float64()) * 0.95
			pe, err := l.ElectricalPower(op, activity)
			if err != nil {
				t.Fatalf("ElectricalPower(%g, %g): %v", op, activity, err)
			}
			h := l.DeltaTMax0K - activity*l.ActivityTempK
			ref := bigElectricalPower(l, op, activity, l.peakElectrical(h)*(1+1e-9))
			diff := new(big.Float).Sub(new(big.Float).SetFloat64(pe), ref)
			rel, _ := diff.Quo(diff, ref).Float64()
			worst = math.Max(worst, math.Abs(rel))
			if math.Abs(rel) > 1e-14 {
				t.Fatalf("ElectricalPower(%g, %g) = %.17g, reference %s (rel err %.3g)",
					op, activity, pe, ref.Text('g', 20), rel)
			}
		}
	}
	t.Logf("worst relative error %.3g", worst)
}

func TestElectricalPowerAtTheCeiling(t *testing.T) {
	// Requests at, just below and just inside the 1e-12 grace above the
	// deliverable maximum are all feasible: the inversion clamps to the
	// ceiling and must find its root there, for a laser bound by its
	// thermal rollover and for one bound by its rated cap.
	thermal := PaperLaser()
	thermal.RatedMaxOpticalW = 1
	rated := PaperLaser()
	rated.RatedMaxOpticalW = 0.0007
	for name, l := range map[string]Laser{"thermal": thermal, "rated": rated} {
		for i := 0; i <= 200; i++ {
			activity := float64(i) * 0.005
			maxOp, err := l.MaxOpticalW(activity)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []float64{maxOp * (1 - 1e-13), maxOp, maxOp * (1 + 5e-13)} {
				if _, err := l.ElectricalPower(op, activity); err != nil {
					t.Errorf("%s-bound laser, activity %g, OP %.17g (max %.17g): %v", name, activity, op, maxOp, err)
				}
			}
		}
	}
}

func TestElectricalPowerZeroAlloc(t *testing.T) {
	l := PaperLaser()
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		pe, err := l.ElectricalPower(512e-6, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		sink += pe
	})
	if allocs != 0 {
		t.Errorf("ElectricalPower allocates %v times per call, want 0", allocs)
	}
	_ = sink
}
