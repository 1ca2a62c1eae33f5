package onoc

import (
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/mathx"
)

// paperPlan compiles the paper's channel, the solver every test here drives.
func paperPlan(t testing.TB) *LinkPlan {
	t.Helper()
	spec := PaperChannel()
	p, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOperatingPointPaperUncoded(t *testing.T) {
	// Uncoded BER 1e-11 → SNR 22.49 → OPlaser ≈ 668 µW (just under the
	// 700 µW cap) → Plaser ≈ 13.7 mW (paper: 14.35 mW).
	c := paperPlan(t)
	snr, err := ecc.SNRForRawBER(1e-11)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.WorstOperatingPoint(snr)
	if err != nil {
		t.Fatal(err)
	}
	if !op.Feasible {
		t.Fatalf("uncoded 1e-11 must be feasible: %s", op.InfeasibleReason)
	}
	if opUW := op.LaserOpticalW * 1e6; opUW < 640 || opUW > 699 {
		t.Errorf("OPlaser = %.1f µW, want ≈668 (inside the cap)", opUW)
	}
	if peMW := op.LaserElectricalW * 1e3; peMW < 12.5 || peMW > 15.0 {
		t.Errorf("Plaser = %.2f mW, want ≈13.7 (paper 14.35)", peMW)
	}
	// Eye fraction from the 6.9 dB ER.
	if op.EyeFraction < 0.78 || op.EyeFraction > 0.81 {
		t.Errorf("eye fraction = %g, want ≈0.796", op.EyeFraction)
	}
}

func TestOperatingPointPaperCoded(t *testing.T) {
	// The coded schemes cut the laser electrical power roughly in half —
	// the paper's central result (14.35 → 7.12 / 6.64 mW).
	c := paperPlan(t)
	snrU, _ := ecc.SNRForRawBER(1e-11)
	opU, err := c.WorstOperatingPoint(snrU)
	if err != nil {
		t.Fatal(err)
	}
	snr7164, err := ecc.RequiredSNR(ecc.MustHamming7164(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	op7164, err := c.WorstOperatingPoint(snr7164)
	if err != nil {
		t.Fatal(err)
	}
	snr74, err := ecc.RequiredSNR(ecc.MustHamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	op74, err := c.WorstOperatingPoint(snr74)
	if err != nil {
		t.Fatal(err)
	}
	if !op7164.Feasible || !op74.Feasible {
		t.Fatal("coded schemes must be feasible at 1e-11")
	}
	r7164 := op7164.LaserElectricalW / opU.LaserElectricalW
	r74 := op74.LaserElectricalW / opU.LaserElectricalW
	// Paper ratios: 7.12/14.35 = 0.496 and 6.64/14.35 = 0.463.
	if r7164 < 0.42 || r7164 > 0.58 {
		t.Errorf("H(71,64)/uncoded laser ratio = %.3f, want ≈0.50", r7164)
	}
	if r74 < 0.38 || r74 > 0.52 {
		t.Errorf("H(7,4)/uncoded laser ratio = %.3f, want ≈0.46", r74)
	}
	// H(7,4) needs the least laser power of the three.
	if !(op74.LaserElectricalW < op7164.LaserElectricalW && op7164.LaserElectricalW < opU.LaserElectricalW) {
		t.Error("laser power ordering should be H(7,4) < H(71,64) < uncoded")
	}
}

func TestUncodedBER12Infeasible(t *testing.T) {
	// The paper's feasibility headline: 1e-12 exceeds the 700 µW laser
	// cap without coding, but is reachable with either Hamming code.
	c := paperPlan(t)
	snr, _ := ecc.SNRForRawBER(1e-12)
	op, err := c.WorstOperatingPoint(snr)
	if err != nil {
		t.Fatal(err)
	}
	if op.Feasible {
		t.Fatalf("uncoded 1e-12 should be infeasible (OPlaser %.1f µW)", op.LaserOpticalW*1e6)
	}
	if op.LaserOpticalW < 700e-6 {
		t.Errorf("infeasible point should demand > 700 µW, got %.1f", op.LaserOpticalW*1e6)
	}
	if op.InfeasibleReason == "" {
		t.Error("infeasible point should carry a reason")
	}
	for _, code := range []ecc.Code{ecc.MustHamming7164(), ecc.MustHamming74()} {
		snr, err := ecc.RequiredSNR(code, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		op, err := c.WorstOperatingPoint(snr)
		if err != nil {
			t.Fatal(err)
		}
		if !op.Feasible {
			t.Errorf("%s at 1e-12 should be feasible", code.Name())
		}
	}
}

func TestOperatingPointMonotoneInSNR(t *testing.T) {
	c := paperPlan(t)
	prevOp := 0.0
	for _, snr := range mathx.Linspace(1, 22, 22) {
		op, err := c.OperatingPoint(snr, 8)
		if err != nil {
			t.Fatal(err)
		}
		if op.LaserOpticalW <= prevOp {
			t.Fatalf("OPlaser not increasing at SNR %g", snr)
		}
		prevOp = op.LaserOpticalW
	}
}

func TestWorstOperatingPointIsMaxOverChannels(t *testing.T) {
	c := paperPlan(t)
	worst, err := c.WorstOperatingPoint(10)
	if err != nil {
		t.Fatal(err)
	}
	for ch := range c.Channels() {
		op, err := c.OperatingPoint(10, ch)
		if err != nil {
			t.Fatal(err)
		}
		if op.LaserOpticalW > worst.LaserOpticalW {
			t.Errorf("channel %d needs %g > worst %g", ch, op.LaserOpticalW, worst.LaserOpticalW)
		}
	}
}

func TestOperatingPointValidation(t *testing.T) {
	c := paperPlan(t)
	if _, err := c.OperatingPoint(0, 3); err == nil {
		t.Error("SNR 0 should error")
	}
	if _, err := c.OperatingPoint(-5, 3); err == nil {
		t.Error("negative SNR should error")
	}
	if _, err := c.OperatingPoint(10, 99); err == nil {
		t.Error("bad channel should error")
	}
}
