package manager

import (
	"errors"
	"math"
	"testing"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

// newManager builds a manager over cfg whose link solves run through the
// compiled, uncached evaluator of the same configuration.
func newManager(cfg *core.LinkConfig, schemes []ecc.Code, dac DAC) (*Manager, error) {
	c, err := cfg.Compile()
	if err != nil {
		return nil, err
	}
	return NewWithEvaluator(cfg, schemes, dac, c.Evaluator())
}

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	cfg := core.DefaultConfig()
	m, err := newManager(&cfg, ecc.PaperSchemes(), PaperDAC())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	c, err := cfg.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ev := c.Evaluator()
	bad := cfg
	bad.FmodHz = 0
	for _, tc := range []struct {
		name    string
		cfg     *core.LinkConfig
		schemes []ecc.Code
		dac     DAC
		ev      core.Evaluator
	}{
		{"nil config", nil, ecc.PaperSchemes(), PaperDAC(), ev},
		{"nil evaluator", &cfg, ecc.PaperSchemes(), PaperDAC(), nil},
		{"empty roster", &cfg, nil, PaperDAC(), ev},
		{"bad DAC", &cfg, ecc.PaperSchemes(), DAC{Bits: 0, MaxOpticalW: 1}, ev},
		{"invalid config", &bad, ecc.PaperSchemes(), PaperDAC(), ev},
	} {
		if _, err := NewWithEvaluator(tc.cfg, tc.schemes, tc.dac, tc.ev); !errors.Is(err, apierr.ErrInvalidConfig) {
			t.Errorf("%s: want ErrInvalidConfig, got %v", tc.name, err)
		}
	}
}

func TestConfigureMinPowerPrefersH74(t *testing.T) {
	// At BER 1e-11 without a deadline, H(7,4) has the lowest channel
	// power of the paper's three schemes.
	m := newTestManager(t)
	d, err := m.Configure(Requirements{TargetBER: 1e-11, Objective: MinPower})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Code.Name() != "H(7,4)" {
		t.Errorf("min-power picked %s, want H(7,4)", d.Eval.Code.Name())
	}
}

func TestConfigureMinEnergyPrefersH7164(t *testing.T) {
	// The paper's Section V-C: H(71,64) is the most energy-efficient.
	m := newTestManager(t)
	d, err := m.Configure(Requirements{TargetBER: 1e-11, Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Code.Name() != "H(71,64)" {
		t.Errorf("min-energy picked %s, want H(71,64)", d.Eval.Code.Name())
	}
}

func TestConfigureMinLatencyPrefersUncoded(t *testing.T) {
	m := newTestManager(t)
	d, err := m.Configure(Requirements{TargetBER: 1e-9, Objective: MinLatency})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Code.Name() != "w/o ECC" {
		t.Errorf("min-latency picked %s, want w/o ECC", d.Eval.Code.Name())
	}
}

func TestConfigureDeadlineCapForcesUncoded(t *testing.T) {
	// A CT cap below 71/64 leaves only the uncoded scheme.
	m := newTestManager(t)
	d, err := m.Configure(Requirements{TargetBER: 1e-9, MaxCT: 1.05, Objective: MinPower})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Code.Name() != "w/o ECC" {
		t.Errorf("CT cap 1.05 picked %s, want w/o ECC", d.Eval.Code.Name())
	}
	// A cap between the two codes excludes only H(7,4).
	d, err = m.Configure(Requirements{TargetBER: 1e-9, MaxCT: 1.2, Objective: MinPower})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Code.Name() != "H(71,64)" {
		t.Errorf("CT cap 1.2 picked %s, want H(71,64)", d.Eval.Code.Name())
	}
}

func TestConfigureInfeasibleCombination(t *testing.T) {
	// BER 1e-12 with CT capped at 1 leaves nothing: uncoded can't reach
	// the BER (laser cap) and the codes can't meet the CT.
	m := newTestManager(t)
	_, err := m.Configure(Requirements{TargetBER: 1e-12, MaxCT: 1.0, Objective: MinPower})
	if !errors.Is(err, ErrNoFeasibleScheme) {
		t.Errorf("want ErrNoFeasibleScheme, got %v", err)
	}
	// Lifting the CT cap makes it feasible via ECC — the paper's point.
	d, err := m.Configure(Requirements{TargetBER: 1e-12, Objective: MinPower})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Code.T() < 1 {
		t.Error("BER 1e-12 requires a correcting code")
	}
}

func TestConfigureRejectsBadRequirements(t *testing.T) {
	m := newTestManager(t)
	for _, req := range []Requirements{
		{TargetBER: 0},
		{TargetBER: 0.5},
		{TargetBER: 1e-9, MaxCT: -1},
		{TargetBER: math.NaN()},
		{TargetBER: 1e-9, MaxCT: math.NaN()},
		{TargetBER: 1e-9, Objective: Objective(7)},
		{TargetBER: 1e-9, Objective: Objective(-1)},
	} {
		if _, err := m.Configure(req); !errors.Is(err, apierr.ErrInvalidInput) {
			t.Errorf("requirements %+v should be rejected as invalid input, got %v", req, err)
		}
	}
}

// TestChoose pins the selection rule every decision runs through: the CT
// cap and infeasibility exclude entries, the objective ranks the rest, ties
// break to lower channel power and then lower CT, a full tie keeps the
// first entry, and a row with nothing eligible yields −1.
func TestChoose(t *testing.T) {
	ev := func(feasible bool, ct, powerW, energyJ float64) core.Evaluation {
		return core.Evaluation{Feasible: feasible, CT: ct, ChannelPowerW: powerW, EnergyPerBitJ: energyJ}
	}
	fast := ev(true, 1, 3, 3)
	slow := ev(true, 1.75, 2, 3.5)
	for _, tc := range []struct {
		name string
		row  []core.Evaluation
		req  Requirements
		want int
	}{
		{"min power uncapped", []core.Evaluation{fast, slow}, Requirements{Objective: MinPower}, 1},
		{"CT cap excludes the cheaper entry", []core.Evaluation{fast, slow}, Requirements{Objective: MinPower, MaxCT: 1.5}, 0},
		{"CT cap at an entry's CT admits it", []core.Evaluation{fast, slow}, Requirements{Objective: MinPower, MaxCT: 1.75}, 1},
		{"min energy", []core.Evaluation{slow, fast}, Requirements{Objective: MinEnergy}, 1},
		{"min latency", []core.Evaluation{slow, fast}, Requirements{Objective: MinLatency}, 1},
		{"infeasible skipped", []core.Evaluation{ev(false, 1, 0.1, 0.1), fast}, Requirements{Objective: MinPower}, 1},
		{"energy tie breaks to lower power", []core.Evaluation{ev(true, 1, 3, 2), ev(true, 2, 1, 2)}, Requirements{Objective: MinEnergy}, 1},
		{"latency tie breaks to lower power", []core.Evaluation{ev(true, 1, 3, 2), ev(true, 1, 2, 9)}, Requirements{Objective: MinLatency}, 1},
		{"power tie breaks to lower CT", []core.Evaluation{ev(true, 1.5, 2, 2), ev(true, 1.2, 2, 9)}, Requirements{Objective: MinPower}, 1},
		{"energy and power tie breaks to lower CT", []core.Evaluation{ev(true, 1.5, 2, 2), ev(true, 1.2, 2, 2)}, Requirements{Objective: MinEnergy}, 1},
		{"full tie keeps the first", []core.Evaluation{fast, fast}, Requirements{Objective: MinEnergy}, 0},
		{"all infeasible", []core.Evaluation{ev(false, 1, 1, 1), ev(false, 2, 1, 1)}, Requirements{Objective: MinPower}, -1},
		{"cap excludes all", []core.Evaluation{fast, slow}, Requirements{Objective: MinLatency, MaxCT: 0.5}, -1},
		{"empty row", []core.Evaluation{}, Requirements{Objective: MinPower}, -1},
		{"nil row", nil, Requirements{Objective: MinEnergy}, -1},
	} {
		if got := Choose(tc.row, tc.req); got != tc.want {
			t.Errorf("%s: Choose = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestObjectiveValidate accepts exactly the three defined objectives.
func TestObjectiveValidate(t *testing.T) {
	for _, o := range []Objective{MinPower, MinEnergy, MinLatency} {
		if err := o.Validate(); err != nil {
			t.Errorf("%v rejected: %v", o, err)
		}
	}
	for _, o := range []Objective{-1, 3, 42} {
		if err := o.Validate(); err == nil {
			t.Errorf("%v accepted", o)
		}
	}
}

// TestParseObjective pins ParseObjective as the inverse of String on every
// objective, and its rejection of every other spelling (the empty default
// belongs to the callers, not to the parser).
func TestParseObjective(t *testing.T) {
	for _, o := range []Objective{MinPower, MinEnergy, MinLatency} {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	for _, s := range []string{"", "min_energy", "MIN-POWER", "Objective(3)", "energy"} {
		if _, err := ParseObjective(s); err == nil {
			t.Errorf("ParseObjective(%q) accepted", s)
		}
	}
}

func TestDecisionQuantization(t *testing.T) {
	m := newTestManager(t)
	d, err := m.Configure(Requirements{TargetBER: 1e-11, Objective: MinPower})
	if err != nil {
		t.Fatal(err)
	}
	// The DAC rounds up: quantized ≥ exact, waste ≥ 0, and the step
	// error is below one LSB.
	if d.QuantizedOpticalW < d.Eval.Op.LaserOpticalW {
		t.Error("DAC must round up, never down (BER would be violated)")
	}
	if d.QuantizationWasteW < 0 {
		t.Errorf("negative quantization waste %g", d.QuantizationWasteW)
	}
	if d.QuantizedOpticalW-d.Eval.Op.LaserOpticalW > PaperDAC().StepW() {
		t.Error("quantization error exceeds one DAC step")
	}
	if d.ChannelPowerW() < d.Eval.ChannelPowerW {
		t.Error("decision channel power must include the waste")
	}
	if d.DACCode < 1 || d.DACCode > PaperDAC().Steps() {
		t.Errorf("DAC code %d out of range", d.DACCode)
	}
}

func TestFinerDACWastesLess(t *testing.T) {
	// Ablation A2: quantization waste shrinks monotonically (on average)
	// with DAC resolution.
	cfg := core.DefaultConfig()
	prevWaste := math.Inf(1)
	for _, bitsN := range []int{2, 4, 6, 8} {
		m, err := newManager(&cfg, ecc.PaperSchemes(), DAC{Bits: bitsN, MaxOpticalW: 700e-6})
		if err != nil {
			t.Fatal(err)
		}
		var waste float64
		for _, ber := range []float64{1e-6, 1e-8, 1e-10, 1e-11} {
			d, err := m.Configure(Requirements{TargetBER: ber, Objective: MinPower})
			if err != nil {
				t.Fatal(err)
			}
			waste += d.QuantizationWasteW
		}
		if waste > prevWaste {
			t.Errorf("%d-bit DAC wastes %.3g W, more than the coarser DAC %.3g", bitsN, waste, prevWaste)
		}
		prevWaste = waste
	}
}

func TestDACQuantize(t *testing.T) {
	d := DAC{Bits: 3, MaxOpticalW: 800e-6} // 8 steps of 100 µW
	code, q, err := d.Quantize(250e-6)
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 || math.Abs(q-300e-6) > 1e-12 {
		t.Errorf("Quantize(250µW) = code %d, %.0f µW; want 3, 300", code, q*1e6)
	}
	// Exact grid point stays put.
	code, q, err = d.Quantize(300e-6)
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 || math.Abs(q-300e-6) > 1e-12 {
		t.Errorf("Quantize(300µW) = code %d, %.0f µW; want 3, 300", code, q*1e6)
	}
	if _, _, err := d.Quantize(900e-6); err == nil {
		t.Error("above full scale should fail")
	}
	if _, _, err := d.Quantize(-1); err == nil {
		t.Error("negative request should fail")
	}
}

func TestManagerCacheConsistency(t *testing.T) {
	// Two identical requests must produce identical decisions.
	m := newTestManager(t)
	a, err := m.Configure(Requirements{TargetBER: 1e-10, Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Configure(Requirements{TargetBER: 1e-10, Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	if a.Eval.Code.Name() != b.Eval.Code.Name() || a.DACCode != b.DACCode {
		t.Error("repeated requests diverged")
	}
}

func BenchmarkConfigure(b *testing.B) {
	cfg := core.DefaultConfig()
	m, err := newManager(&cfg, ecc.PaperSchemes(), PaperDAC())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Configure(Requirements{TargetBER: 1e-11, Objective: MinPower}); err != nil {
			b.Fatal(err)
		}
	}
}
