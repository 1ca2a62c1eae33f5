package onoc

import (
	"math"
	"testing"

	"photonoc/internal/mathx"
)

// referenceBudget is the unsplit per-channel budget verbatim: every loss
// term derived from the whole specification on every call, in O(G). The
// plan tests hold the split plans to it bit for bit.
func referenceBudget(c *ChannelSpec, ch int) LinkBudget {
	lambda := c.Grid.Wavelength(ch)
	writers := c.Topo.Writers()
	b := LinkBudget{
		CouplingDB:    c.CouplingLossDB,
		MuxDB:         c.Mux.InsertionLossDB,
		PropagationDB: c.Waveguide.LossDB(),
	}
	b.ModulatorSameLambdaDB = float64(writers) * c.ModulatorAt(ch).OffStateLossDB()
	var offPerWriter float64
	for j := 0; j < c.Grid.Count; j++ {
		if j == ch {
			continue
		}
		offPerWriter += dbFromTransmission(c.ModulatorAt(j).ThroughTransmission(lambda, false))
	}
	b.ModulatorOffLambdaDB = float64(writers) * offPerWriter
	for j := 0; j < c.Grid.Count; j++ {
		if j == ch {
			continue
		}
		b.DropBankPassDB += dbFromTransmission(c.DropFilterAt(j).ThroughTransmission(lambda, false))
	}
	b.DropLossDB = dbFromTransmission(c.DropFilterAt(ch).DropTransmission(lambda, false))
	return b
}

// referenceChannel is one channel of the unsplit O(G²) compile: budget,
// crosstalk and eye fraction derived from the whole specification.
type referenceChannel struct {
	budgetDB, budgetLin, chi, eye float64
}

func referenceCompile(t testing.TB, c *ChannelSpec) []referenceChannel {
	t.Helper()
	out := make([]referenceChannel, c.Grid.Count)
	for ch := range out {
		chi, err := c.CrosstalkFraction(ch)
		if err != nil {
			t.Fatal(err)
		}
		db := referenceBudget(c, ch).TotalDB()
		out[ch] = referenceChannel{
			budgetDB:  db,
			budgetLin: mathx.FromDB(db),
			chi:       chi,
			eye:       1 - 1/mathx.FromDB(c.ModulatorAt(ch).ExtinctionRatioDB()),
		}
	}
	return out
}

// requireReference fails unless every channel of the plan equals the
// unsplit compile of spec bit for bit: budget, linear budget, χ and eye.
func requireReference(t testing.TB, p *LinkPlan, spec *ChannelSpec) {
	t.Helper()
	want := referenceCompile(t, spec)
	if len(p.channels) != len(want) {
		t.Fatalf("plan has %d channels, reference %d", len(p.channels), len(want))
	}
	bits := math.Float64bits
	for ch, w := range want {
		lc, bc := p.channels[ch], p.block.channels[ch]
		if bits(lc.budgetDB) != bits(w.budgetDB) || bits(lc.budgetLin) != bits(w.budgetLin) ||
			bits(bc.chi) != bits(w.chi) || bits(bc.eye) != bits(w.eye) {
			t.Fatalf("channel %d: plan (budget %v, lin %v, χ %v, eye %v) != reference %+v",
				ch, lc.budgetDB, lc.budgetLin, bc.chi, bc.eye, w)
		}
	}
	if p.Spec() != *spec {
		t.Fatalf("plan spec %+v != %+v", p.Spec(), *spec)
	}
}

// referenceOperatingPoint reproduces the pre-plan per-call solver verbatim:
// budget, crosstalk and eye fraction derived on every query. The plan tests
// compare against it field for field, requiring exact equality.
func referenceOperatingPoint(c *ChannelSpec, snr float64, ch int) (OperatingPoint, error) {
	if snr <= 0 {
		return OperatingPoint{}, nil
	}
	if err := c.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	budget := referenceBudget(c, ch)
	chi, err := c.CrosstalkFraction(ch)
	if err != nil {
		return OperatingPoint{}, err
	}
	eyeFraction := 1 - 1/mathx.FromDB(c.ModulatorAt(ch).ExtinctionRatioDB())
	margin := eyeFraction - chi
	if margin <= 0 {
		return OperatingPoint{}, nil
	}
	op := OperatingPoint{
		Channel:           ch,
		SNR:               snr,
		EyeFraction:       eyeFraction,
		CrosstalkFraction: chi,
		BudgetDB:          budget.TotalDB(),
	}
	op.ReceivedOneLevelW = c.Detector.RequiredSignalPower(snr) / margin
	op.LaserOpticalW = op.ReceivedOneLevelW * mathx.FromDB(budget.TotalDB())
	pe, err := c.Laser.ElectricalPower(op.LaserOpticalW, c.Activity)
	if err == nil {
		op.LaserElectricalW = pe
		op.Feasible = true
	} else {
		op.InfeasibleReason = err.Error()
	}
	return op, nil
}

func referenceWorst(c *ChannelSpec, snr float64) (OperatingPoint, error) {
	var worst OperatingPoint
	for ch := 0; ch < c.Grid.Count; ch++ {
		op, err := referenceOperatingPoint(c, snr, ch)
		if err != nil {
			return OperatingPoint{}, err
		}
		if ch == 0 || op.LaserOpticalW > worst.LaserOpticalW {
			worst = op
		}
	}
	return worst, nil
}

func TestLinkPlanReproducesOperatingPointExactly(t *testing.T) {
	spec := PaperChannel()
	plan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, snr := range []float64{10, 111.68, 500, 2000} {
		for ch := 0; ch < spec.Grid.Count; ch++ {
			want, err := referenceOperatingPoint(&spec, snr, ch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.OperatingPoint(snr, ch)
			if err != nil {
				t.Fatalf("plan.OperatingPoint(%g, %d): %v", snr, ch, err)
			}
			if got != want {
				t.Errorf("snr=%g ch=%d: plan %+v != reference %+v", snr, ch, got, want)
			}
		}
	}
}

func TestLinkPlanWorstMatchesPerChannelScan(t *testing.T) {
	spec := PaperChannel()
	plan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Span feasible and laser-infeasible SNRs (the paper's 1e-12 cliff).
	for _, snr := range []float64{5, 50, 111.68, 123.9, 500, 5000} {
		want, err := referenceWorst(&spec, snr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.WorstOperatingPoint(snr)
		if err != nil {
			t.Fatalf("WorstOperatingPoint(%g): %v", snr, err)
		}
		if got != want {
			t.Errorf("snr=%g: plan worst %+v != reference %+v", snr, got, want)
		}
	}
}

func TestLinkPlanValidation(t *testing.T) {
	spec := PaperChannel()
	plan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.OperatingPoint(0, 0); err == nil {
		t.Error("non-positive SNR must be rejected")
	}
	if _, err := plan.OperatingPoint(100, -1); err == nil {
		t.Error("negative channel must be rejected")
	}
	if _, err := plan.OperatingPoint(100, spec.Grid.Count); err == nil {
		t.Error("out-of-range channel must be rejected")
	}

	bad := PaperChannel()
	bad.CouplingLossDB = -1
	if _, err := bad.Compile(); err == nil {
		t.Error("Compile must validate the specification")
	}
}

func TestLinkPlanClosedEye(t *testing.T) {
	spec := PaperChannel()
	// A drastically widened drop filter collects the whole comb: χ exceeds
	// the eye fraction and the channel cannot be solved.
	spec.DropFilter.FWHMNM = 50
	plan, err := spec.Compile()
	if err != nil {
		t.Fatalf("closed-eye channels must still compile: %v", err)
	}
	if _, err := plan.OperatingPoint(100, 0); err == nil {
		t.Error("closed eye must fail at solve time")
	}
	if _, err := plan.WorstOperatingPoint(100); err == nil {
		t.Error("worst-channel scan must fail on a closed eye")
	}
}

// TestCompileSnapshotsSpec: a plan holds a copy of its specification, so
// mutating the spec after Compile leaves the plan alone, and compiling the
// mutated spec reflects the new physics.
func TestCompileSnapshotsSpec(t *testing.T) {
	spec := PaperChannel()
	p1, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	orig := spec
	spec.Waveguide.LengthCM *= 2
	if p1.Spec() != orig {
		t.Error("mutating the spec after Compile must not reach the plan")
	}
	p2, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := p1.WorstOperatingPoint(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2.WorstOperatingPoint(100)
	if err != nil {
		t.Fatal(err)
	}
	if !(b.BudgetDB > a.BudgetDB) {
		t.Errorf("doubled waveguide must raise the budget: %.3f vs %.3f dB", b.BudgetDB, a.BudgetDB)
	}
}

func TestLinkPlanChannelsAccessor(t *testing.T) {
	spec := PaperChannel()
	plan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	chans := plan.Channels()
	if len(chans) != spec.Grid.Count {
		t.Fatalf("Channels() returned %d entries, want %d", len(chans), spec.Grid.Count)
	}
	for i, cp := range chans {
		if cp.Channel != i {
			t.Errorf("entry %d carries channel %d", i, cp.Channel)
		}
		if math.IsNaN(cp.BudgetDB) || cp.BudgetDB <= 0 {
			t.Errorf("channel %d budget %g dB not positive", i, cp.BudgetDB)
		}
		if !(cp.Chi > 0 && cp.Chi < cp.EyeFraction) {
			t.Errorf("channel %d χ=%g outside (0, eye=%g)", i, cp.Chi, cp.EyeFraction)
		}
	}
	// Returned slice is a copy: mutating it must not corrupt the plan.
	chans[0].BudgetDB = -1
	if plan.Channels()[0].BudgetDB == -1 {
		t.Error("Channels() must return a defensive copy")
	}
}

func BenchmarkWorstOperatingPointPlanned(b *testing.B) {
	spec := PaperChannel()
	plan, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.WorstOperatingPoint(111.68); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorstOperatingPointReference(b *testing.B) {
	spec := PaperChannel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := referenceWorst(&spec, 111.68); err != nil {
			b.Fatal(err)
		}
	}
}
