package photonoc

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"photonoc/internal/manager"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	// The README's quick-start must work through the façade alone.
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	evU, err := eng.Evaluate(ctx, Uncoded64(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	ev74, err := eng.Evaluate(ctx, Hamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if !evU.Feasible || !ev74.Feasible {
		t.Fatal("paper operating points must be feasible")
	}
	if ratio := ev74.LaserPowerW / evU.LaserPowerW; ratio > 0.55 {
		t.Errorf("H(7,4) should cut laser power roughly in half, got ratio %.2f", ratio)
	}
}

func TestFacadeSchemeRosters(t *testing.T) {
	if got := len(PaperSchemes()); got != 3 {
		t.Errorf("paper roster size %d", got)
	}
	if got := len(ExtendedSchemes()); got < 6 {
		t.Errorf("extended roster size %d", got)
	}
	if Hamming7164().N() != 71 || Hamming7164().K() != 64 {
		t.Error("H(71,64) accessor wrong")
	}
}

func TestFacadeManager(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.Manager(PaperDAC())
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Configure(Requirements{TargetBER: 1e-11, Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Code.Name() != "H(71,64)" {
		t.Errorf("façade manager picked %s", d.Eval.Code.Name())
	}
	// The no-feasible-scheme error surfaces through the façade types.
	_, err = m.Configure(Requirements{TargetBER: 1e-12, MaxCT: 1})
	if !errors.Is(err, manager.ErrNoFeasibleScheme) {
		t.Errorf("want ErrNoFeasibleScheme, got %v", err)
	}
}

// TestBestEnergySchemeByBER: under MinEnergy the paper roster's map is
// H(71,64) across the feasible BERs, an engine yields the sequential
// evaluator's map, and a BER no scheme closes is absent.
func TestBestEnergySchemeByBER(t *testing.T) {
	cfg := DefaultConfig()
	ctx := context.Background()
	bers := []float64{1e-12, 1e-11, 1e-9, 1e-6}
	best, err := BestEnergySchemeByBERWith(ctx, reference(t, &cfg), PaperSchemes(), bers)
	if err != nil {
		t.Fatal(err)
	}
	for _, ber := range bers {
		if best[ber] != "H(71,64)" {
			t.Errorf("best scheme at %g = %q, want H(71,64)", ber, best[ber])
		}
	}
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	viaEngine, err := BestEnergySchemeByBERWith(ctx, eng, PaperSchemes(), bers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaEngine, best) {
		t.Errorf("engine map %v differs from the sequential %v", viaEngine, best)
	}
	// With only the uncoded scheme in the pool, 1e-12 has no feasible
	// entry at all.
	best, err = BestEnergySchemeByBERWith(ctx, reference(t, &cfg), []Code{Uncoded64()}, []float64{1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := best[1e-12]; ok {
		t.Error("uncoded-only pool should have no feasible scheme at 1e-12")
	}
}

// TestUnknownObjectiveRejected: an Objective outside the three defined
// ones is invalid input at every entry point that takes one, instead of
// being decided as min-power.
func TestUnknownObjectiveRejected(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mgr, err := eng.Manager(PaperDAC())
	if err != nil {
		t.Fatal(err)
	}
	sim := DefaultSimConfig()
	sim.Messages = 100
	sim.Objective = manager.Objective(42)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Manager.Configure", func() error {
			_, err := mgr.Configure(Requirements{TargetBER: 1e-11, Objective: manager.Objective(7)})
			return err
		}},
		{"Engine.Network", func() error {
			_, err := eng.Network(ctx, NoCConfig{Kind: NoCBus, Tiles: 12},
				NoCEvalOptions{TargetBER: 1e-11, Objective: manager.Objective(-3)})
			return err
		}},
		{"Engine.Simulate", func() error {
			_, err := eng.Simulate(ctx, sim)
			return err
		}},
	} {
		err := tc.call()
		if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), "unknown objective") {
			t.Errorf("%s: want ErrInvalidInput naming the unknown objective, got %v", tc.name, err)
		}
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Messages = 500
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 500 {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestFacadeTable1(t *testing.T) {
	rows, totals, err := SynthesizeTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 || len(totals) != 6 {
		t.Errorf("table1 shape %d/%d", len(rows), len(totals))
	}
}

func TestFacadeValidateMC(t *testing.T) {
	eng, err := New(WithSchemes(PaperSchemes()...))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := eng.ValidateMC(ctx, Hamming7164(), 1e-2, MCOptions{Frames: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != "H(71,64)" || res.Frames < 50_000 || res.FrameErrors == 0 {
		t.Errorf("unexpected MC result: %+v", res)
	}
	// The analytic FER (exact for a bounded-distance decoder) must sit
	// inside a widened Wilson band.
	if res.ExpectedFER < res.FERLow*0.8 || res.ExpectedFER > res.FERHigh*1.2 {
		t.Errorf("analytic FER %g far outside CI [%g, %g]", res.ExpectedFER, res.FERLow, res.FERHigh)
	}
	grid, err := eng.ValidateGrid(ctx, nil, []float64{1e-2}, MCOptions{Frames: 10_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(PaperSchemes()) {
		t.Errorf("grid returned %d results, want %d", len(grid), len(PaperSchemes()))
	}
}
