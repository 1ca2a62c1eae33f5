package photonoc

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/manager"
	"photonoc/internal/netsim"
)

var engineTestBERs = []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7}

// compile compiles cfg, failing the test on error.
func compile(t testing.TB, cfg *LinkConfig) *core.Compiled {
	t.Helper()
	c, err := cfg.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reference is cfg's sequential, uncached Evaluator — the solve every
// Engine path must reproduce bit for bit.
func reference(t testing.TB, cfg *LinkConfig) Evaluator { return compile(t, cfg).Evaluator() }

// TestEngineSweepMatchesSequential is the public-API acceptance check: a
// 4-worker Engine.Sweep over the 8-scheme × 6-BER paper grid must be
// byte-identical to the sequential compiled sweep.
func TestEngineSweepMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	codes := ExtendedSchemes()
	want, err := core.SweepWith(context.Background(), reference(t, &cfg), codes, engineTestBERs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(WithConfig(cfg), WithSchemes(codes...), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Sweep(context.Background(), codes, engineTestBERs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Engine.Sweep differs from the sequential compiled sweep")
	}
}

func TestEngineSweepStreamIncremental(t *testing.T) {
	eng, err := New(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, err := range eng.SweepStream(context.Background(), nil, engineTestBERs) {
		if err != nil {
			t.Fatal(err)
		}
		next++
	}
	if want := len(PaperSchemes()) * len(engineTestBERs); next != want {
		t.Fatalf("stream delivered %d results, want %d", next, want)
	}
}

func TestEngineTypedErrors(t *testing.T) {
	if _, err := New(WithWorkers(0)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("zero workers: want ErrInvalidConfig, got %v", err)
	}
	if _, err := New(WithSchemes()); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("empty roster: want ErrInvalidConfig, got %v", err)
	}
	if _, err := New(WithCache(-5)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("negative cache: want ErrInvalidConfig, got %v", err)
	}
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, ber := range []float64{-1e-9, 0, 1, 7} {
		if _, err := eng.Evaluate(context.Background(), Hamming74(), ber); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("BER %g: want ErrInvalidInput, got %v", ber, err)
		}
	}
}

func TestEngineManagerSharesCache(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := eng.Manager(PaperDAC())
	if err != nil {
		t.Fatal(err)
	}
	d, err := mgr.Configure(Requirements{TargetBER: 1e-11, Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	if d.Eval.Code.Name() != "H(71,64)" {
		t.Errorf("engine-backed manager picked %s", d.Eval.Code.Name())
	}
	after := eng.CacheStats()
	if after.Misses == 0 {
		t.Fatal("manager decisions should populate the engine cache")
	}
	// The same decision again must be pure cache hits.
	if _, err := mgr.Configure(Requirements{TargetBER: 1e-11, Objective: MinEnergy}); err != nil {
		t.Fatal(err)
	}
	again := eng.CacheStats()
	if again.Misses != after.Misses {
		t.Errorf("repeated decision re-solved: misses %d → %d", after.Misses, again.Misses)
	}
	if again.Hits <= after.Hits {
		t.Errorf("repeated decision did not hit the cache: hits %d → %d", after.Hits, again.Hits)
	}
}

func TestEngineInfeasibleTyped(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := eng.Manager(PaperDAC())
	if err != nil {
		t.Fatal(err)
	}
	_, err = mgr.Configure(Requirements{TargetBER: 1e-12, MaxCT: 1})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	if !errors.Is(err, manager.ErrNoFeasibleScheme) {
		t.Errorf("ErrInfeasible must wrap manager.ErrNoFeasibleScheme, got %v", err)
	}
}

func TestEngineSimulateMatchesRunSimulation(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Messages = 500
	want, err := netsim.RunCtx(context.Background(), cfg, reference(t, &cfg.Link))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Engine.Simulate differs from the simulator run over the sequential evaluator")
	}
}

// TestSimulateAllocs pins the cached single-link DES: one 20k-message run
// solves its roster once, so its allocations are the trace, the per-run
// tables and the results, not a count that grows with the messages.
func TestSimulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only hold without -race")
	}
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig()
	run := func() {
		if _, err := eng.Simulate(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the memo cache
	if allocs := testing.AllocsPerRun(5, run); allocs > 200 {
		t.Errorf("cached Simulate allocated %.0f times per run, want ≤ 200", allocs)
	}
}

func TestEngineSimulateConfigMismatch(t *testing.T) {
	custom := DefaultConfig()
	custom.Channel.Waveguide.LengthCM = 9
	eng, err := New(WithConfig(custom))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig() // paper link ≠ engine's custom link
	if _, err := eng.Simulate(context.Background(), cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("mismatched sim link: want ErrInvalidConfig, got %v", err)
	}
	// Leaving the link zero adopts the engine's configuration.
	cfg.Link = LinkConfig{}
	cfg.Messages = 200
	res, err := eng.Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 200 {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestStandaloneManagerHonorsCancellation(t *testing.T) {
	cfg := DefaultConfig()
	mgr, err := manager.NewWithEvaluator(&cfg, PaperSchemes(), PaperDAC(), reference(t, &cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mgr.ConfigureCtx(ctx, Requirements{TargetBER: 1e-11}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestEngineSimulateTraceConfigMismatch(t *testing.T) {
	custom := DefaultConfig()
	custom.Channel.Waveguide.LengthCM = 9
	eng, err := New(WithConfig(custom))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := DefaultSimConfig()
	base.Messages = 50
	tr, err := eng.RecordSimTrace(ctx, base) // mismatched link must be rejected
	if tr != nil || !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("mismatched trace config: want ErrInvalidConfig, got %v", err)
	}
	base.Link = LinkConfig{}
	tr, err = eng.RecordSimTrace(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SimulateTrace(context.Background(), base, tr); err != nil {
		t.Fatal(err)
	}
	mismatch := base
	mismatch.Link = DefaultConfig() // paper link ≠ engine's 9 cm link
	if _, err := eng.SimulateTrace(context.Background(), mismatch, tr); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("mismatched replay: want ErrInvalidConfig, got %v", err)
	}
}

func TestEngineSimulateCancellation(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultSimConfig()
	if _, err := eng.Simulate(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}
