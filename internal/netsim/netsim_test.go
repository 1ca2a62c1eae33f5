package netsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"photonoc/internal/apierr"
	"photonoc/internal/manager"
)

// run simulates cfg with its roster solved through the compiled, uncached
// evaluator of cfg.Link.
func run(cfg Config) (Results, error) {
	c, err := cfg.Link.Compile()
	if err != nil {
		return Results{}, err
	}
	return RunCtx(context.Background(), cfg, c.Evaluator())
}

// runTrace replays tr like run simulates a generated workload.
func runTrace(cfg Config, tr Trace) (Results, error) {
	c, err := cfg.Link.Compile()
	if err != nil {
		return Results{}, err
	}
	return RunTraceCtx(context.Background(), cfg, tr, c.Evaluator())
}

func TestRunDefaultDelivers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 5000
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 5000 {
		t.Errorf("delivered %d messages, want 5000", res.Messages)
	}
	if res.DeliveredBits != int64(5000*cfg.MessageBits) {
		t.Errorf("delivered bits = %d", res.DeliveredBits)
	}
	if res.SimTimeSec <= 0 || res.ThroughputBitsPerSec <= 0 {
		t.Error("degenerate time/throughput")
	}
	// Latency is at least one transfer time.
	minTransfer := float64(cfg.MessageBits) / (16 * 10e9)
	if res.MeanLatencySec < minTransfer {
		t.Errorf("mean latency %g below a single transfer %g", res.MeanLatencySec, minTransfer)
	}
	// Percentiles ordered.
	if !(res.P50LatencySec <= res.P95LatencySec && res.P95LatencySec <= res.P99LatencySec && res.P99LatencySec <= res.MaxLatencySec) {
		t.Error("latency percentiles out of order")
	}
	// Energy parts sum to total.
	sum := res.LaserEnergyJ + res.ModulatorEnergyJ + res.InterfaceEnergyJ + res.IdleEnergyJ
	if diff := res.TotalEnergyJ - sum; diff > 1e-12 || diff < -1e-12 {
		t.Error("energy breakdown does not sum")
	}
	if res.EnergyPerBitJ <= 0 {
		t.Error("energy per bit missing")
	}
	// With MinEnergy and no deadlines, the manager should always pick
	// the paper's most efficient scheme.
	if res.SchemeUse["H(71,64)"] != res.Messages {
		t.Errorf("scheme usage %v, want all H(71,64)", res.SchemeUse)
	}
	if res.ChannelUtilization <= 0 || res.ChannelUtilization >= 1 {
		t.Errorf("utilization %g out of range", res.ChannelUtilization)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 2000
	a, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatencySec != b.MeanLatencySec || a.TotalEnergyJ != b.TotalEnergyJ {
		t.Error("identical seeds should reproduce identical results")
	}
	cfg.Seed = 2
	c, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatencySec == c.MeanLatencySec {
		t.Error("different seeds should perturb the run")
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	mk := func(load float64) Results {
		cfg := DefaultConfig()
		cfg.Messages = 4000
		cfg.Load = load
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	low := mk(0.2)
	high := mk(0.7)
	if high.MeanQueueWaitSec <= low.MeanQueueWaitSec {
		t.Errorf("queueing at load 0.7 (%g) should exceed load 0.2 (%g)",
			high.MeanQueueWaitSec, low.MeanQueueWaitSec)
	}
}

func TestHotspotCongestsHotChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 4000
	cfg.Load = 0.25
	uniform, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pattern = Hotspot
	cfg.HotspotNode = 3
	hot, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hot.P95LatencySec <= uniform.P95LatencySec {
		t.Errorf("hotspot P95 %g should exceed uniform %g", hot.P95LatencySec, uniform.P95LatencySec)
	}
}

func TestIdleLaserOffSavesEnergy(t *testing.T) {
	// At low load most channel time is idle: the [9] extension must cut
	// total energy substantially.
	base := DefaultConfig()
	base.Messages = 3000
	base.Load = 0.1
	on, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.IdleLaserOff = true
	off, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	if off.IdleEnergyJ != 0 {
		t.Error("idle-laser-off should zero idle energy")
	}
	if on.IdleEnergyJ <= 0 {
		t.Error("baseline should accumulate idle energy")
	}
	if off.TotalEnergyJ >= on.TotalEnergyJ*0.8 {
		t.Errorf("idle-off total %g should be well below baseline %g", off.TotalEnergyJ, on.TotalEnergyJ)
	}
}

func TestAdaptiveDeadlinePolicy(t *testing.T) {
	// Tight deadlines with adaptation: the manager should mix schemes —
	// fast uncoded transfers when slack is short, coded when it is not —
	// and miss fewer deadlines than an energy-only policy.
	cfg := DefaultConfig()
	cfg.Messages = 6000
	cfg.Load = 0.5
	cfg.DeadlineSlack = 1.4 // between CT(H(71,64))=1.11 and CT(H(7,4))=1.75
	cfg.AdaptToDeadline = true
	adaptive, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AdaptToDeadline = false
	cfg.Objective = manager.MinPower // would always pick H(7,4): CT 1.75
	static, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.DeadlineMisses >= static.DeadlineMisses {
		t.Errorf("adaptive misses %d, static-H(7,4) misses %d — adaptation should help",
			adaptive.DeadlineMisses, static.DeadlineMisses)
	}
	if len(adaptive.SchemeUse) < 2 {
		t.Errorf("adaptive policy never mixed schemes: %v", adaptive.SchemeUse)
	}
}

func TestStreamingPatternRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pattern = Streaming
	cfg.Messages = 3000
	cfg.DeadlineSlack = 2.0
	cfg.AdaptToDeadline = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 3000 {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestPermutationPatternRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pattern = Permutation
	cfg.Messages = 2000
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2000 {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Schemes = nil },
		func(c *Config) { c.TargetBER = 0 },
		func(c *Config) { c.MessageBits = 0 },
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.Load = 1.5 },
		func(c *Config) { c.Messages = 0 },
		func(c *Config) { c.Messages = MaxMessages + 1 },
		func(c *Config) { c.DeadlineSlack = -1 },
		func(c *Config) { c.Pattern = Hotspot; c.HotspotNode = 99 },
		func(c *Config) { c.TargetBER = math.NaN() },
		func(c *Config) { c.Load = math.NaN() },
		func(c *Config) { c.DeadlineSlack = math.NaN() },
		func(c *Config) { c.Pattern = Hotspot; c.HotspotFraction = math.NaN() },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

// TestReplayRejectsBadManagerInputs: a replay needs an evaluator for its
// roster solve and a valid DAC to program; either missing is an invalid
// configuration, as it is for the manager.
func TestReplayRejectsBadManagerInputs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 10
	tr, err := RecordTraceCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTraceCtx(context.Background(), cfg, tr, nil); !errors.Is(err, apierr.ErrInvalidConfig) {
		t.Errorf("nil evaluator: want ErrInvalidConfig, got %v", err)
	}
	cfg.DAC.Bits = 0
	if _, err := runTrace(cfg, tr); !errors.Is(err, apierr.ErrInvalidConfig) {
		t.Errorf("zero-bit DAC: want ErrInvalidConfig, got %v", err)
	}
}

func BenchmarkSimulation(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Messages = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
