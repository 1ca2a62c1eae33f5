package photonoc

import (
	"context"
	"fmt"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/manager"
)

// The paper's full design sweep: 8 schemes (the three paper schemes plus
// the extended code families) × 6 target BERs — the workload behind
// Figures 5/6 and the Pareto explorer.
var benchBERs = []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7}

// BenchmarkSweepSequential is the uncached reference path: every iteration
// compiles the configuration and re-solves all 48 operating points in one
// goroutine.
func BenchmarkSweepSequential(b *testing.B) {
	cfg := DefaultConfig()
	codes := ExtendedSchemes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SweepWith(context.Background(), reference(b, &cfg), codes, benchBERs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSweepCold is the engine's cold path: memoization is
// disabled, so every iteration re-solves the full grid, in grid order on
// the caller's goroutine. Against BenchmarkSweepSequential it shows what
// the engine's interned plans save.
func BenchmarkEngineSweepCold(b *testing.B) {
	codes := ExtendedSchemes()
	eng, err := New(WithSchemes(codes...), WithCache(0))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Sweep(ctx, codes, benchBERs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSweepWarm is the production configuration (memo cache
// on): the first sweep populates the cache, every later overlapping sweep
// — the repeated-manager-decision / Pareto-explorer pattern — is pure
// cache hits.
func BenchmarkEngineSweepWarm(b *testing.B) {
	codes := ExtendedSchemes()
	eng, err := New(WithSchemes(codes...))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Sweep(ctx, codes, benchBERs); err != nil {
		b.Fatal(err) // warm the cache outside the timed region
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Sweep(ctx, codes, benchBERs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkEval is the tracked noc_eval workload: one full network
// evaluation of a 16-tile SWMR crossbar (16 links with distinct loss
// budgets × the paper's 3 schemes) with memoization disabled, so every
// iteration re-solves all 48 per-link operating points and re-aggregates
// loads, saturation and latency.
func BenchmarkNetworkEval(b *testing.B) {
	eng, err := New(WithCache(0))
	if err != nil {
		b.Fatal(err)
	}
	topo := NoCConfig{Kind: NoCCrossbar, Tiles: 16}
	opts := NoCEvalOptions{TargetBER: 1e-11, Objective: MinEnergy}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Network(ctx, topo, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatalf("crossbar infeasible: %s", res.InfeasibleReason)
		}
	}
}

// BenchmarkNetworkCold is one cold Network call on a fresh engine: a
// 512-tile crossbar, whose 512 links differ in length, over the paper's
// 16-channel grid and over a 512-channel one. All links share one
// wavelength block, so the engine compiles one block plan, O(G²) in the
// grid count G, and derives each link from it in O(G).
func BenchmarkNetworkCold(b *testing.B) {
	for _, grid := range []int{16, 512} {
		b.Run(fmt.Sprintf("crossbar512/λ%d", grid), func(b *testing.B) {
			base := DefaultConfig()
			base.Channel.Grid.Count, base.Channel.Topo.Wavelengths = grid, grid
			topo := NoCConfig{Kind: NoCCrossbar, Tiles: 512, Base: base}
			opts := NoCEvalOptions{TargetBER: 1e-11, Objective: MinEnergy}
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := New()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Network(ctx, topo, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkWarm is the warm analytic path the serve-warm workload
// drives: its five topologies (bus-12, ring-16, mesh-4×4, mesh-4×2,
// crossbar-8) at two BERs each on one engine whose memo cache already holds
// every cell, so an iteration is ten Network calls of lookups, decisions
// and aggregation with no cold solve.
func BenchmarkNetworkWarm(b *testing.B) {
	eng, err := New()
	if err != nil {
		b.Fatal(err)
	}
	topos := []NoCConfig{
		{Kind: NoCBus, Tiles: 12},
		{Kind: NoCRing, Tiles: 16},
		{Kind: NoCMesh, Tiles: 16, Columns: 4},
		{Kind: NoCMesh, Tiles: 8, Columns: 2},
		{Kind: NoCCrossbar, Tiles: 8},
	}
	bers := []float64{1e-9, 1e-11}
	ctx := context.Background()
	run := func() {
		for _, topo := range topos {
			for _, ber := range bers {
				if _, err := eng.Network(ctx, topo, NoCEvalOptions{TargetBER: ber, Objective: MinEnergy}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	run() // warm the cache untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// autotunerChain builds a deterministic mutate-one-knob candidate walk —
// the autotuner workload: each step flips one knob (DAC, injection rate,
// target BER, tile count) and keeps the rest, so neighboring candidates
// mostly share their per-link solve cells.
func autotunerChain(n int) []NoCCandidate {
	dacv := PaperDAC()
	tiles, ber, rate, dac := 16, 1e-11, 0.0, false
	chain := make([]NoCCandidate, n)
	for i := range chain {
		switch i % 8 {
		case 1, 5:
			dac = !dac
		case 2, 6:
			if rate == 0 {
				rate = 1e9
			} else {
				rate = 0
			}
		case 3:
			if ber == 1e-11 {
				ber = 1e-9
			} else {
				ber = 1e-11
			}
		case 7:
			if tiles == 16 {
				tiles = 12
			} else {
				tiles = 16
			}
		}
		opts := NoCEvalOptions{TargetBER: ber, Objective: MinEnergy, InjectionRateBitsPerSec: rate}
		if dac {
			opts.DAC = &dacv
		}
		chain[i] = NoCCandidate{Topology: NoCConfig{Kind: NoCCrossbar, Tiles: tiles}, Opts: opts}
	}
	return chain
}

// BenchmarkNetworkBatch is the tracked noc_batch workload: a 64-candidate
// mutate-one-knob population through the pooled-session batch evaluator
// (sessions warm, memo cache on; the sub-benchmark keeps its historical
// name "incremental") against the per-candidate cold baseline
// the autotuner would otherwise pay.
func BenchmarkNetworkBatch(b *testing.B) {
	chain := autotunerChain(64)
	ctx := context.Background()
	b.Run("incremental", func(b *testing.B) {
		eng, err := New()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.NetworkBatch(ctx, chain); err != nil {
			b.Fatal(err) // warm the cache and the session pool untimed
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.NetworkBatch(ctx, chain); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(chain))*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
	})
	b.Run("percand_cold", func(b *testing.B) {
		eng, err := New(WithCache(0))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cand := range chain {
				if _, err := eng.Network(ctx, cand.Topology, cand.Opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(chain))*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
	})
}

// BenchmarkTune runs the tracked noc_tune campaign: a seeded 8-particle ×
// 5-generation swarm over the default design space, evaluated through the
// batch path. Candidate throughput (cand/s) counts the 40
// particle evaluations of each campaign, the repeats it copies from its
// design memo included.
func BenchmarkTune(b *testing.B) {
	eng, err := New()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := TuneOptions{TargetBER: 1e-11, Seed: 7, Particles: 8, Generations: 5}
	if _, err := eng.Tune(ctx, opts); err != nil {
		b.Fatal(err) // warm the memo cache and session pool untimed
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Tune(ctx, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty Pareto front")
		}
	}
	b.ReportMetric(float64(opts.Particles*opts.Generations)*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
}

// BenchmarkManagerDecision compares per-request manager latency: a
// standalone manager over the uncached compiled solver (every decision
// re-solves the roster) against an engine-backed manager sharing the
// sweep-warmed memo cache.
func BenchmarkManagerDecision(b *testing.B) {
	req := Requirements{TargetBER: 1e-11, Objective: MinEnergy}
	b.Run("standalone", func(b *testing.B) {
		cfg := DefaultConfig()
		mgr, err := manager.NewWithEvaluator(&cfg, PaperSchemes(), PaperDAC(), reference(b, &cfg))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mgr.Configure(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine-backed", func(b *testing.B) {
		eng, err := New()
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := eng.Manager(PaperDAC())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mgr.Configure(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulate measures the single-link DES through a cached engine:
// 20k messages of DefaultSimConfig, without deadlines (static) and with
// per-transfer CT caps from a 1.4× deadline slack (deadline). The roster
// is solved once per run, so the event loop dominates.
func BenchmarkSimulate(b *testing.B) {
	for _, bc := range []struct {
		name   string
		mutate func(*SimConfig)
	}{
		{"static", func(*SimConfig) {}},
		{"deadline", func(c *SimConfig) { c.DeadlineSlack = 1.4; c.AdaptToDeadline = true }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng, err := New()
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultSimConfig()
			bc.mutate(&cfg)
			ctx := context.Background()
			if _, err := eng.Simulate(ctx, cfg); err != nil {
				b.Fatal(err) // warm the memo cache untimed
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Simulate(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
