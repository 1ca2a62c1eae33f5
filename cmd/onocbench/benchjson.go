package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"photonoc"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
	"photonoc/internal/mc"
	"photonoc/internal/onocd"
)

// BenchReport is the machine-readable output of `onocbench -json`: the
// tracked performance metrics of the solve pipeline, in the format committed
// to BENCH_cold_sweep.json (see README, "Performance model").
type BenchReport struct {
	// Schema versions the report layout.
	Schema int `json:"schema"`
	// Generated is the RFC 3339 measurement time.
	Generated string `json:"generated"`
	// GoVersion and GOMAXPROCS pin the measurement environment.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workload describes the sweep grid the sweep metrics run over.
	Workload string `json:"workload"`
	// Benchmarks are the tracked metrics, in stable order.
	Benchmarks []BenchMetric `json:"benchmarks"`
}

// BenchMetric is one tracked benchmark measurement.
type BenchMetric struct {
	// Name identifies the metric: cold_sweep, warm_sweep, fer_inversion,
	// monte_carlo_block, mc_throughput, mc_scalar_throughput, noc_eval,
	// noc_batch, noc_batch_cold, noc_cold_crossbar512, noc_tune,
	// service_warm_qps.
	Name string `json:"name"`
	// NsPerOp is wall nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are per-operation heap accounting.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// N is the iteration count the measurement averaged over.
	N int `json:"n"`
	// FramesPerSec is the Monte-Carlo validation throughput (simulated
	// codewords per second); set only on the mc_* metrics.
	FramesPerSec float64 `json:"frames_per_sec,omitempty"`
	// SolvesPerSec is the per-link operating-point solve throughput of a
	// network evaluation; set only on the noc_eval metric.
	SolvesPerSec float64 `json:"solves_per_sec,omitempty"`
	// CandidatesPerSec is the design-space candidate throughput of the
	// autotuner workload; set on the noc_batch* metrics (noc_batch is
	// the pooled-session batch evaluator, noc_batch_cold the per-candidate
	// cold baseline it is measured against) and on noc_tune, where it
	// counts the campaign's particles × generations evaluations, the
	// repeats a campaign copies from its design memo included.
	CandidatesPerSec float64 `json:"candidates_per_sec,omitempty"`
	// FrontSize is the final Pareto-front size of the tracked seeded
	// autotuner campaign; set only on the noc_tune metric. The campaign is
	// deterministic, so a changed front size is a behavior change, not
	// noise.
	FrontSize int `json:"front_size,omitempty"`
	// QPS is the closed-loop request throughput against a selfhosted onocd
	// daemon; set only on the service_warm_qps metric (whose ns_per_op /
	// p99_ns_per_op carry the p50 / p99 request latency).
	QPS        float64 `json:"qps,omitempty"`
	P99NsPerOp float64 `json:"p99_ns_per_op,omitempty"`
	// Phases is the daemon's engine-phase breakdown over the whole run (cold
	// solves vs cache hits vs coalesced solves), scraped from its /metrics
	// instrumentation; set only on the service_warm_qps metric.
	Phases *onocd.PhaseBreakdown `json:"phases,omitempty"`
}

// benchBERGrid is the tracked sweep grid: the 8 extended schemes × 6 target
// BERs of engine_bench_test.go.
var benchBERGrid = []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7}

// autotunerChain builds the deterministic mutate-one-knob candidate walk of
// the tracked noc_batch metric (mirrors BenchmarkNetworkBatch): each step
// flips one knob — DAC, injection rate, target BER, tile count — so
// neighboring candidates mostly share their per-link solve cells.
func autotunerChain(n int) []photonoc.NoCCandidate {
	dacv := photonoc.PaperDAC()
	tiles, ber, rate, dac := 16, 1e-11, 0.0, false
	chain := make([]photonoc.NoCCandidate, n)
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
		opts := photonoc.NoCEvalOptions{TargetBER: ber, Objective: photonoc.MinEnergy, InjectionRateBitsPerSec: rate}
		if dac {
			opts.DAC = &dacv
		}
		chain[i] = photonoc.NoCCandidate{Topology: photonoc.NoCConfig{Kind: photonoc.NoCCrossbar, Tiles: tiles}, Opts: opts}
	}
	return chain
}

// runBenchJSON measures the tracked metrics and writes the JSON report.
func runBenchJSON(w io.Writer, cfg photonoc.LinkConfig, workers int) error {
	codes := photonoc.ExtendedSchemes()
	ctx := context.Background()

	engineOpts := func(cacheEntries int) []photonoc.Option {
		opts := []photonoc.Option{photonoc.WithConfig(cfg), photonoc.WithCache(cacheEntries)}
		if workers != 0 {
			opts = append(opts, photonoc.WithWorkers(workers))
		}
		return opts
	}

	// Cold sweep: memoization disabled, every iteration re-solves the grid.
	cold, err := photonoc.New(engineOpts(0)...)
	if err != nil {
		return err
	}
	// Warm sweep: the production configuration, cache pre-populated.
	warm, err := photonoc.New(engineOpts(photonoc.DefaultCacheEntries)...)
	if err != nil {
		return err
	}
	if _, err := warm.Sweep(ctx, codes, benchBERGrid); err != nil {
		return err
	}

	ferPlan := ecc.PlanFor(ecc.MustHamming7164())
	bsc, err := bits.NewBSC(1e-3)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	block := bits.New(4096)
	ref := bits.New(4096)

	report := BenchReport{
		Schema:     1,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   fmt.Sprintf("%d schemes x %d target BERs", len(codes), len(benchBERGrid)),
	}
	measure := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		report.Benchmarks = append(report.Benchmarks, BenchMetric{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		})
	}

	var benchErr error
	fail := func(b *testing.B, err error) {
		benchErr = err
		b.FailNow()
	}
	measure("cold_sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cold.Sweep(ctx, codes, benchBERGrid); err != nil {
				fail(b, err)
			}
		}
	})
	measure("warm_sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := warm.Sweep(ctx, codes, benchBERGrid); err != nil {
				fail(b, err)
			}
		}
	})
	measure("fer_inversion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ferPlan.RequiredRawBERForFER(1e-12); err != nil {
				fail(b, err)
			}
		}
	})
	measure("monte_carlo_block", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			bsc.Corrupt(block, rng)
			d, err := block.XorPopCount(ref)
			if err != nil {
				fail(b, err)
			}
			sink += d
		}
		_ = sink
	})
	// The Monte-Carlo validation throughput pair: the tracked mc_throughput
	// metric is the bit-sliced engine at the paper's H(71,64) / p = 1e-3
	// operating point on a single worker; mc_scalar_throughput is the scalar
	// per-frame path on the identical workload — the frozen baseline of the
	// bit-slicing speedup claim.
	const mcFrames = 1 << 16
	mcCode := ecc.MustHamming7164()
	measureMC := func(name string, scalar bool) {
		measure(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mc.Run(ctx, mcCode, 1e-3, mc.Options{
					Frames: mcFrames, Seed: int64(i), Workers: 1, Shards: 1,
					ForceScalar: scalar,
				})
				if err != nil {
					fail(b, err)
				}
				if res.Frames < mcFrames {
					fail(b, fmt.Errorf("mc benchmark ran %d of %d frames", res.Frames, mcFrames))
				}
			}
		})
		m := &report.Benchmarks[len(report.Benchmarks)-1]
		m.FramesPerSec = mcFrames / m.NsPerOp * 1e9
	}
	measureMC("mc_throughput", false)
	measureMC("mc_scalar_throughput", true)

	// Network evaluation: one cold solve of a 16-tile SWMR crossbar —
	// 16 links with distinct loss budgets × the paper's 3 schemes — plus
	// the load/saturation/latency aggregation, through an engine with
	// memoization disabled.
	nocEng, err := photonoc.New(engineOpts(0)...)
	if err != nil {
		return err
	}
	nocTopo := photonoc.NoCConfig{Kind: photonoc.NoCCrossbar, Tiles: 16}
	nocOpts := photonoc.NoCEvalOptions{TargetBER: 1e-11, Objective: photonoc.MinEnergy}
	nocSolves := 16 * len(nocEng.Schemes())
	measure("noc_eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := nocEng.Network(ctx, nocTopo, nocOpts)
			if err != nil {
				fail(b, err)
			}
			if !res.Feasible {
				fail(b, fmt.Errorf("crossbar infeasible: %s", res.InfeasibleReason))
			}
		}
	})
	m := &report.Benchmarks[len(report.Benchmarks)-1]
	m.SolvesPerSec = float64(nocSolves) / m.NsPerOp * 1e9

	// The autotuner workload: a 64-candidate mutate-one-knob chain. The
	// tracked noc_batch metric is the pooled-session batch evaluator in steady
	// state (sessions and memo cache warm); noc_batch_cold is the
	// per-candidate cold evaluation the same chain would cost without it —
	// the frozen baseline of the batch speedup claim.
	chain := autotunerChain(64)
	batchEng, err := photonoc.New(engineOpts(photonoc.DefaultCacheEntries)...)
	if err != nil {
		return err
	}
	if _, err := batchEng.NetworkBatch(ctx, chain); err != nil {
		return err // warm the cache and the session pool unmeasured
	}
	measure("noc_batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := batchEng.NetworkBatch(ctx, chain); err != nil {
				fail(b, err)
			}
		}
	})
	m = &report.Benchmarks[len(report.Benchmarks)-1]
	m.CandidatesPerSec = float64(len(chain)) / m.NsPerOp * 1e9
	measure("noc_batch_cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cand := range chain {
				if _, err := nocEng.Network(ctx, cand.Topology, cand.Opts); err != nil {
					fail(b, err)
				}
			}
		}
	})
	m = &report.Benchmarks[len(report.Benchmarks)-1]
	m.CandidatesPerSec = float64(len(chain)) / m.NsPerOp * 1e9

	// A cold network build at the tile bound: one Network call on a fresh
	// engine over a 512-tile crossbar, whose 512 links differ in length
	// and share one wavelength block (one block plan, 512 link plans and
	// 1,536 cold solves per op).
	wideTopo := photonoc.NoCConfig{Kind: photonoc.NoCCrossbar, Tiles: 512}
	measure("noc_cold_crossbar512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, err := photonoc.New(engineOpts(photonoc.DefaultCacheEntries)...)
			if err != nil {
				fail(b, err)
			}
			if _, err := eng.Network(ctx, wideTopo, nocOpts); err != nil {
				fail(b, err)
			}
		}
	})

	// The tracked autotuner campaign (BenchmarkTune): a seeded 8-particle ×
	// 5-generation swarm over the default design space, warm through the
	// memo cache. The campaign is deterministic, so its front size is a
	// tracked figure alongside the candidate throughput.
	tuneOpts := photonoc.TuneOptions{TargetBER: 1e-11, Seed: 7, Particles: 8, Generations: 5}
	if _, err := batchEng.Tune(ctx, tuneOpts); err != nil {
		return err // warm the cache and the session pool unmeasured
	}
	var tuneFront int
	measure("noc_tune", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := batchEng.Tune(ctx, tuneOpts)
			if err != nil {
				fail(b, err)
			}
			if len(res.Front) == 0 {
				fail(b, fmt.Errorf("noc_tune: empty Pareto front"))
			}
			tuneFront = len(res.Front)
		}
	})
	m = &report.Benchmarks[len(report.Benchmarks)-1]
	m.CandidatesPerSec = float64(tuneOpts.Particles*tuneOpts.Generations) / m.NsPerOp * 1e9
	m.FrontSize = tuneFront
	if benchErr != nil {
		return benchErr
	}

	// Service throughput: a selfhosted onocd daemon under the closed-loop
	// load harness (cmd/onocload), warm phase — the working set (the tracked
	// BER grid) is pre-solved, so the measurement is the serving stack itself:
	// HTTP + JSON + the memo cache under concurrent clients.
	_, hs, base, err := onocd.ListenLocal(onocd.Options{Config: cfg, Workers: workers})
	if err != nil {
		return err
	}
	defer hs.Close()
	client := onocd.NewClient(base)
	makeReq := func(i int) onocd.SweepRequest {
		return onocd.SweepRequest{TargetBERs: []float64{benchBERGrid[i%len(benchBERGrid)]}}
	}
	for i := range benchBERGrid { // warm-up: the cold solves, unmeasured
		if _, err := client.Sweep(ctx, makeReq(i)); err != nil {
			return err
		}
	}
	stats, err := onocd.RunLoad(ctx, client, onocd.LoadOptions{Clients: 8, Requests: 2000, MakeRequest: makeReq})
	if err != nil {
		return err
	}
	if stats.Non2xx > 0 {
		return fmt.Errorf("service_warm_qps: %d of %d requests failed (first: %s)", stats.Non2xx, stats.Requests, stats.FirstError)
	}
	svc := BenchMetric{
		Name:       "service_warm_qps",
		NsPerOp:    float64(stats.P50.Nanoseconds()),
		P99NsPerOp: float64(stats.P99.Nanoseconds()),
		N:          stats.Requests,
		QPS:        stats.QPS,
	}
	if pb, err := onocd.ScrapePhases(ctx, nil, base); err == nil {
		svc.Phases = &pb
	}
	report.Benchmarks = append(report.Benchmarks, svc)

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
