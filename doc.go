// Package photonoc reproduces "Energy and Performance Trade-off in
// Nanophotonic Interconnects using Coding Techniques" (Killian, Chillet,
// Le Beux, Sentieys, Pham, O'Connor — DAC 2017) as a self-contained Go
// library.
//
// The paper's idea: adding a cheap Hamming code in the electrical domain
// relaxes the SNR an optical network-on-chip link needs for a target BER,
// so the on-chip laser — the dominant, thermally-degraded power consumer —
// can be driven at roughly half the power, at the price of a longer
// transmission (CT = n/k).
//
// # The Engine API
//
// The package's entry point is the Engine: a concurrent, memoizing solver
// over one link configuration and one scheme roster, built with functional
// options:
//
//	eng, err := photonoc.New(
//		photonoc.WithConfig(photonoc.DefaultConfig()),
//		photonoc.WithSchemes(photonoc.PaperSchemes()...),
//		photonoc.WithWorkers(4),
//		photonoc.WithCache(1024),
//	)
//	if err != nil { ... }
//
//	// Batch: fan (scheme × BER) points across the worker pool; results
//	// arrive in deterministic order, identical to the sequential path.
//	evs, err := eng.Sweep(ctx, nil, []float64{1e-9, 1e-11})
//
//	// Streaming: render incrementally as points are solved.
//	for r := range eng.SweepStream(ctx, nil, bers) {
//		if r.Err != nil { ... }
//		fmt.Println(r.Evaluation.Code.Name(), r.Evaluation.LaserPowerW)
//	}
//
//	// Runtime manager and traffic simulator share the Engine's cache.
//	mgr, err := eng.Manager(photonoc.PaperDAC())
//	res, err := eng.Simulate(ctx, photonoc.DefaultSimConfig())
//
// Solved operating points are memoized in an LRU cache keyed by
// (configuration fingerprint, scheme, target BER), so repeated manager
// decisions and overlapping sweeps never re-solve the optical budget.
// All Engine calls take a context and honor cancellation; API-boundary
// failures are typed (ErrInvalidConfig, ErrInvalidInput, ErrInfeasible).
//
// There is one solver and one form per experiment. LinkConfig.Compile
// yields the Compiled pipeline every solve runs through; its Evaluator is
// the sequential, uncached reference the Engine is tested against. Each of
// the paper's experiments is a function of an Evaluator — Fig5With,
// Fig6aWith, TradeoffPlaneWith, HeadlineWith, EnergySweepWith,
// BestEnergySchemeByBERWith, ParetoByBER — so passing an Engine runs it
// over the shared cache:
//
//	cfg := eng.Config()
//	h, err := photonoc.HeadlineWith(ctx, eng, &cfg, 1e-11)
//
// # Monte-Carlo validation
//
// The analytic models are cross-checked by direct simulation through the
// bit-sliced Monte-Carlo engine (internal/mc): 64 independent frames are
// transposed into lane-major []uint64 words — sliced word i carries
// codeword bit i of all 64 frames — so each XOR/AND/popcount of the
// BSC → decode loop advances 64 trials at once. Every frame sends the
// all-zero codeword: for these linear codes the decoded data error depends
// on the error pattern alone, so no payload is drawn or encoded. Channel
// errors are drawn by bits.BSC's geometric gap sampling (O(expected flips),
// one ziggurat exponential per flip) and nonzero syndromes resolved by a dense
// table lookup per frame when few, or for all 64 frames at once by syndrome
// minterms when many. Codes without a sliced kernel (BCH) run
// on a scalar per-frame fallback through the same harness.
//
//	// One operating point: H(71,64) at raw flip probability 1e-3,
//	// 10M frames, stop early at 2% relative FER precision.
//	res, err := eng.ValidateMC(ctx, photonoc.Hamming7164(), 1e-3,
//		photonoc.MCOptions{Frames: 10_000_000, TargetRelErr: 0.02, Seed: 1})
//	fmt.Println(res.BER, res.BERLow, res.BERHigh, res.FramesPerSec)
//
//	// A whole validation grid through the sweep worker pool.
//	grid, err := eng.ValidateGrid(ctx, nil, []float64{1e-2, 1e-3},
//		photonoc.MCOptions{Frames: 1_000_000, Seed: 1})
//
// Runs are deterministic by construction: the volume is split over
// independent per-shard RNG streams derived from the root seed, so a fixed
// (Seed, Shards) pair reproduces the exact counts regardless of the Workers
// setting; early stopping and streamed Progress snapshots act on aggregate
// counts at round barriers, inside the same contract. The trade-off against
// the analytic plans: plans are instant and exact for frame error rates of
// bounded-distance decoders, while ValidateMC measures the true decoder
// (miscorrection, detection) with Wilson confidence intervals at tens of
// millions of frames per second per core.
//
// # The network layer
//
// internal/noc scales the single calibrated channel to whole topologies —
// the network-level evaluation the paper defers to future work. A
// NoCConfig names a topology family (bus, crossbar, ring, mesh) and a tile
// count; Engine.BuildNetwork compiles it into links with per-link waveguide
// lengths (distinct loss budgets), a wavelength-allocation pass that
// partitions the shared WavelengthGrid so no wavelength is reused on a
// shared waveguide, and a routing table covering every (src, dst) pair:
//
//	topo := photonoc.NoCConfig{Kind: photonoc.NoCMesh, Tiles: 64}
//	res, err := eng.Network(ctx, topo, photonoc.NoCEvalOptions{
//		TargetBER: 1e-11, Objective: photonoc.MinEnergy,
//	})
//	fmt.Println(res.SchemeUse, res.EnergyPerBitJ, res.P99LatencySec)
//
//	// Batch and streaming BER sweeps, deterministic across worker counts.
//	results, err := eng.NetworkSweep(ctx, topo, bers, opts)
//	for r := range eng.NetworkSweepStream(ctx, topo, bers, opts) { ... }
//
// Network and SimulateNetwork solve every (link, scheme) cell on the
// caller's goroutine, on a pooled, freshly invalidated NoCSession;
// NetworkSweep hands its BERs to the Engine's worker pool one at a time.
// Cells are keyed in the LRU by the link's configuration
// fingerprint — links sharing a compiled plan (every bus link, every
// repeated mesh position) reuse each other's solves. Scheme selection per link follows the runtime
// manager's rule exactly, and a 1-waveguide bus over the paper topology
// reproduces the single-link sweep bit for bit. Traffic matrices come from
// the netsim patterns (Pattern.Matrix) or recorded traces (Trace.Matrix);
// the aggregation derives per-link utilization, saturation throughput
// (bisection over the injection rate), M/D/1 latency percentiles and the
// network energy budget with standing lasers and activity-scaled
// modulator/interface power.
//
// The analytic aggregates are cross-validated by the network-scale
// discrete-event simulator, Engine.SimulateNetwork: Poisson injection
// sampled from the same traffic matrix, XY multi-hop forwarding over the
// same routing table, one MWSR server per link serializing transfers at
// the link's decided capacity, with token arbitration and waveguide
// flight charged per hop as pipeline latency. The per-link scheme/DAC
// decisions ARE the analytic evaluator's, solved through the shared LRU,
// so they are bit-identical to the analytic Result's; the simulation core
// is sequential and seeded, so a fixed seed reproduces every count and
// percentile across runs and across Worker counts.
//
//	sim, err := eng.SimulateNetwork(ctx, topo, photonoc.NoCSimOptions{
//		TargetBER: 1e-11, Objective: photonoc.MinEnergy,
//		Messages: 100000, Seed: 1, // rate 0 = half the analytic saturation
//	})
//	fmt.Println(sim.MeanLatencySec, sim.P99LatencySec, sim.Dropped)
//
// On the degenerate uniform bus at half saturation the two agree to
// within 1% utilization and well under 10% mean latency (the pinned
// cross-validation test); past the analytic saturation rate the DES shows
// what the Saturated flag means — queues growing without bound, or a
// measured drop rate under MaxQueueDepth-bounded buffers — and its p99
// exposes the contention tail the per-pair M/D/1 fold cannot see. See
// examples/noccontention for the whole sweep.
//
// # The autotuner fast path
//
// Design-space search evaluates long chains of neighboring candidates —
// each step mutates one knob and keeps the rest. Three layers make that
// workload cheap. A NoCEvalSession owns every buffer the noc-layer
// Decide/Aggregate pass needs, so a warmed session evaluation allocates
// nothing (pinned by an allocation-regression test and a CI gate). A
// NoCSession (Engine.NewNetworkSession) adds incremental re-evaluation: it
// diffs each candidate's links against the previous candidate by
// configuration fingerprint and re-solves only changed (link, scheme, BER)
// cells, copying the rest forward without touching the cache
// (CacheStats.SessionReuses counts them) — bit-identical to a cold
// evaluation by construction, property-tested across topology kinds and
// mutation sequences. Engine.NetworkBatch / NetworkBatchStream split a
// []NoCCandidate population into contiguous chunks on the worker pool, one
// pooled session per chunk, so each session sees neighbors, returning deep-copied
// results in population order, deterministic across worker counts:
//
//	cands := []photonoc.NoCCandidate{
//		{Topology: topo, Opts: photonoc.NoCEvalOptions{TargetBER: 1e-11}},
//		{Topology: topo, Opts: photonoc.NoCEvalOptions{TargetBER: 1e-9}},
//	}
//	results, err := eng.NetworkBatch(ctx, cands)
//
// Engine.NetworkBatchEach runs the same batch without the copies: it hands
// each session-owned result to a visitor, valid only during that call.
//
// The tracked noc_batch metric in BENCH_cold_sweep.json pins the speedup
// (~5.8x over per-candidate cold evaluation on a 64-candidate
// mutate-one-knob chain); POST /v1/noc/batch serves the same path over
// NDJSON through the daemon.
//
// # Autotuner campaigns
//
// Engine.Tune closes the search loop over that fast path: a deterministic
// multi-objective particle swarm (Clerc constriction PSO) over the joint
// design space — topology family, tile count, mesh shape, wavelength
// budget, scheme-roster subset, DAC resolution — archived as a bounded
// Pareto front over (energy/bit, p99 latency, saturation throughput) with
// crowding-distance pruning:
//
//	res, err := eng.Tune(ctx, photonoc.TuneOptions{
//		TargetBER: 1e-11, Seed: 7, Particles: 8, Generations: 10,
//	})
//	for _, p := range res.Front {
//		fmt.Println(p.Spec.String(), p.EnergyPerBitJ, p.P99LatencySec)
//	}
//
// Each generation evaluates the whole swarm as one Engine.NetworkBatchEach
// population, so neighboring particles ride the incremental sessions.
// Campaigns are bit-identical across Engine worker counts from the root
// seed; infeasible candidates are counted and skipped, never fatal; and
// every archived point's Spec rebuilds a candidate whose independent
// Engine.Network evaluation reproduces its metrics exactly. cmd/onoctune
// drives campaigns from the command line (table or JSON, locally or
// against a daemon), and POST /v1/noc/tune streams one front snapshot per
// generation as NDJSON, resumable via ?start_index.
//
// # Performance model
//
// Solves come in two costs. A warm solve is an LRU cache hit (microseconds).
// A cold solve runs the physics through a precompute-then-evaluate pipeline
// compiled once per configuration generation: each code's FER plan
// (ln C(n,i) precomputed per plan, incremental binomial-tail recurrence,
// Newton inversion with the analytic d lnBER/d lnp; the codes of
// ExtendedSchemes share one constant scheme table, built once per process
// with their plans attached, which ecc.PlanFor hands out by identity; the
// Engine keeps one plan per scheme), each channel's LinkPlan
// (onoc — per-wavelength budget, crosstalk and eye fraction snapshotted, one
// laser inversion for the worst wavelength only), bundled by
// core.LinkConfig.Compile and held by the Engine. Engine.CacheStats reports
// cold-solve counts and cumulative timing next to the hit/miss accounting.
// The planned inversions agree with the historical bisection to better
// than 1e-12 relative. BENCH_cold_sweep.json tracks the measured trajectory
// (regenerate with `onocbench -json`); see README "Performance model".
//
// # Subsystems
//
// The package is a façade over the internal subsystems:
//
//   - internal/engine     — the concurrent batch evaluator: sweeps, batches,
//     LRU memo cache, typed errors (the machinery behind Engine)
//   - internal/fanout     — the one worker pool: contiguous chunks claimed
//     in index order by a bounded set of goroutines, first error cancels
//     the rest
//   - internal/mc         — the bit-sliced Monte-Carlo validation engine:
//     sharded deterministic RNG streams, streaming Wilson intervals
//     (the machinery behind ValidateMC / ValidateGrid)
//   - internal/ecc        — Hamming(7,4), shortened Hamming(71,64), SECDED,
//     BCH, repetition and parity codes with the paper's BER models (Eq. 1-3)
//   - internal/photonics  — micro-ring (Fig. 3) and thermally-limited VCSEL
//     (Fig. 4) device models
//   - internal/onoc       — the MWSR channel: link budget, crosstalk and the
//     minimum-laser-power solver (Eq. 4)
//   - internal/core       — the joint ECC + laser-power configurator and the
//     experiment harnesses for Figures 5, 6a, 6b
//   - internal/synth      — gate-level netlists, timing and power of the
//     electrical interfaces (Table I)
//   - internal/serdes     — the bit-true encode/serialize/decode path
//   - internal/noise      — analog OOK channel and importance-sampled BER
//     validation (the coded Monte-Carlo path runs on internal/mc)
//   - internal/manager    — the runtime link manager with its laser DAC
//     (Choose and Program also decide every link and simulated transfer)
//   - internal/netsim     — the discrete-event traffic simulator: one event
//     loop with per-link hold and pipeline constants runs both the single
//     calibrated link, deciding every transfer from a roster solved once
//     (the paper's future-work evaluation), and whole networks with static
//     per-link decisions, which cross-validate the analytic aggregates
//     (Engine.SimulateNetwork); generated network runs overlap trace
//     generation with the sequential loop, with the results (and the
//     seeded determinism) of recording the trace and then replaying it
//   - internal/noc        — network-scale topologies (bus, crossbar, ring,
//     mesh): wavelength allocation, routing, traffic-matrix aggregation
//     (the machinery behind Engine.Network / NetworkSweep)
//   - internal/tune       — the design-space autotuner: deterministic
//     multi-objective PSO over topology × code × DAC with a
//     crowding-pruned Pareto archive (the machinery behind Engine.Tune,
//     cmd/onoctune and POST /v1/noc/tune)
//   - internal/onocd      — the HTTP/JSON serving layer (cmd/onocd): wire
//     DTOs over the Engine, a Go client that is itself a core.Evaluator,
//     and the closed-loop load generator (cmd/onocload); the daemon adds
//     admission control, per-request deadlines, cold solves coalesced in
//     the sharded LRU, Prometheus-text metrics and SIGHUP hot
//     reload; the client retries retryable failures with backoff behind a
//     circuit breaker and resumes interrupted NDJSON streams via
//     ?start_index
//   - internal/apierr     — typed-error ↔ stable JSON error envelope and
//     HTTP status mapping, shared by the daemon and the client
//   - internal/resilience — context-aware retry with capped exponential
//     backoff and full jitter, plus a three-state circuit breaker
//   - internal/faultinject — deterministic seeded fault injection (latency,
//     429/503 envelopes, connection resets, mid-stream truncation) behind
//     onocd -fault-rate and the onocload chaos gates
//   - internal/obs        — the telemetry layer: structured logging on
//     log/slog, W3C trace-context propagation (traceparent parse/generate,
//     request-scoped spans), and per-request engine-work attribution; the
//     daemon threads it through access logs, /metrics and /statusz, the
//     client joins its retry logs to the daemon's by trace ID, and the
//     engine's Observer seam (WithObserver) feeds it without allocating
//     when unused
//
// The benchmark harness in bench_test.go regenerates every table and figure
// of the paper; engine_bench_test.go compares the sequential and concurrent
// sweep paths. See README.md for a quickstart and the migration guide.
package photonoc
