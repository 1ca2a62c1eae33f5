package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
)

// netTestBERs is a small sweep grid spanning the paper's feasibility range.
var netTestBERs = []float64{1e-9, 1e-11}

func newNetEngine(t *testing.T, codes []ecc.Code, opts ...Option) *Engine {
	t.Helper()
	e, err := New(append([]Option{WithConfig(core.DefaultConfig()), WithSchemes(codes...)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDegenerateBusMatchesSingleLinkSweep is the acceptance regression: a
// 1-waveguide-per-reader bus over the paper topology reproduces the
// sequential single-link sweep evaluations and scheme decisions
// exactly, through the engine's network path.
func TestDegenerateBusMatchesSingleLinkSweep(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes)
	cfg := core.DefaultConfig()
	topo := noc.Config{Kind: noc.Bus, Tiles: cfg.Channel.Topo.ONIs}

	results, err := e.NetworkSweep(context.Background(), topo, netTestBERs, noc.EvalOptions{Objective: manager.MinEnergy})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := core.SweepWith(context.Background(), evaluator(t, &cfg), codes, netTestBERs)
	if err != nil {
		t.Fatal(err)
	}
	for b, ber := range netTestBERs {
		// The manager's winner among this BER's sequential evaluations.
		var want *core.Evaluation
		for i := range codes {
			ev := &ref[b*len(codes)+i]
			if !ev.Feasible {
				continue
			}
			if want == nil || manager.Better(ev, want, manager.MinEnergy) {
				want = ev
			}
		}
		if want == nil {
			t.Fatalf("no feasible scheme at BER %g", ber)
		}
		res := results[b]
		if !res.Feasible {
			t.Fatalf("bus network infeasible at BER %g: %s", ber, res.InfeasibleReason)
		}
		for _, d := range res.Decisions {
			if !reflect.DeepEqual(d.Eval, *want) {
				t.Fatalf("BER %g link %d decision differs from the sequential sweep winner:\n%+v\nvs\n%+v", ber, d.Link, d.Eval, *want)
			}
			if d.EnergyPerBitJ != want.EnergyPerBitJ {
				t.Fatalf("BER %g link %d energy %g != single-link %g", ber, d.Link, d.EnergyPerBitJ, want.EnergyPerBitJ)
			}
		}
		if rel := math.Abs(res.ActiveEnergyPerBitJ-want.EnergyPerBitJ) / want.EnergyPerBitJ; rel > 1e-12 {
			t.Fatalf("BER %g active energy/bit off by %g relative", ber, rel)
		}
	}
}

// TestDegenerateBusMatchesNetsimManager ties the network decisions to the
// runtime manager's: on the degenerate bus with the extended roster, over a
// seeded sweep of target BERs (one per decade, 1e-4 … 1e-12), all three
// objectives and DAC resolutions of 4, 6 and 8 bits, every link's scheme,
// DAC code and quantized laser power equal the manager's decision bit for
// bit. A DAC whose full scale is below every laser setting makes both
// refuse: the link is infeasible exactly when the manager fails.
func TestDegenerateBusMatchesNetsimManager(t *testing.T) {
	codes := ecc.ExtendedSchemes()
	e := newNetEngine(t, codes)
	cfg := core.DefaultConfig()
	topo := noc.Config{Kind: noc.Bus, Tiles: cfg.Channel.Topo.ONIs}
	rng := rand.New(rand.NewSource(21))
	decided, refused := 0, 0
	for exp := 4; exp <= 12; exp++ {
		ber := (1 + 9*rng.Float64()) * math.Pow(10, -float64(exp))
		for _, obj := range []manager.Objective{manager.MinPower, manager.MinEnergy, manager.MinLatency} {
			for _, dac := range []manager.DAC{
				{Bits: 4, MaxOpticalW: 700e-6}, {Bits: 6, MaxOpticalW: 700e-6}, {Bits: 8, MaxOpticalW: 700e-6},
				{Bits: 6, MaxOpticalW: 1e-6},
			} {
				mgr, err := manager.NewWithEvaluator(&cfg, codes, dac, evaluator(t, &cfg))
				if err != nil {
					t.Fatal(err)
				}
				dec, mgrErr := mgr.Configure(manager.Requirements{TargetBER: ber, Objective: obj})
				res, err := e.Network(context.Background(), topo, noc.EvalOptions{TargetBER: ber, Objective: obj, DAC: &dac})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("BER %g %v %+v", ber, obj, dac)
				if mgrErr != nil {
					if res.Feasible {
						t.Fatalf("%s: network feasible, manager refused: %v", name, mgrErr)
					}
					refused++
					continue
				}
				if !res.Feasible {
					t.Fatalf("%s: network infeasible (%s), manager picked %s", name, res.InfeasibleReason, dec.Eval.Code.Name())
				}
				decided++
				for _, d := range res.Decisions {
					if d.Eval.Code.Name() != dec.Eval.Code.Name() {
						t.Fatalf("%s: link %d picked %s, manager picked %s", name, d.Link, d.Eval.Code.Name(), dec.Eval.Code.Name())
					}
					if d.DACCode != dec.DACCode {
						t.Fatalf("%s: link %d DAC code %d != manager's %d", name, d.Link, d.DACCode, dec.DACCode)
					}
					if math.Float64bits(d.LaserPowerW) != math.Float64bits(dec.QuantizedLaserPowerW) {
						t.Fatalf("%s: link %d quantized laser %g != manager's %g", name, d.Link, d.LaserPowerW, dec.QuantizedLaserPowerW)
					}
				}
			}
		}
	}
	if decided == 0 || refused == 0 {
		t.Fatalf("the sweep decided %d points and refused %d, want both nonzero", decided, refused)
	}
}

// TestNetworkSweepDeterministicAcrossWorkers runs a ≥64-link topology at
// Workers = 1, 2, 4 and requires identical results (the -race run of this
// test is the race-cleanliness half of the acceptance criterion).
func TestNetworkSweepDeterministicAcrossWorkers(t *testing.T) {
	codes := ecc.PaperSchemes() // shared roster: pointer-identical schemes
	topo := noc.Config{Kind: noc.Crossbar, Tiles: 64}
	opts := noc.EvalOptions{Objective: manager.MinEnergy}

	var ref []noc.Result
	for _, workers := range []int{1, 2, 4} {
		e := newNetEngine(t, codes, WithWorkers(workers))
		res, err := e.NetworkSweep(context.Background(), topo, netTestBERs, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := res[0].Links; n < 64 {
			t.Fatalf("topology has %d links, want ≥ 64", n)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d: network sweep differs from workers=1", workers)
		}
	}
}

// TestNetworkCacheReuseAcrossLinks asserts the cache-reuse half of the
// acceptance criterion: links sharing a compiled plan hit the memo cache instead
// of re-solving. On the degenerate bus all 12 links share the engine's own
// fingerprint, so exactly one cold solve runs per (scheme, BER).
func TestNetworkCacheReuseAcrossLinks(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes, WithWorkers(1)) // sequential: exact accounting
	topo := noc.Config{Kind: noc.Bus, Tiles: core.DefaultConfig().Channel.Topo.ONIs}

	if _, err := e.NetworkSweep(context.Background(), topo, netTestBERs, noc.EvalOptions{Objective: manager.MinEnergy}); err != nil {
		t.Fatal(err)
	}
	stats := e.CacheStats()
	distinct := uint64(len(codes) * len(netTestBERs))
	points := uint64(12 * len(codes) * len(netTestBERs))
	if stats.ColdSolves != distinct {
		t.Fatalf("cold solves %d, want %d (one per distinct key)", stats.ColdSolves, distinct)
	}
	if stats.Hits != points-distinct {
		t.Fatalf("cache hits %d, want %d", stats.Hits, points-distinct)
	}
	if hr := stats.HitRate(); hr < 0.9 {
		t.Fatalf("hit rate %.2f, want ≥ 0.9", hr)
	}

	// A mesh shares plans across rows and columns (and, for the square
	// 8×8, between the two): 128 links collapse to the network's distinct
	// link configurations, so the overwhelming share of solves is served
	// by reuse.
	e2 := newNetEngine(t, codes, WithWorkers(1))
	meshTopo := noc.Config{Kind: noc.Mesh, Tiles: 64}
	net, err := e2.BuildNetwork(meshTopo)
	if err != nil {
		t.Fatal(err)
	}
	fps := make(map[string]bool)
	for _, l := range net.Links() {
		fps[core.Fingerprint(l.Config())] = true
	}
	if len(fps) >= net.NumLinks()/4 {
		t.Fatalf("mesh has %d distinct link configurations for %d links — not enough sharing to test reuse", len(fps), net.NumLinks())
	}
	if _, err := e2.NetworkSweep(context.Background(), meshTopo,
		[]float64{1e-9}, noc.EvalOptions{Objective: manager.MinEnergy}); err != nil {
		t.Fatal(err)
	}
	s2 := e2.CacheStats()
	if s2.ColdSolves != uint64(len(fps)*len(codes)) {
		t.Fatalf("mesh cold solves %d, want %d (one per distinct plan × scheme)", s2.ColdSolves, len(fps)*len(codes))
	}
	if hr := s2.HitRate(); hr < 0.85 {
		t.Fatalf("mesh hit rate %.2f, want ≥ 0.85", hr)
	}
}

// TestNetworkSharesCacheWithSingleLinkSweeps: a single-link sweep primes
// the cache for the degenerate bus — zero additional cold solves.
func TestNetworkSharesCacheWithSingleLinkSweeps(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes, WithWorkers(1))
	if _, err := e.Sweep(context.Background(), nil, netTestBERs); err != nil {
		t.Fatal(err)
	}
	cold := e.CacheStats().ColdSolves
	if _, err := e.NetworkSweep(context.Background(), noc.Config{Kind: noc.Bus, Tiles: 12}, netTestBERs, noc.EvalOptions{Objective: manager.MinEnergy}); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheStats().ColdSolves; after != cold {
		t.Fatalf("network sweep re-solved %d points the single-link sweep already cached", after-cold)
	}
}

// TestNetworkSweepStreamOrderAndParity: the stream yields every BER in grid
// order with results identical to the batch sweep.
func TestNetworkSweepStreamOrderAndParity(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes)
	topo := noc.Config{Kind: noc.Ring, Tiles: 8}
	opts := noc.EvalOptions{Objective: manager.MinEnergy}

	batch, err := e.NetworkSweep(context.Background(), topo, netTestBERs, opts)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for res, err := range e.NetworkSweepStream(context.Background(), topo, netTestBERs, opts) {
		if err != nil {
			t.Fatalf("stream item %d: %v", i, err)
		}
		if res.TargetBER != netTestBERs[i] {
			t.Fatalf("stream item %d has BER %g", i, res.TargetBER)
		}
		if !reflect.DeepEqual(res, batch[i]) {
			t.Fatalf("stream item %d differs from batch", i)
		}
		i++
	}
	if i != len(netTestBERs) {
		t.Fatalf("stream yielded %d results, want %d", i, len(netTestBERs))
	}
}

// TestNetworkSweepCancellation: a canceled context surfaces as the stream's
// terminal error and aborts the batch call.
func TestNetworkSweepCancellation(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes)
	topo := noc.Config{Kind: noc.Crossbar, Tiles: 16}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := e.NetworkSweep(ctx, topo, netTestBERs, noc.EvalOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch sweep error = %v, want context.Canceled", err)
	}
	var last error
	for _, err := range e.NetworkSweepStream(ctx, topo, netTestBERs, noc.EvalOptions{}) {
		last = err
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("stream terminal error = %v, want context.Canceled", last)
	}
}

// TestNetworkInvalidInputs: boundary validation wraps the typed errors.
func TestNetworkInvalidInputs(t *testing.T) {
	e := newNetEngine(t, ecc.PaperSchemes())
	topo := noc.Config{Kind: noc.Bus, Tiles: 12}
	if _, err := e.Network(context.Background(), topo, noc.EvalOptions{TargetBER: 0.7}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("BER 0.7 error = %v, want ErrInvalidInput", err)
	}
	if _, err := e.NetworkSweep(context.Background(), topo, nil, noc.EvalOptions{}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("empty grid error = %v, want ErrInvalidInput", err)
	}
	if _, err := e.NetworkSweep(context.Background(), noc.Config{Kind: noc.Ring, Tiles: 99}, netTestBERs, noc.EvalOptions{}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("oversized ring error = %v, want ErrInvalidConfig", err)
	}
	bad := noc.EvalOptions{Traffic: noc.UniformMatrix(5)}
	if _, err := e.NetworkSweep(context.Background(), topo, netTestBERs, bad); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("wrong-shape traffic error = %v, want ErrInvalidInput", err)
	}
}

// TestNetworkTraceDrivenMatrix: a recorded netsim trace feeds the network
// evaluator through Trace.Matrix.
func TestNetworkTraceDrivenMatrix(t *testing.T) {
	simCfg := netsim.DefaultConfig()
	simCfg.Messages = 2000
	tr, err := netsim.RecordTraceCtx(context.Background(), simCfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tr.Matrix(simCfg.Link.Channel.Topo.ONIs)
	if err != nil {
		t.Fatal(err)
	}
	e := newNetEngine(t, ecc.PaperSchemes())
	res, err := e.Network(context.Background(), noc.Config{Kind: noc.Bus, Tiles: 12},
		noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, Traffic: noc.Matrix(m)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("trace-driven network infeasible: %s", res.InfeasibleReason)
	}
	if res.DeliveredBitsPerSec <= 0 {
		t.Error("trace-driven network delivers nothing")
	}
}

// TestNetworkCallsShareNoState: a session carries no solved cells from one
// candidate to the next, so on a cache-disabled engine two identical
// Network or SimulateNetwork calls re-solve every cell, and a batch of two
// identical candidates cold-solves both: the memo is the only reuse.
func TestNetworkCallsShareNoState(t *testing.T) {
	e := newNetEngine(t, ecc.PaperSchemes(), WithCache(0), WithWorkers(1))
	ctx := context.Background()
	topo := noc.Config{Kind: noc.Mesh, Tiles: 16, Columns: 4}
	opts := noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy}
	coldOf := func(call func() error) uint64 {
		t.Helper()
		before := e.CacheStats().ColdSolves
		if err := call(); err != nil {
			t.Fatal(err)
		}
		return e.CacheStats().ColdSolves - before
	}
	network := func() error {
		_, err := e.Network(ctx, topo, opts)
		return err
	}
	simulate := func() error {
		_, err := e.SimulateNetwork(ctx, topo, NetworkSimOptions{TargetBER: opts.TargetBER, Objective: opts.Objective, Messages: 500, Seed: 1})
		return err
	}
	for name, call := range map[string]func() error{"Network": network, "SimulateNetwork": simulate} {
		first, second := coldOf(call), coldOf(call)
		if first == 0 || first != second {
			t.Errorf("%s: cold solves %d then %d, want the same nonzero count", name, first, second)
		}
	}
	one := coldOf(network)
	cand := NetworkCandidate{Topology: topo, Opts: opts}
	batch := coldOf(func() error {
		_, err := e.NetworkBatch(ctx, []NetworkCandidate{cand, cand})
		return err
	})
	if batch != 2*one {
		t.Errorf("a batch of two identical candidates ran %d cold solves, want %d", batch, 2*one)
	}
}

// TestNetworkWarmAllocs pins the warm Network path: one pooled session,
// every cell a cache hit, and only the detached Result allocated.
func TestNetworkWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled sessions at random under -race")
	}
	e := newNetEngine(t, ecc.PaperSchemes())
	ctx := context.Background()
	topo := noc.Config{Kind: noc.Mesh, Tiles: 16, Columns: 4}
	opts := noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy}
	run := func() {
		if _, err := e.Network(ctx, topo, opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: builds, compiles and caches the mesh
	if allocs := testing.AllocsPerRun(200, run); allocs > 8 {
		t.Errorf("warm Network allocated %.1f times per call, want ≤ 8", allocs)
	}
}

// TestNetworkSweepStreamMidCancellation: a long BER grid whose first BER
// is cached and whose every other BER blocks in its cold solves until
// cancellation; cancelling after the first delivered result must end the
// stream early with a Canceled item.
func TestNetworkSweepStreamMidCancellation(t *testing.T) {
	o := &blockingObserver{}
	e := newNetEngine(t, ecc.PaperSchemes(), WithWorkers(4), WithObserver(o))
	topo := noc.Config{Kind: noc.Ring, Tiles: 8}
	bers := make([]float64, 40)
	for i := range bers {
		bers[i] = 1e-11 * float64(i+1)
	}
	if _, err := e.Network(context.Background(), topo, noc.EvalOptions{TargetBER: bers[0]}); err != nil {
		t.Fatal(err)
	}
	o.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	var terminal error
	for _, err := range e.NetworkSweepStream(ctx, topo, bers, noc.EvalOptions{}) {
		if err != nil {
			terminal = err
			break
		}
		delivered++
		if delivered == 1 {
			cancel()
		}
	}
	if delivered >= len(bers) {
		t.Fatalf("cancellation did not stop the sweep: %d/%d delivered", delivered, len(bers))
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Errorf("terminal stream error = %v, want context.Canceled", terminal)
	}
}

// TestNetworkSweepStreamEarlyBreak: breaking out of a network sweep stream
// stops it at once: a fresh engine has made exactly the cold solves of the
// first BER's evaluation.
func TestNetworkSweepStreamEarlyBreak(t *testing.T) {
	topo := noc.Config{Kind: noc.Ring, Tiles: 8}
	ref := newNetEngine(t, ecc.PaperSchemes())
	if _, err := ref.Network(context.Background(), topo, noc.EvalOptions{TargetBER: netTestBERs[0]}); err != nil {
		t.Fatal(err)
	}
	want := ref.CacheStats().ColdSolves
	e := newNetEngine(t, ecc.PaperSchemes(), WithWorkers(4))
	if cold := breakAfterFirst(t, e, e.NetworkSweepStream(context.Background(), topo, netTestBERs, noc.EvalOptions{})); cold != want {
		t.Fatalf("%d cold solves after breaking at the first BER, want the first evaluation's %d", cold, want)
	}
}
