package netsim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// buildNetwork compiles a topology over the paper configuration and solves
// its per-link decisions sequentially — the engine-free reference path the
// simulator tests run on.
func buildNetwork(t testing.TB, kind noc.Kind, tiles int, ber float64) (*noc.Network, []noc.LinkDecision, noc.EvalOptions) {
	t.Helper()
	net, err := noc.Build(noc.Config{Kind: kind, Tiles: tiles, Base: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	schemes := ecc.PaperSchemes()
	evals := make([][]core.Evaluation, net.NumLinks())
	for i, l := range net.Links() {
		cfg := l.Config()
		c, err := cfg.Compile()
		if err != nil {
			t.Fatal(err)
		}
		evals[i] = make([]core.Evaluation, len(schemes))
		for s, code := range schemes {
			ev, err := c.Evaluate(code, ber)
			if err != nil {
				t.Fatal(err)
			}
			evals[i][s] = ev
		}
	}
	opts := noc.EvalOptions{TargetBER: ber, Objective: manager.MinEnergy}
	decisions, err := noc.NewEvalSession().Decide(net, evals, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range decisions {
		if !decisions[i].Feasible {
			t.Fatalf("link %d infeasible: %s", i, decisions[i].InfeasibleReason)
		}
	}
	return net, decisions, opts
}

// saturationRate reads the analytic saturation injection rate of the built
// decision set.
func saturationRate(t testing.TB, net *noc.Network, decisions []noc.LinkDecision, opts noc.EvalOptions) float64 {
	t.Helper()
	res, err := noc.NewEvalSession().Aggregate(net, decisions, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.SaturationInjectionBitsPerSec
}

// TestRunNetworkReplaysRecordedTrace pins the Run = Record + Replay
// contract: a recorded trace replays to bit-identical results.
func TestRunNetworkReplaysRecordedTrace(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Bus, 12, 1e-11)
	cfg := NetConfig{
		Net:                     net,
		Decisions:               decisions,
		InjectionRateBitsPerSec: 0.4 * saturationRate(t, net, decisions, opts),
		Messages:                3000,
		Seed:                    7,
	}
	ctx := context.Background()
	direct, err := RunNetwork(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordNetworkTrace(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunNetworkTrace(ctx, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, replayed) {
		t.Fatal("trace replay differs from the direct run")
	}
	// Replay does not need the workload-generation fields: the trace
	// carries its own arrival times, destinations and payload sizes.
	bare, err := RunNetworkTrace(ctx, NetConfig{Net: net, Decisions: decisions}, tr)
	if err != nil {
		t.Fatalf("replay with zero generation fields rejected: %v", err)
	}
	if !reflect.DeepEqual(direct, bare) {
		t.Fatal("generation-only fields leaked into the replay results")
	}
	if direct.Messages != int64(cfg.Messages) || direct.Dropped != 0 {
		t.Fatalf("delivered %d / dropped %d of %d messages with unbounded queues",
			direct.Messages, direct.Dropped, cfg.Messages)
	}
}

// TestNetworkDeterministicAcrossRuns: a fixed seed reproduces every field
// of the results, event counts and percentiles included.
func TestNetworkDeterministicAcrossRuns(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Mesh, 16, 1e-11)
	cfg := NetConfig{
		Net:                     net,
		Decisions:               decisions,
		InjectionRateBitsPerSec: 0.6 * saturationRate(t, net, decisions, opts),
		Messages:                5000,
		Seed:                    42,
	}
	ref, err := RunNetwork(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		res, err := RunNetwork(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("run %d differs from the first run with the same seed", run+2)
		}
	}
	// A different seed must actually change the workload.
	cfg.Seed = 43
	other, err := RunNetwork(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.MeanLatencySec == ref.MeanLatencySec && other.SimTimeSec == ref.SimTimeSec {
		t.Fatal("changing the seed changed nothing — the RNG is not wired through")
	}
}

// TestNetworkMultiHopForwarding: on a mesh, off-row/off-column pairs cross
// two links, and the simulator's mean hop count matches Network.Route's
// traffic-weighted mean exactly on a permutation workload.
func TestNetworkMultiHopForwarding(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Mesh, 16, 1e-11)
	// Deterministic single-destination rows: tile s → tile (s+5)%16, which
	// crosses rows AND columns for most pairs.
	traffic := make(noc.Matrix, 16)
	for s := range traffic {
		traffic[s] = make([]float64, 16)
		traffic[s][(s+5)%16] = 1
	}
	wantHops := 0.0
	for s := 0; s < 16; s++ {
		route, err := net.Route(s, (s+5)%16)
		if err != nil {
			t.Fatal(err)
		}
		wantHops += float64(len(route)) / 16
	}
	res, err := RunNetwork(context.Background(), NetConfig{
		Net:                     net,
		Decisions:               decisions,
		Traffic:                 traffic,
		InjectionRateBitsPerSec: 0.3 * saturationRate(t, net, decisions, opts),
		Messages:                4000,
		Seed:                    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanHops-wantHops) > 0.02 {
		t.Fatalf("mean hops %.3f, Network.Route says %.3f", res.MeanHops, wantHops)
	}
	if res.MeanHops <= 1 {
		t.Fatalf("mean hops %.3f — no multi-hop traffic on a permutation mesh workload", res.MeanHops)
	}
}

// TestNetworkBoundedQueuesDrop: a 1-deep buffer under heavy load drops
// messages and never reports an occupancy above the bound.
func TestNetworkBoundedQueuesDrop(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Bus, 12, 1e-11)
	res, err := RunNetwork(context.Background(), NetConfig{
		Net:                     net,
		Decisions:               decisions,
		InjectionRateBitsPerSec: 0.95 * saturationRate(t, net, decisions, opts),
		Messages:                5000,
		Seed:                    3,
		MaxQueueDepth:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("no drops at 95% load with a 1-deep buffer")
	}
	if res.Messages+res.Dropped != res.Injected {
		t.Fatalf("delivered %d + dropped %d != injected %d", res.Messages, res.Dropped, res.Injected)
	}
	var perLinkDrops int64
	for _, l := range res.PerLink {
		perLinkDrops += l.Drops
		if l.MaxQueueDepth > 1 {
			t.Fatalf("link %d reached occupancy %d with a 1-deep bound", l.Link, l.MaxQueueDepth)
		}
	}
	if perLinkDrops != res.Dropped {
		t.Fatalf("per-link drops sum to %d, total says %d", perLinkDrops, res.Dropped)
	}

	// Multi-hop overload: messages served on a row link and then dropped
	// at the column link can finish transmitting after the last delivery.
	// The horizon must cover them, so no link ever reports a busy fraction
	// above 1.
	mesh, meshDecisions, meshOpts := buildNetwork(t, noc.Mesh, 16, 1e-11)
	over, err := RunNetwork(context.Background(), NetConfig{
		Net:                     mesh,
		Decisions:               meshDecisions,
		InjectionRateBitsPerSec: 1.5 * saturationRate(t, mesh, meshDecisions, meshOpts),
		Messages:                8000,
		Seed:                    6,
		MaxQueueDepth:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if over.Dropped == 0 {
		t.Fatal("no drops on an overloaded mesh with 2-deep buffers")
	}
	for _, l := range over.PerLink {
		if l.Utilization > 1 {
			t.Fatalf("link %d utilization %g > 1 — horizon clipped at the last delivery", l.Link, l.Utilization)
		}
	}
}

// TestNetworkSaturationGrowsQueues is the overload half of the acceptance
// criterion: above the analytic saturation rate the DES is not in steady
// state — doubling the horizon roughly doubles the backlog and the mean
// wait — while below saturation both are horizon-independent.
func TestNetworkSaturationGrowsQueues(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Bus, 12, 1e-11)
	sat := saturationRate(t, net, decisions, opts)

	run := func(rate float64, messages int) NetResults {
		t.Helper()
		res, err := RunNetwork(context.Background(), NetConfig{
			Net:                     net,
			Decisions:               decisions,
			InjectionRateBitsPerSec: rate,
			Messages:                messages,
			Seed:                    11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The analytic model flags the overload...
	over, err := noc.NewEvalSession().Aggregate(net, decisions, noc.EvalOptions{
		TargetBER: opts.TargetBER, Objective: opts.Objective,
		InjectionRateBitsPerSec: 1.3 * sat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !over.Saturated || !math.IsInf(over.MeanLatencySec, 1) {
		t.Fatalf("analytic model not saturated at 1.3× its own saturation rate (saturated=%v, mean=%g)",
			over.Saturated, over.MeanLatencySec)
	}

	// ...and the simulator shows what the flag means: unbounded growth.
	short, long := run(1.3*sat, 10000), run(1.3*sat, 20000)
	if ratio := long.MeanQueueWaitSec / short.MeanQueueWaitSec; ratio < 1.5 {
		t.Fatalf("mean wait grew only %.2f× when the overload horizon doubled — queues look bounded", ratio)
	}
	maxDepth := func(r NetResults) int {
		out := 0
		for _, l := range r.PerLink {
			if l.MaxQueueDepth > out {
				out = l.MaxQueueDepth
			}
		}
		return out
	}
	if d1, d2 := maxDepth(short), maxDepth(long); d2 < d1*3/2 {
		t.Fatalf("max queue depth grew %d → %d over a doubled overload horizon — queues look bounded", d1, d2)
	}

	// Below saturation the same doubling leaves the wait statistics flat.
	stableShort, stableLong := run(0.5*sat, 10000), run(0.5*sat, 20000)
	if ratio := stableLong.MeanQueueWaitSec / stableShort.MeanQueueWaitSec; ratio > 1.3 || ratio < 0.7 {
		t.Fatalf("mean wait changed %.2f× with the horizon at half load — not steady state", ratio)
	}
}

// TestNetworkEnergyMatchesHandComputation re-derives the energy split from
// the per-link utilizations the run itself reports.
func TestNetworkEnergyMatchesHandComputation(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Crossbar, 8, 1e-11)
	res, err := RunNetwork(context.Background(), NetConfig{
		Net:                     net,
		Decisions:               decisions,
		InjectionRateBitsPerSec: 0.5 * saturationRate(t, net, decisions, opts),
		Messages:                3000,
		Seed:                    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var laser, mod, intf float64
	for i, l := range net.Links() {
		nw := float64(len(l.Lambdas))
		busy := res.PerLink[i].Utilization * res.SimTimeSec
		laser += decisions[i].LaserPowerW * nw * res.SimTimeSec
		cfg := l.Config()
		mod += cfg.ModulatorPowerW * nw * busy
		intf += cfg.InterfacePowerFor(decisions[i].Eval.Code).TotalW() * busy
	}
	for _, pair := range [][2]float64{{laser, res.LaserEnergyJ}, {mod, res.ModulatorEnergyJ}, {intf, res.InterfaceEnergyJ}} {
		if rel := math.Abs(pair[0]-pair[1]) / pair[1]; rel > 1e-9 {
			t.Fatalf("energy component off by %g relative (want %g, got %g)", rel, pair[0], pair[1])
		}
	}
	if got, want := res.TotalEnergyJ, res.LaserEnergyJ+res.ModulatorEnergyJ+res.InterfaceEnergyJ; got != want {
		t.Fatalf("total energy %g != sum of components %g", got, want)
	}
}

// TestNetworkConfigValidation walks the rejection paths.
func TestNetworkConfigValidation(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Bus, 12, 1e-11)
	rate := 0.4 * saturationRate(t, net, decisions, opts)
	good := NetConfig{Net: net, Decisions: decisions, InjectionRateBitsPerSec: rate, Messages: 100, Seed: 1}

	cases := []struct {
		name   string
		mutate func(*NetConfig)
	}{
		{"nil network", func(c *NetConfig) { c.Net = nil }},
		{"decision count", func(c *NetConfig) { c.Decisions = decisions[:3] }},
		{"infeasible link", func(c *NetConfig) {
			bad := append([]noc.LinkDecision(nil), decisions...)
			bad[2].Feasible = false
			c.Decisions = bad
		}},
		{"zero rate", func(c *NetConfig) { c.InjectionRateBitsPerSec = 0 }},
		{"NaN rate", func(c *NetConfig) { c.InjectionRateBitsPerSec = math.NaN() }},
		{"negative messages", func(c *NetConfig) { c.Messages = -1 }},
		{"messages above the bound", func(c *NetConfig) { c.Messages = MaxMessages + 1 }},
		{"negative message bits", func(c *NetConfig) { c.MessageBits = -8 }},
		{"negative queue bound", func(c *NetConfig) { c.MaxQueueDepth = -1 }},
		{"wrong traffic shape", func(c *NetConfig) { c.Traffic = noc.UniformMatrix(5) }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		if _, err := RunNetwork(context.Background(), cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := RunNetwork(context.Background(), good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestNetworkCancellation: a canceled context aborts both generation and
// the event loop.
func TestNetworkCancellation(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Bus, 12, 1e-11)
	cfg := NetConfig{
		Net:                     net,
		Decisions:               decisions,
		InjectionRateBitsPerSec: 0.4 * saturationRate(t, net, decisions, opts),
		Messages:                5000,
		Seed:                    1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunNetwork(ctx, cfg); err == nil {
		t.Fatal("canceled run reported no error")
	}
	tr, err := RecordNetworkTrace(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNetworkTrace(ctx, cfg, tr); err == nil {
		t.Fatal("canceled replay reported no error")
	}
}

// benchNetworks runs bench on the DES benchmarks' configurations: 20k
// messages at half the analytic saturation rate through one single-hop
// shared medium (bus), one ring and one multi-hop XY mesh.
func benchNetworks(b *testing.B, bench func(b *testing.B, cfg NetConfig)) {
	for _, fx := range []struct {
		name  string
		kind  noc.Kind
		tiles int
	}{
		{"bus-12", noc.Bus, 12},
		{"ring-16", noc.Ring, 16},
		{"mesh-4x4", noc.Mesh, 16},
	} {
		b.Run(fx.name, func(b *testing.B) {
			net, decisions, opts := buildNetwork(b, fx.kind, fx.tiles, 1e-11)
			bench(b, NetConfig{
				Net:                     net,
				Decisions:               decisions,
				InjectionRateBitsPerSec: 0.5 * saturationRate(b, net, decisions, opts),
				Messages:                20000,
				Seed:                    1,
			})
		})
	}
}

// BenchmarkRunNetwork is the DES's own per-layer number: generation
// overlapped with the event loop, then the latency sort.
func BenchmarkRunNetwork(b *testing.B) {
	benchNetworks(b, func(b *testing.B, cfg NetConfig) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := RunNetwork(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecordNetworkTrace is generation alone: the arrival draws,
// destination draws and merge that RunNetwork overlaps with its event loop.
func BenchmarkRecordNetworkTrace(b *testing.B) {
	benchNetworks(b, func(b *testing.B, cfg NetConfig) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := RecordNetworkTrace(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
