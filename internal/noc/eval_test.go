package noc

import (
	"context"
	"math"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
)

// solveNetwork evaluates every link of a network against a roster the way
// the engine layer does, but sequentially through compiled configurations.
func solveNetwork(t *testing.T, net *Network, codes []ecc.Code, ber float64) [][]core.Evaluation {
	t.Helper()
	compiled := make(map[string]*core.Compiled)
	evals := make([][]core.Evaluation, net.NumLinks())
	for _, l := range net.Links() {
		cfg := l.Config()
		fp := core.Fingerprint(cfg)
		c, ok := compiled[fp]
		if !ok {
			var err error
			c, err = cfg.Compile()
			if err != nil {
				t.Fatalf("compiling link %d: %v", l.ID, err)
			}
			compiled[fp] = c
		}
		row := make([]core.Evaluation, len(codes))
		for i, code := range codes {
			ev, err := c.Evaluate(code, ber)
			if err != nil {
				t.Fatalf("link %d scheme %s: %v", l.ID, code.Name(), err)
			}
			row[i] = ev
		}
		evals[l.ID] = row
	}
	return evals
}

func evalNetwork(t *testing.T, net *Network, codes []ecc.Code, opts EvalOptions) Result {
	t.Helper()
	evals := solveNetwork(t, net, codes, opts.TargetBER)
	sess := NewEvalSession()
	decisions, err := sess.Decide(net, evals, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Aggregate(net, decisions, opts)
	if err != nil {
		t.Fatal(err)
	}
	return *res
}

// TestBusAggregateMatchesSingleLink is the degenerate-bus energy identity:
// per-link decisions equal the single-link winner bit for bit, and the
// network's active energy per bit equals the winning Evaluation's.
func TestBusAggregateMatchesSingleLink(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	net, err := Build(Config{Kind: Bus, Tiles: base.Channel.Topo.ONIs, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	const ber = 1e-11
	res := evalNetwork(t, net, codes, EvalOptions{TargetBER: ber, Objective: manager.MinEnergy})
	if !res.Feasible {
		t.Fatalf("bus network infeasible: %s", res.InfeasibleReason)
	}

	// Reference winner straight from the sequential single-link sweep.
	c, err := base.Compile()
	if err != nil {
		t.Fatal(err)
	}
	evs, err := core.EvaluateAllWith(context.Background(), c.Evaluator(), codes, ber)
	if err != nil {
		t.Fatal(err)
	}
	var want *core.Evaluation
	for i := range evs {
		if !evs[i].Feasible {
			continue
		}
		if want == nil || manager.Better(&evs[i], want, manager.MinEnergy) {
			want = &evs[i]
		}
	}
	if want == nil {
		t.Fatal("no feasible single-link scheme")
	}
	for _, d := range res.Decisions {
		if d.Eval != *want {
			t.Fatalf("link %d decision differs from single-link winner:\n%+v\nvs\n%+v", d.Link, d.Eval, *want)
		}
		if d.EnergyPerBitJ != want.EnergyPerBitJ {
			t.Fatalf("link %d energy %g != single-link %g", d.Link, d.EnergyPerBitJ, want.EnergyPerBitJ)
		}
	}
	if !closeRel(res.ActiveEnergyPerBitJ, want.EnergyPerBitJ, 1e-12) {
		t.Fatalf("active energy/bit %g != single-link %g", res.ActiveEnergyPerBitJ, want.EnergyPerBitJ)
	}
	if res.SchemeUse[want.Code.Name()] != net.NumLinks() {
		t.Fatalf("scheme use %v does not credit %s for every link", res.SchemeUse, want.Code.Name())
	}
}

// TestSaturationClosedForm checks the saturation rate against the closed
// form min(capacity/share), exactly, on every configuration the routing
// oracle builds under uniform, hotspot and permutation traffic; then, on a
// uniform bus, that it equals the link capacity, that the default rate is
// half of it and that evaluating past it reports saturation.
func TestSaturationClosedForm(t *testing.T) {
	evals := baseEvaluations(t, 1e-11)
	sess := NewEvalSession()
	for _, cfg := range oracleConfigs() {
		net, err := Build(cfg)
		if err != nil {
			continue
		}
		dec := syntheticDecisions(t, net, evals)
		traffic := []Matrix{nil, permutationMatrix(cfg.Tiles)}
		if cfg.Tiles > 2 {
			traffic = append(traffic, hotspotMatrix(cfg.Tiles))
		}
		for k, m := range traffic {
			res, err := sess.Aggregate(net, dec, EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, Traffic: m})
			if err != nil {
				t.Fatalf("%v/%d/cols=%d traffic %d: %v", cfg.Kind, cfg.Tiles, cfg.Columns, k, err)
			}
			want := math.Inf(1)
			for i, share := range sess.shares {
				if share > 0 {
					want = min(want, sess.capacity[i]/share)
				}
			}
			if res.SaturationInjectionBitsPerSec != want {
				t.Fatalf("%v/%d/cols=%d traffic %d: saturation %v, closed form %v", cfg.Kind, cfg.Tiles, cfg.Columns, k, res.SaturationInjectionBitsPerSec, want)
			}
		}
	}

	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	net, err := Build(Config{Kind: Bus, Tiles: base.Channel.Topo.ONIs, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	opts := EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy}
	res := evalNetwork(t, net, codes, opts)

	// Uniform traffic on a bus: every link carries exactly one tile-rate
	// share (N−1 sources × 1/(N−1) each), so saturation = link capacity.
	capacity := res.Loads[0].CapacityBitsPerSec
	if !closeRel(res.SaturationInjectionBitsPerSec, capacity, 1e-9) {
		t.Fatalf("saturation %g, want link capacity %g", res.SaturationInjectionBitsPerSec, capacity)
	}
	// The default operating point is half of saturation and unsaturated.
	if res.Saturated {
		t.Error("default rate reported saturated")
	}
	if res.InjectionRateBitsPerSec != res.SaturationInjectionBitsPerSec/2 {
		t.Errorf("default rate %g is not half of saturation %g", res.InjectionRateBitsPerSec, res.SaturationInjectionBitsPerSec)
	}

	opts.InjectionRateBitsPerSec = res.SaturationInjectionBitsPerSec * 1.01
	over := evalNetwork(t, net, codes, opts)
	if !over.Saturated {
		t.Error("rate past saturation not reported saturated")
	}
	if !math.IsInf(over.P99LatencySec, 1) {
		t.Errorf("saturated p99 latency %g, want +Inf", over.P99LatencySec)
	}
}

// permutationMatrix sends all of tile s's traffic to tile s + tiles/2
// (mod tiles), stepping past s itself — netsim's Permutation pattern.
func permutationMatrix(tiles int) Matrix {
	m := make(Matrix, tiles)
	for s := range m {
		m[s] = make([]float64, tiles)
		d := (s + tiles/2) % tiles
		if d == s {
			d = (d + 1) % tiles
		}
		m[s][d] = 1
	}
	return m
}

// TestInfeasibleBERPropagates: at a BER the uncoded-only roster cannot
// reach, the network result is infeasible rather than an error.
func TestInfeasibleBERPropagates(t *testing.T) {
	base := core.DefaultConfig()
	net, err := Build(Config{Kind: Bus, Tiles: base.Channel.Topo.ONIs, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	res := evalNetwork(t, net, []ecc.Code{ecc.MustUncoded64()}, EvalOptions{TargetBER: 1e-12})
	if res.Feasible {
		t.Fatal("uncoded network feasible at BER 1e-12, want infeasible (paper boundary)")
	}
	if res.InfeasibleReason == "" {
		t.Error("infeasible result carries no reason")
	}
	if res.NetworkPowerW != 0 || res.EnergyPerBitJ != 0 {
		t.Error("infeasible result reports non-zero aggregates")
	}
}

// TestHotspotLoadsConcentrate: a hotspot matrix loads the hot link hardest
// and saturates earlier than uniform traffic.
func TestHotspotLoadsConcentrate(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	net, err := Build(Config{Kind: Crossbar, Tiles: 8, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	uniform := evalNetwork(t, net, codes, EvalOptions{TargetBER: 1e-9, Objective: manager.MinEnergy})

	hot := 3
	m := UniformMatrix(8)
	for s := 0; s < 8; s++ {
		if s == hot {
			continue
		}
		for d := 0; d < 8; d++ {
			if d != s {
				m[s][d] *= 0.5
			}
		}
		m[s][hot] += 0.5
	}
	res := evalNetwork(t, net, codes, EvalOptions{TargetBER: 1e-9, Objective: manager.MinEnergy, Traffic: m})
	if !res.Feasible {
		t.Fatalf("hotspot network infeasible: %s", res.InfeasibleReason)
	}
	worst := 0
	for _, load := range res.Loads {
		if load.Utilization > res.Loads[worst].Utilization {
			worst = load.Link
		}
	}
	if worst != hot {
		t.Fatalf("most loaded link %d, want hotspot %d", worst, hot)
	}
	if res.SaturationInjectionBitsPerSec >= uniform.SaturationInjectionBitsPerSec {
		t.Errorf("hotspot saturation %g not below uniform %g", res.SaturationInjectionBitsPerSec, uniform.SaturationInjectionBitsPerSec)
	}
}

// TestDACQuantizationChargesWaste: with the paper DAC the charged laser
// power is at or above the exact requirement on every link.
func TestDACQuantizationChargesWaste(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	net, err := Build(Config{Kind: Bus, Tiles: base.Channel.Topo.ONIs, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	dac := manager.PaperDAC()
	res := evalNetwork(t, net, codes, EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, DAC: &dac})
	if !res.Feasible {
		t.Fatalf("network infeasible: %s", res.InfeasibleReason)
	}
	for _, d := range res.Decisions {
		if d.DACCode < 0 {
			t.Fatalf("link %d has no DAC code", d.Link)
		}
		if d.LaserPowerW < d.Eval.LaserPowerW {
			t.Fatalf("link %d quantized laser %g below exact %g", d.Link, d.LaserPowerW, d.Eval.LaserPowerW)
		}
	}
}

// TestLatencyOrdering: multi-hop mesh corner traffic is slower than
// same-row traffic, and the percentile fields are ordered.
func TestLatencyOrdering(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	net, err := Build(Config{Kind: Mesh, Tiles: 9, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	res := evalNetwork(t, net, codes, EvalOptions{TargetBER: 1e-9, Objective: manager.MinEnergy})
	if !res.Feasible {
		t.Fatalf("mesh infeasible: %s", res.InfeasibleReason)
	}
	if !(res.P50LatencySec <= res.P95LatencySec && res.P95LatencySec <= res.P99LatencySec && res.P99LatencySec <= res.MaxLatencySec) {
		t.Fatalf("percentiles out of order: %g %g %g %g", res.P50LatencySec, res.P95LatencySec, res.P99LatencySec, res.MaxLatencySec)
	}
	if res.MeanLatencySec <= 0 {
		t.Fatalf("mean latency %g", res.MeanLatencySec)
	}
}

func TestTrafficMatrixValidate(t *testing.T) {
	if err := UniformMatrix(4).Validate(4); err != nil {
		t.Fatal(err)
	}
	bad := UniformMatrix(4)
	bad[1][1] = 0.5
	if err := bad.Validate(4); err == nil {
		t.Error("self-traffic accepted")
	}
	short := UniformMatrix(3)
	if err := short.Validate(4); err == nil {
		t.Error("wrong shape accepted")
	}
	unnorm := UniformMatrix(4)
	unnorm[2][3] += 0.5
	if err := unnorm.Validate(4); err == nil {
		t.Error("unnormalized row accepted")
	}
	silent := UniformMatrix(4)
	for d := range silent[0] {
		silent[0][d] = 0
	}
	if err := silent.Validate(4); err != nil {
		t.Errorf("silent row rejected: %v", err)
	}
}
