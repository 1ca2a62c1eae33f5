package netsim

import (
	"context"
	"fmt"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// TestNilTrafficIsUniformMatrix holds the generator's nil-traffic rule to
// noc.UniformMatrix bit for bit: on each kind at every tile count from 2 to
// 64 that builds, and every mesh column divisor, RunNetwork with nil
// traffic returns the same NetResults, every field, per-link stat and
// decision included, as RunNetwork with UniformMatrix(tiles). Decisions
// cycle through the paper link's feasible evaluations so neighboring links
// run at different capacities; the rate is the analytic default.
func TestNilTrafficIsUniformMatrix(t *testing.T) {
	base := core.DefaultConfig()
	c, err := base.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var evals []core.Evaluation
	for _, code := range ecc.PaperSchemes() {
		ev, err := c.Evaluate(code, 1e-11)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Feasible {
			evals = append(evals, ev)
		}
	}
	var cfgs []noc.Config
	for tiles := 2; tiles <= 64; tiles++ {
		for _, kind := range []noc.Kind{noc.Bus, noc.Crossbar, noc.Ring, noc.Mesh} {
			cfgs = append(cfgs, noc.Config{Kind: kind, Tiles: tiles, Base: base})
		}
		for cols := 1; cols <= tiles; cols++ {
			if tiles%cols == 0 {
				cfgs = append(cfgs, noc.Config{Kind: noc.Mesh, Tiles: tiles, Columns: cols, Base: base})
			}
		}
	}

	ctx := context.Background()
	built := 0
	for _, cfg := range cfgs {
		net, err := noc.Build(cfg)
		if err != nil {
			continue
		}
		built++
		name := fmt.Sprintf("%v/%d/cols=%d", cfg.Kind, cfg.Tiles, cfg.Columns)
		dec := make([]noc.LinkDecision, net.NumLinks())
		for i := range dec {
			ev := evals[i%len(evals)]
			dec[i] = noc.LinkDecision{Link: i, Eval: ev, LaserPowerW: ev.LaserPowerW, DACCode: -1, EnergyPerBitJ: ev.EnergyPerBitJ, Feasible: true}
		}
		agg, err := noc.NewEvalSession().Aggregate(net, dec, noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run := NetConfig{Net: net, Decisions: dec, InjectionRateBitsPerSec: agg.InjectionRateBitsPerSec, Messages: 200, Seed: int64(built)}
		got, err := RunNetwork(ctx, run)
		if err != nil {
			t.Fatalf("%s: nil traffic: %v", name, err)
		}
		run.Traffic = noc.UniformMatrix(cfg.Tiles)
		want, err := RunNetwork(ctx, run)
		if err != nil {
			t.Fatalf("%s: uniform matrix: %v", name, err)
		}
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Fatalf("%s: nil traffic differs from UniformMatrix:\n%s\nvs\n%s", name, g, w)
		}
	}
	if built < 2*63+15+63 {
		t.Fatalf("only %d configurations built", built)
	}
}
