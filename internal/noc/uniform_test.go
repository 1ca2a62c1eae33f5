package noc

import (
	"fmt"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
)

// syntheticDecisions gives every link of net a feasible decision, cycling
// through solved evaluations of the base link so neighboring links carry
// different capacities. The traffic fold reads only the decisions' codes,
// CT, powers and energies, so this exercises it without solving every link.
func syntheticDecisions(t *testing.T, net *Network, evals []core.Evaluation) []LinkDecision {
	t.Helper()
	out := make([]LinkDecision, net.NumLinks())
	for i := range out {
		ev := evals[i%len(evals)]
		out[i] = LinkDecision{
			Link:          i,
			Eval:          ev,
			LaserPowerW:   ev.LaserPowerW,
			DACCode:       -1,
			EnergyPerBitJ: ev.EnergyPerBitJ,
			Feasible:      true,
		}
	}
	return out
}

// baseEvaluations solves the paper roster on the paper link and keeps the
// feasible evaluations.
func baseEvaluations(t *testing.T, ber float64) []core.Evaluation {
	t.Helper()
	base := core.DefaultConfig()
	c, err := base.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Evaluation
	for _, code := range ecc.PaperSchemes() {
		ev, err := c.Evaluate(code, ber)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Feasible {
			out = append(out, ev)
		}
	}
	if len(out) < 2 {
		t.Fatalf("only %d feasible paper schemes at BER %g", len(out), ber)
	}
	return out
}

// TestNilTrafficIsUniformMatrix holds nil traffic to UniformMatrix bit for
// bit: on every configuration the routing oracle builds, Aggregate with a
// nil matrix returns the same Result, every field, load, decision and
// scheme count included, as Aggregate with UniformMatrix(tiles), both at
// the default rate and at an explicit one.
func TestNilTrafficIsUniformMatrix(t *testing.T) {
	evals := baseEvaluations(t, 1e-11)
	sess := NewEvalSession()
	built := 0
	for _, cfg := range oracleConfigs() {
		net, err := Build(cfg)
		if err != nil {
			continue
		}
		built++
		name := fmt.Sprintf("%v/%d/cols=%d", cfg.Kind, cfg.Tiles, cfg.Columns)
		dec := syntheticDecisions(t, net, evals)
		for _, rate := range []float64{0, 3e9} {
			opts := EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, InjectionRateBitsPerSec: rate}
			res, err := sess.Aggregate(net, dec, opts)
			if err != nil {
				t.Fatalf("%s: nil traffic: %v", name, err)
			}
			got := res.Clone()
			opts.Traffic = UniformMatrix(cfg.Tiles)
			res, err = sess.Aggregate(net, dec, opts)
			if err != nil {
				t.Fatalf("%s: uniform matrix: %v", name, err)
			}
			want := res.Clone()
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
				t.Fatalf("%s rate %g: nil traffic differs from UniformMatrix:\n%s\nvs\n%s", name, rate, g, w)
			}
		}
	}
	if built < 2*63+15+63 {
		t.Fatalf("only %d configurations built", built)
	}
}
