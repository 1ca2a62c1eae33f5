package core

import (
	"context"
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/synth"
)

func TestUseSynthesizedInterfaces(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.UseSynthesizedInterfaces(synth.DefaultLibrary()); err != nil {
		t.Fatal(err)
	}
	// The three paper modes must all be covered by model-derived values.
	for _, name := range []string{"w/o ECC", "H(71,64)", "H(7,4)"} {
		p, ok := cfg.InterfacePowers[name]
		if !ok || p.TotalW() <= 0 {
			t.Fatalf("mode %q missing or zero after synthesis: %+v", name, p)
		}
		// Within 2× of the published table — they describe the same
		// circuits.
		published := DefaultConfig().InterfacePowers[name]
		if r := p.TotalW() / published.TotalW(); r < 0.5 || r > 2.0 {
			t.Errorf("%s: synthesized %.2f µW vs published %.2f µW", name, p.TotalW()*1e6, published.TotalW()*1e6)
		}
	}
}

func TestHeadlineInsensitiveToInterfaceSource(t *testing.T) {
	// The paper's conclusions must not hinge on whether the interface
	// power comes from the published table or from our synthesis model.
	published := DefaultConfig()
	synthesized := DefaultConfig()
	if err := synthesized.UseSynthesizedInterfaces(synth.DefaultLibrary()); err != nil {
		t.Fatal(err)
	}
	hP, err := HeadlineWith(context.Background(), evaluator(t, &published), &published, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	hS, err := HeadlineWith(context.Background(), evaluator(t, &synthesized), &synthesized, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if hP.BestEnergyScheme != hS.BestEnergyScheme {
		t.Errorf("best scheme changed: %s vs %s", hP.BestEnergyScheme, hS.BestEnergyScheme)
	}
	for _, name := range []string{"H(71,64)", "H(7,4)"} {
		if d := hP.ChannelReduction[name] - hS.ChannelReduction[name]; d > 0.005 || d < -0.005 {
			t.Errorf("%s: reduction moved by %.3f between interface sources", name, d)
		}
	}
	// Evaluations still feasible and ordered.
	evs, err := EvaluateAllWith(context.Background(), evaluator(t, &synthesized), ecc.PaperSchemes(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if !(evs[2].ChannelPowerW < evs[1].ChannelPowerW && evs[1].ChannelPowerW < evs[0].ChannelPowerW) {
		t.Error("channel power ordering broke with synthesized interfaces")
	}
}
