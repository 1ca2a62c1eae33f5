package core

import (
	"context"
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/mathx"
)

func TestEnergySweepShape(t *testing.T) {
	cfg := DefaultConfig()
	bers := mathx.Logspace(1e-12, 1e-6, 7)
	pts, err := EnergySweepWith(context.Background(), evaluator(t, &cfg), &cfg, ecc.PaperSchemes(), bers)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 21 {
		t.Fatalf("points = %d", len(pts))
	}
	// H(71,64) has the lowest energy/bit at every feasible BER on the
	// paper grid — the "most energy-efficient" claim as a curve.
	byBER := map[float64]map[string]EnergyPoint{}
	for _, p := range pts {
		if byBER[p.TargetBER] == nil {
			byBER[p.TargetBER] = map[string]EnergyPoint{}
		}
		byBER[p.TargetBER][p.Scheme] = p
	}
	for ber, schemes := range byBER {
		h := schemes["H(71,64)"]
		if !h.Feasible {
			t.Fatalf("H(71,64) infeasible at %g", ber)
		}
		for name, p := range schemes {
			if !p.Feasible || name == "H(71,64)" {
				continue
			}
			if h.EnergyPerBitJ >= p.EnergyPerBitJ {
				t.Errorf("BER %g: H(71,64) %g pJ/b not below %s %g", ber,
					h.EnergyPerBitJ*1e12, name, p.EnergyPerBitJ*1e12)
			}
		}
	}
	// Payload rate reflects CT.
	for _, p := range pts {
		if !p.Feasible {
			continue
		}
		switch p.Scheme {
		case "w/o ECC":
			if !approx(p.PayloadRateBps, 10e9, 1e-9) {
				t.Errorf("uncoded payload rate %g", p.PayloadRateBps)
			}
		case "H(7,4)":
			if !approx(p.PayloadRateBps, 10e9/1.75, 1e-9) {
				t.Errorf("H(7,4) payload rate %g", p.PayloadRateBps)
			}
		}
	}
}

func TestBestEnergySchemeByBER(t *testing.T) {
	cfg := DefaultConfig()
	bers := []float64{1e-12, 1e-11, 1e-9, 1e-6}
	best, err := BestEnergySchemeByBERWith(context.Background(), evaluator(t, &cfg), ecc.PaperSchemes(), bers)
	if err != nil {
		t.Fatal(err)
	}
	for _, ber := range bers {
		if best[ber] != "H(71,64)" {
			t.Errorf("best scheme at %g = %q, want H(71,64)", ber, best[ber])
		}
	}
	// With only the uncoded scheme in the pool, 1e-12 has no feasible
	// entry at all.
	only := []ecc.Code{ecc.MustUncoded64()}
	best, err = BestEnergySchemeByBERWith(context.Background(), evaluator(t, &cfg), only, []float64{1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := best[1e-12]; ok {
		t.Error("uncoded-only pool should have no feasible scheme at 1e-12")
	}
}
