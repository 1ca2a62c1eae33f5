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
