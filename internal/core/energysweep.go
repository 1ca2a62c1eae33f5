package core

import (
	"context"

	"photonoc/internal/ecc"
)

// EnergyPoint is one sample of the energy-per-bit sweep: the Fig. 6a
// annotation extended into full curves over the BER axis.
type EnergyPoint struct {
	TargetBER      float64
	Scheme         string
	EnergyPerBitJ  float64
	PayloadRateBps float64
	Feasible       bool
}

// EnergySweepWith computes energy per payload bit for each scheme across
// the BER grid through ev — the data behind the paper's "without
// compromising energy per bit" claim, as a full curve rather than a single
// point. cfg is still needed for the payload-rate derivation.
func EnergySweepWith(ctx context.Context, ev Evaluator, cfg *LinkConfig, codes []ecc.Code, targetBERs []float64) ([]EnergyPoint, error) {
	var out []EnergyPoint
	for _, ber := range targetBERs {
		for _, code := range codes {
			e, err := ev.Evaluate(ctx, code, ber)
			if err != nil {
				return nil, err
			}
			pt := EnergyPoint{
				TargetBER: ber,
				Scheme:    code.Name(),
				Feasible:  e.Feasible,
			}
			if e.Feasible {
				pt.EnergyPerBitJ = e.EnergyPerBitJ
				pt.PayloadRateBps = e.PayloadRateBitsPerSec(cfg)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}
