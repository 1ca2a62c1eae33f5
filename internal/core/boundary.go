package core

import (
	"fmt"
	"math"

	"photonoc/internal/ecc"
)

// tightestBERFloor is the search floor for TightestBER; schemes that remain
// feasible there effectively have no laser-limited boundary.
const tightestBERFloor = 1e-18

// TightestBER returns the most demanding (smallest) target BER the scheme
// can reach with the deliverable laser power — the continuous version of
// the paper's "BER 1e-12 is not possible without ECC" observation. Schemes
// still feasible at the 1e-18 search floor return the floor.
func (cfg *LinkConfig) TightestBER(code ecc.Code) (float64, error) {
	c, err := cfg.Compile()
	if err != nil {
		return 0, err
	}
	return c.tightestBER(code)
}

// tightestBER bisects the feasibility boundary through the compiled solve,
// obtaining the code's FER plan once for every bisection step.
func (c *Compiled) tightestBER(code ecc.Code) (float64, error) {
	plan := ecc.PlanFor(code)
	feasibleAt := func(ber float64) (bool, error) {
		ev, err := c.EvaluatePlan(plan, ber)
		if err != nil {
			return false, err
		}
		return ev.Feasible, nil
	}
	okFloor, err := feasibleAt(tightestBERFloor)
	if err != nil {
		return 0, err
	}
	if okFloor {
		return tightestBERFloor, nil
	}
	okTop, err := feasibleAt(1e-1)
	if err != nil {
		return 0, err
	}
	if !okTop {
		return 0, fmt.Errorf("core: %s infeasible even at BER 1e-1", code.Name())
	}
	// Bisect the boundary in log10(BER): feasibility is monotone (tighter
	// BER always needs more optical power).
	lo, hi := math.Log10(tightestBERFloor), -1.0 // infeasible .. feasible
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		ok, err := feasibleAt(math.Pow(10, mid))
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Pow(10, hi), nil
}
