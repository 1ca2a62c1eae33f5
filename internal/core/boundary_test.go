package core

import (
	"math"
	"testing"

	"photonoc/internal/ecc"
)

func TestTightestBERUncodedBoundary(t *testing.T) {
	// The paper: 1e-11 reachable without ECC, 1e-12 not. The continuous
	// boundary must therefore sit between the two decades.
	cfg := DefaultConfig()
	boundary, err := cfg.TightestBER(ecc.MustUncoded64())
	if err != nil {
		t.Fatal(err)
	}
	if boundary <= 1e-12 || boundary >= 1e-11 {
		t.Errorf("uncoded boundary = %.3e, want inside (1e-12, 1e-11)", boundary)
	}
	// The boundary is exactly the feasibility edge: slightly looser is
	// feasible, slightly tighter is not.
	link := compiled(t, &cfg)
	evLoose, err := link.Evaluate(ecc.MustUncoded64(), boundary*1.1)
	if err != nil {
		t.Fatal(err)
	}
	if !evLoose.Feasible {
		t.Error("just above the boundary should be feasible")
	}
	evTight, err := link.Evaluate(ecc.MustUncoded64(), boundary/1.1)
	if err != nil {
		t.Fatal(err)
	}
	if evTight.Feasible {
		t.Error("just below the boundary should be infeasible")
	}
}

func TestTightestBERCodedReachFloor(t *testing.T) {
	// Both Hamming schemes are so much cheaper in SNR that they remain
	// feasible at the search floor: coding removes the laser-limited
	// BER ceiling entirely (within the model's range).
	cfg := DefaultConfig()
	for _, code := range []ecc.Code{ecc.MustHamming7164(), ecc.MustHamming74()} {
		boundary, err := cfg.TightestBER(code)
		if err != nil {
			t.Fatalf("%s: %v", code.Name(), err)
		}
		if boundary != 1e-18 {
			t.Errorf("%s boundary = %.3e, want the 1e-18 floor", code.Name(), boundary)
		}
	}
}

func TestTightestBEROrdering(t *testing.T) {
	// Stronger protection never worsens the reachable BER.
	cfg := DefaultConfig()
	bU, err := cfg.TightestBER(ecc.MustUncoded64())
	if err != nil {
		t.Fatal(err)
	}
	b74, err := cfg.TightestBER(ecc.MustHamming74())
	if err != nil {
		t.Fatal(err)
	}
	if b74 > bU {
		t.Errorf("H(7,4) boundary %.3e should not be looser than uncoded %.3e", b74, bU)
	}
}

func TestTightestBERShrinksWithShorterWaveguide(t *testing.T) {
	// Less path loss → tighter reachable BER for the uncoded scheme.
	long := DefaultConfig()
	short := DefaultConfig()
	short.Channel.Waveguide.LengthCM = 2
	bLong, err := long.TightestBER(ecc.MustUncoded64())
	if err != nil {
		t.Fatal(err)
	}
	bShort, err := short.TightestBER(ecc.MustUncoded64())
	if err != nil {
		t.Fatal(err)
	}
	if !(bShort < bLong) {
		t.Errorf("2 cm boundary %.3e should beat 6 cm boundary %.3e", bShort, bLong)
	}
	if math.IsNaN(bShort) || math.IsNaN(bLong) {
		t.Error("NaN boundary")
	}
}
