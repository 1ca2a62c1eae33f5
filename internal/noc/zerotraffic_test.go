package noc

import (
	"errors"
	"math"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
)

// silentMatrix is an all-zero (no active source) traffic matrix.
func silentMatrix(tiles int) Matrix {
	m := make(Matrix, tiles)
	for s := range m {
		m[s] = make([]float64, tiles)
	}
	return m
}

// singleRowMatrix activates only source 0, spreading its traffic uniformly
// over the other tiles; every other source is silent.
func singleRowMatrix(tiles int) Matrix {
	m := silentMatrix(tiles)
	w := 1 / float64(tiles-1)
	for d := 1; d < tiles; d++ {
		m[0][d] = w
	}
	return m
}

// TestMatrixValidateZeroTraffic pins the typed contract: an all-silent
// matrix fails validation with ErrZeroTraffic, not a free-form error.
func TestMatrixValidateZeroTraffic(t *testing.T) {
	err := silentMatrix(8).Validate(8)
	if err == nil {
		t.Fatal("all-silent matrix passed validation")
	}
	if !errors.Is(err, ErrZeroTraffic) {
		t.Fatalf("Validate error = %v, want ErrZeroTraffic in chain", err)
	}
}

// TestAggregateZeroTrafficTyped is the regression test for the silent-+Inf
// bug: evaluating an all-silent matrix leaves no loaded link, so the
// saturation rate min(capacity/share) would be +Inf and so would the
// delivered rate. The contract is a typed error from Aggregate, with no
// result.
func TestAggregateZeroTrafficTyped(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	net, err := Build(Config{Kind: Crossbar, Tiles: 8, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	opts := EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, Traffic: silentMatrix(8)}
	evals := solveNetwork(t, net, codes, opts.TargetBER)
	sess := NewEvalSession()
	dec, err := sess.Decide(net, evals, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Aggregate(net, dec, opts)
	if !errors.Is(err, ErrZeroTraffic) {
		t.Fatalf("session Aggregate error = %v, want ErrZeroTraffic in chain", err)
	}
	if res != nil {
		t.Fatalf("session Aggregate returned a result alongside the error: %+v", res)
	}
}

// TestAggregateSingleActiveRow covers the near-degenerate neighbor of the
// bug: one active source among silent ones is legal and must produce a
// finite saturation rate, a finite default injection rate, and a delivered
// throughput scaled by the single active tile — no +Inf anywhere.
func TestAggregateSingleActiveRow(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	net, err := Build(Config{Kind: Crossbar, Tiles: 8, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	opts := EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, Traffic: singleRowMatrix(8)}
	evals := solveNetwork(t, net, codes, opts.TargetBER)
	sess := NewEvalSession()
	dec, err := sess.Decide(net, evals, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Aggregate(net, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	sat := res.SaturationInjectionBitsPerSec
	if math.IsInf(sat, 0) || math.IsNaN(sat) || sat <= 0 {
		t.Fatalf("saturation rate = %g, want finite positive", sat)
	}
	if got := res.InjectionRateBitsPerSec; got != sat/2 {
		t.Fatalf("default injection rate = %g, want sat/2 = %g", got, sat/2)
	}
	if got, want := res.DeliveredBitsPerSec, res.InjectionRateBitsPerSec; got != want {
		t.Fatalf("delivered = %g, want one active tile × rate = %g", got, want)
	}
}
