package ecc

import (
	"math"
	"math/big"
	"testing"

	"photonoc/internal/mathx"
)

// The reference implementations below reproduce the pre-plan per-call
// algorithms verbatim (per-term log-gamma evaluation, derivative-free
// bisection) so the property tests compare the planned fast path against an
// independent oracle rather than against itself.

func referenceFrameErrorRate(c Code, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	n, t := c.N(), c.T()
	var ok float64
	for i := 0; i <= t; i++ {
		ok += binomialTerm(n, i, p)
	}
	return math.Min(math.Max(1-ok, 0), 1)
}

func referencePostDecodeBER(c Code, p float64) float64 {
	if rep, ok := c.(*Repetition); ok {
		// Majority vote fails when more than r/2 of the r copies flip.
		var sum float64
		for i := rep.r/2 + 1; i <= rep.r; i++ {
			sum += binomialTerm(rep.r, i, p)
		}
		return math.Min(sum, 1)
	}
	switch {
	case c.T() == 0:
		return p
	case c.T() == 1:
		ber, _ := bigEq2(c.N(), p)
		return ber
	default:
		return UnionBoundBER(c.N(), c.T(), p)
	}
}

// bigEq2 evaluates Eq. 2, p·(1 − (1−p)^(n−1)), and its slope
// (1 − (1−p)^(n−1)) + p·(n−1)·(1−p)^(n−2) in 256-bit arithmetic, an oracle
// that shares no code with the float64 evaluation under test.
func bigEq2(n int, p float64) (ber, dBERdP float64) {
	const prec = 256
	x := new(big.Float).SetPrec(prec).SetFloat64(p)
	q := new(big.Float).SetPrec(prec).Sub(big.NewFloat(1).SetPrec(prec), x)
	pow := new(big.Float).SetPrec(prec).SetInt64(1) // q^(n−2), then q^(n−1)
	for i := 0; i < n-2; i++ {
		pow.Mul(pow, q)
	}
	slopeTail := new(big.Float).SetPrec(prec).Mul(x, pow)
	slopeTail.Mul(slopeTail, new(big.Float).SetPrec(prec).SetInt64(int64(n-1)))
	pow.Mul(pow, q)
	miss := new(big.Float).SetPrec(prec).Sub(big.NewFloat(1).SetPrec(prec), pow)
	ber, _ = new(big.Float).SetPrec(prec).Mul(x, miss).Float64()
	dBERdP, _ = new(big.Float).SetPrec(prec).Add(miss, slopeTail).Float64()
	return ber, dBERdP
}

func TestEq2MatchesBigFloat(t *testing.T) {
	const tol = 1e-15
	for _, n := range []int{7, 71, 72} {
		for _, p := range mathx.Logspace(1e-18, 0.4999, 5000) {
			wantBER, wantSlope := bigEq2(n, p)
			if got := PaperHammingBER(n, p); relDiff(got, wantBER) > tol {
				t.Fatalf("n=%d: PaperHammingBER(%.17g) = %.17g, 256-bit %.17g (rel diff %.3g)",
					n, p, got, wantBER, relDiff(got, wantBER))
			}
			if _, got := eq2(n, p); relDiff(got, wantSlope) > tol {
				t.Fatalf("n=%d: Eq. 2 slope at %.17g = %.17g, 256-bit %.17g (rel diff %.3g)",
					n, p, got, wantSlope, relDiff(got, wantSlope))
			}
		}
	}
}

func referenceRequiredRawBER(c Code, target, tol float64) (float64, error) {
	f := func(lnP float64) float64 {
		post := referencePostDecodeBER(c, math.Exp(lnP))
		if post <= 0 {
			return math.Inf(-1)
		}
		return math.Log(post)
	}
	lnP, err := mathx.SolveMonotone(f, math.Log(target), math.Log(1e-18), math.Log(0.4999), tol)
	if err != nil {
		return 0, err
	}
	return math.Exp(lnP), nil
}

func referenceRequiredRawBERForFER(c Code, target, tol float64) (float64, error) {
	f := func(lnP float64) float64 {
		fer := referenceFrameErrorRate(c, math.Exp(lnP))
		if fer <= 0 {
			return math.Inf(-1)
		}
		return math.Log(fer)
	}
	lnP, err := mathx.SolveMonotone(f, math.Log(target), math.Log(1e-18), math.Log(0.4999), tol)
	if err != nil {
		return 0, err
	}
	return math.Exp(lnP), nil
}

// planProbeGrid is the satellite-mandated probe set: p ∈ logspace(1e-15, 0.4).
func planProbeGrid() []float64 { return mathx.Logspace(1e-15, 0.4, 61) }

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func TestPlanFrameErrorRateMatchesReference(t *testing.T) {
	for _, code := range ExtendedSchemes() {
		plan := PlanFor(code)
		for _, p := range planProbeGrid() {
			got, want := plan.FrameErrorRate(p), referenceFrameErrorRate(code, p)
			if got != want {
				t.Errorf("%s: FrameErrorRate(%g) = %g, reference %g (planned head sum must be bit-identical)",
					code.Name(), p, got, want)
			}
		}
	}
}

func TestPlanPostDecodeBERMatchesReference(t *testing.T) {
	const tol = 1e-12
	for _, code := range ExtendedSchemes() {
		plan := PlanFor(code)
		for _, p := range planProbeGrid() {
			got, want := plan.PostDecodeBER(p), referencePostDecodeBER(code, p)
			if d := relDiff(got, want); d > tol {
				t.Errorf("%s: PostDecodeBER(%g) = %g, reference %g (rel diff %.3g > %.0g)",
					code.Name(), p, got, want, d, tol)
			}
		}
	}
}

func TestPlanRequiredRawBERMatchesReference(t *testing.T) {
	const tol = 1e-12
	targets := mathx.Logspace(1e-15, 0.4, 16)
	for _, code := range ExtendedSchemes() {
		plan := PlanFor(code)
		for _, target := range targets {
			got, errGot := plan.RequiredRawBER(target)
			want, errWant := referenceRequiredRawBER(code, target, 1e-13)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s @ %g: planned err %v, reference err %v", code.Name(), target, errGot, errWant)
			}
			if errGot != nil {
				continue
			}
			if d := relDiff(got, want); d > tol {
				t.Errorf("%s: RequiredRawBER(%g) = %.17g, reference %.17g (rel diff %.3g > %.0g)",
					code.Name(), target, got, want, d, tol)
			}
		}
	}
}

func TestPlanRequiredRawBERForFERMatchesReference(t *testing.T) {
	// Tolerance note: the legacy formulation computes FER = 1 − Σ_head,
	// which carries ≈2e-16 *absolute* roundoff — at a target FER of 1e-12
	// the quantity being inverted is only defined to ≈2e-4 relative, and
	// the legacy bisection lands at an arbitrary point inside that noise
	// band. The planned inversion solves the well-conditioned direct tail,
	// so the two agree to 1e-12 wherever the legacy function itself is that
	// precise, and to the legacy formulation's intrinsic roundoff
	// (≈5e-16/target) at deeper targets. Asserting tighter there would be
	// asserting on roundoff noise.
	targets := []float64{1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 0.5, 0.9}
	for _, code := range ExtendedSchemes() {
		plan := PlanFor(code)
		for _, target := range targets {
			got, errGot := plan.RequiredRawBERForFER(target)
			want, errWant := referenceRequiredRawBERForFER(code, target, 1e-13)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s @ %g: planned err %v, reference err %v", code.Name(), target, errGot, errWant)
			}
			if errGot != nil {
				continue
			}
			tol := math.Max(1e-12, 5e-16/target)
			if d := relDiff(got, want); d > tol {
				t.Errorf("%s: RequiredRawBERForFER(%g) = %.17g, reference %.17g (rel diff %.3g > %.3g)",
					code.Name(), target, got, want, d, tol)
			}
		}
	}
}

func TestPlanCarriesCode(t *testing.T) {
	a := PlanFor(MustHamming74())
	if a.Code().Name() != "H(7,4)" {
		t.Errorf("plan carries code %q, want H(7,4)", a.Code().Name())
	}
}

func TestPlanInversionRoundTrips(t *testing.T) {
	// The planned Newton inversions must land on raw BERs whose forward
	// model reproduces the target, to one tolerance for every code. The BER
	// inversion also runs on a dense grid plus a target at which the
	// textbook Eq. 2 used to stall H(7,4)'s guarded Newton steps above the
	// ln-p tolerance.
	berTargets := append(mathx.Logspace(1e-15, 1e-2, 20_000), 1.0045073642544624e-12)
	for _, code := range ExtendedSchemes() {
		plan := PlanFor(code)
		for _, target := range berTargets {
			p, err := plan.RequiredRawBER(target)
			if err != nil {
				t.Fatalf("%s: RequiredRawBER(%.17g): %v", code.Name(), target, err)
			}
			if back := plan.PostDecodeBER(p); relDiff(back, target) > 1e-9 {
				t.Fatalf("%s: BER round trip %.17g → %.17g", code.Name(), target, back)
			}
		}
		for _, target := range []float64{1e-11, 1e-6, 1e-3} {
			p, err := plan.RequiredRawBER(target)
			if err != nil {
				t.Fatalf("%s: RequiredRawBER(%g): %v", code.Name(), target, err)
			}
			if back := plan.PostDecodeBER(p); relDiff(back, target) > 1e-9 {
				t.Errorf("%s: BER round trip %g → %g", code.Name(), target, back)
			}
			pf, err := plan.RequiredRawBERForFER(target)
			if err != nil {
				t.Fatalf("%s: RequiredRawBERForFER(%g): %v", code.Name(), target, err)
			}
			// FrameErrorRate's legacy 1 − Σ_head form carries ≈2e-16
			// absolute roundoff, so the round trip is only observable to
			// ≈5e-16/target relative at deep targets.
			ferTol := math.Max(1e-9, 5e-16/target)
			if back := plan.FrameErrorRate(pf); relDiff(back, target) > ferTol {
				t.Errorf("%s: FER round trip %g → %g", code.Name(), target, back)
			}
		}
	}
}

func BenchmarkRequiredRawBERPlanned(b *testing.B) {
	plan := PlanFor(MustBCH3121())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.RequiredRawBER(1e-11); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRequiredRawBERReference(b *testing.B) {
	code := MustBCH3121()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := referenceRequiredRawBER(code, 1e-11, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}
