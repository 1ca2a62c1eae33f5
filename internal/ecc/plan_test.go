package ecc

import (
	"math"
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
		return PaperHammingBER(c.N(), p)
	default:
		return UnionBoundBER(c.N(), c.T(), p)
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
	// model reproduces the target. The BER inversion also runs on a dense
	// grid plus a target at which H(7,4)'s guarded Newton steps stall above
	// the ln-p tolerance: Eq. 2 resolves the post-decode BER only to its
	// rounding noise there, so the solver must bisect the rest.
	berTargets := append(mathx.Logspace(1e-15, 1e-2, 20_000), 1.0045073642544624e-12)
	for _, code := range ExtendedSchemes() {
		plan := PlanFor(code)
		// Only plans that evaluate Eq. 2 (t = 1 without an exact model)
		// get a noise allowance: its p − p·q^(n−1) rounds q = 1 − p to one
		// ulp, so the forward model is only defined to ≈1.1e-16/p relative
		// at small p (≈3e-8 at the 1e-15 targets).
		eq2 := plan.model == nil && plan.t == 1
		for _, target := range berTargets {
			p, err := plan.RequiredRawBER(target)
			if err != nil {
				t.Fatalf("%s: RequiredRawBER(%.17g): %v", code.Name(), target, err)
			}
			tol := 1e-9
			if eq2 {
				tol = math.Max(tol, 4e-16/p)
			}
			if back := plan.PostDecodeBER(p); relDiff(back, target) > tol {
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
