package mathx

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBisectSimpleRoots(t *testing.T) {
	cases := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		want   float64
	}{
		{"linear", func(x float64) float64 { return 2*x - 3 }, 0, 10, 1.5},
		{"cubic", func(x float64) float64 { return x*x*x - 2 }, 0, 4, math.Cbrt(2)},
		{"cos", math.Cos, 0, 3, math.Pi / 2},
		{"reversed-interval", func(x float64) float64 { return x - 1 }, 5, 0, 1},
		{"steep-exp", func(x float64) float64 { return math.Exp(x) - 100 }, 0, 10, math.Log(100)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Bisect(c.f, c.lo, c.hi, 1e-12)
			if err != nil {
				t.Fatalf("Bisect: %v", err)
			}
			if !ApproxEqual(got, c.want, 1e-9) {
				t.Errorf("root = %.15g, want %.15g", got, c.want)
			}
		})
	}
}

func TestBisectNoBracket(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x*x + 1 }, -5, 5, 1e-9)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	got, err := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-9)
	if err != nil || got != 0 {
		t.Errorf("got %g, %v; want root at endpoint 0", got, err)
	}
}

func TestSolveMonotoneProperty(t *testing.T) {
	// Property: for a strictly increasing function, SolveMonotone recovers
	// the preimage of f at any target inside the range.
	f := func(x float64) float64 { return x*x*x + 0.5*x } // strictly increasing
	prop := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 8.0)
		target := f(x)
		got, err := SolveMonotone(f, target, 0, 8, 1e-13)
		return err == nil && ApproxEqual(got, x, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBisectReportsNonConvergence(t *testing.T) {
	// An impossible tolerance exhausts the iteration budget; the solver must
	// say so (wrapping ErrNoConverge with the final bracket) instead of
	// silently returning the midpoint.
	_, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 0)
	if !errors.Is(err, ErrNoConverge) {
		t.Fatalf("err = %v, want ErrNoConverge", err)
	}
	if !strings.Contains(err.Error(), "bracket") {
		t.Errorf("error %q should carry the final bracket", err)
	}
}

func TestNewtonBisectSimpleRoots(t *testing.T) {
	cases := []struct {
		name   string
		fd     func(float64) (float64, float64)
		lo, hi float64
		want   float64
	}{
		{"linear", func(x float64) (float64, float64) { return 2*x - 3, 2 }, 0, 10, 1.5},
		{"cubic", func(x float64) (float64, float64) { return x*x*x - 2, 3 * x * x }, 0, 4, math.Cbrt(2)},
		{"cos", func(x float64) (float64, float64) { return math.Cos(x), -math.Sin(x) }, 0, 3, math.Pi / 2},
		{"reversed-interval", func(x float64) (float64, float64) { return x - 1, 1 }, 5, 0, 1},
		{"steep-exp", func(x float64) (float64, float64) { return math.Exp(x) - 100, math.Exp(x) }, 0, 10, math.Log(100)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := NewtonBisect(c.fd, c.lo, c.hi, 1e-13)
			if err != nil {
				t.Fatalf("NewtonBisect: %v", err)
			}
			if !ApproxEqual(got, c.want, 1e-9) {
				t.Errorf("root = %.15g, want %.15g", got, c.want)
			}
		})
	}
}

func TestNewtonBisectGuards(t *testing.T) {
	// No sign change → bracket error.
	if _, err := NewtonBisect(func(x float64) (float64, float64) { return x*x + 1, 2 * x }, -5, 5, 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
	// A lying derivative (always zero) must still converge via the
	// bisection fallback.
	got, err := NewtonBisect(func(x float64) (float64, float64) { return x - 1, 0 }, 0, 5, 1e-12)
	if err != nil || !ApproxEqual(got, 1, 1e-9) {
		t.Errorf("zero-derivative fallback: got %g, %v", got, err)
	}
	// A derivative 0.55× the true one makes every Newton step overshoot by
	// 0.82× the error: the steps stay inside the bracket but shrink it far
	// too slowly for 100 iterations to reach tol, so bisection must finish
	// it. An impossible tolerance still reports the final bracket.
	stalled := func(x float64) (float64, float64) { return x*x - 2, 0.55 * 2 * x }
	got, err = NewtonBisect(stalled, 0, 5, 1e-13)
	if err != nil || math.Abs(got-math.Sqrt2) > 1e-13 {
		t.Errorf("stalled Newton: got %.17g, %v", got, err)
	}
	if _, err := NewtonBisect(stalled, 0, 5, 0); !errors.Is(err, ErrNoConverge) || !strings.Contains(err.Error(), "bracket") {
		t.Errorf("zero tolerance: err = %v, want ErrNoConverge with the final bracket", err)
	}
	// −Inf endpoint values bracket like any finite negative value (the FER
	// inversion sees ln(0) at its lower bracket).
	got, err = NewtonBisect(func(x float64) (float64, float64) {
		if x < 0.5 {
			return math.Inf(-1), 0
		}
		return math.Log(x), 1 / x
	}, 0, 3, 1e-12)
	if err != nil || !ApproxEqual(got, 1, 1e-9) {
		t.Errorf("-Inf endpoint: got %g, %v", got, err)
	}
}
