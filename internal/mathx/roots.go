package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root finder is given an interval whose
// endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("mathx: interval does not bracket a root")

// ErrNoConverge is returned when an iterative solver exhausts its iteration
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("mathx: solver failed to converge")

// Bisect finds a root of f in [lo, hi] to absolute tolerance tol using
// bisection with a secant (false-position) acceleration step. f(lo) and
// f(hi) must have opposite signs (zero endpoints are accepted as roots).
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	switch {
	case flo == 0:
		return lo, nil
	case fhi == 0:
		return hi, nil
	case math.IsNaN(flo) || math.IsNaN(fhi):
		return 0, fmt.Errorf("%w: f is NaN at an endpoint", ErrNoBracket)
	case (flo > 0) == (fhi > 0):
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}
	for i := 0; i < 200; i++ {
		if hi-lo <= tol {
			return 0.5 * (lo + hi), nil
		}
		mid := 0.5 * (lo + hi)
		// Alternate a false-position probe with plain bisection so smooth
		// functions converge super-linearly while pathological ones still
		// halve the interval every other step.
		if i%2 == 1 && fhi != flo {
			sec := lo - flo*(hi-lo)/(fhi-flo)
			if sec > lo+0.01*(hi-lo) && sec < hi-0.01*(hi-lo) {
				mid = sec
			}
		}
		fm := f(mid)
		switch {
		case fm == 0:
			return mid, nil
		case math.IsNaN(fm):
			return 0, fmt.Errorf("%w: f(%g) is NaN", ErrNoConverge, mid)
		case (fm > 0) == (fhi > 0):
			hi, fhi = mid, fm
		default:
			lo, flo = mid, fm
		}
	}
	return 0, fmt.Errorf("%w: tolerance %g not reached, final bracket [%g, %g]", ErrNoConverge, tol, lo, hi)
}

// NewtonBisect finds a root of f in [lo, hi] using Newton iterations guarded
// by a shrinking bisection bracket: a Newton step that leaves the bracket,
// or a non-finite/zero derivative, falls back to the bracket midpoint, so the
// method inherits bisection's guaranteed convergence while smooth functions
// converge quadratically. fd must return f(x) and f'(x); f(lo) and f(hi)
// must have opposite signs (−Inf/+Inf endpoint values bracket like any other
// sign). If 100 guarded iterations leave the bracket wider than tol, plain
// bisection finishes it. It is the solver behind the ecc package's planned
// FER inversions and the laser characteristic's inversion in photonics.
func NewtonBisect(fd func(float64) (fx, dfx float64), lo, hi, tol float64) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, _ := fd(lo)
	fhi, _ := fd(hi)
	switch {
	case flo == 0:
		return lo, nil
	case fhi == 0:
		return hi, nil
	case math.IsNaN(flo) || math.IsNaN(fhi):
		return 0, fmt.Errorf("%w: f is NaN at an endpoint", ErrNoBracket)
	case (flo > 0) == (fhi > 0):
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}
	x := 0.5 * (lo + hi)
	for i := 0; i < 100; i++ {
		fx, dfx := fd(x)
		switch {
		case fx == 0:
			return x, nil
		case math.IsNaN(fx):
			return 0, fmt.Errorf("%w: f(%g) is NaN", ErrNoConverge, x)
		case (fx > 0) == (fhi > 0):
			hi, fhi = x, fx
		default:
			lo = x
		}
		if hi-lo <= tol {
			return 0.5 * (lo + hi), nil
		}
		// Newton step, bracket-guarded: reject steps that leave (lo, hi)
		// or come from a flat/invalid derivative.
		nx := x - fx/dfx
		if math.IsInf(fx, 0) || dfx == 0 || math.IsNaN(nx) || nx <= lo || nx >= hi {
			nx = 0.5 * (lo + hi)
		}
		if math.Abs(nx-x) <= tol {
			return nx, nil
		}
		x = nx
	}
	// Newton steps can stay inside the bracket without shrinking it to tol
	// (an f known only to within its rounding noise near the root, or a
	// derivative off by a constant factor). Bisect what is left.
	return Bisect(func(x float64) float64 { f, _ := fd(x); return f }, lo, hi, tol)
}

// SolveMonotone solves f(x) == target for x in [lo, hi], assuming f is
// monotone (either direction) on the interval. It is the derivative-free
// reference inversion the planned Newton solves of the ecc package are
// tested against.
func SolveMonotone(f func(float64) float64, target, lo, hi, tol float64) (float64, error) {
	g := func(x float64) float64 { return f(x) - target }
	return Bisect(g, lo, hi, tol)
}
