package ecc

import (
	"fmt"
	"math"

	"photonoc/internal/mathx"
)

// berModel is implemented by codes whose exact post-decoding BER replaces
// the generic t-indexed models (Repetition's majority vote). It returns the
// BER at raw flip probability p together with dBER/dp at the same point,
// the slope the planned Newton inversion runs on.
type berModel interface {
	postDecodeBER(p float64) (ber, dBERdP float64)
}

// FERPlan is the precomputed evaluation plan for one code's analytic error
// models: the log-domain binomial coefficients ln C(n, i), the derivative
// anchor ln C(n−1, t), and the model dispatch resolved once instead of per
// call. A plan turns FrameErrorRate into a t-term loop with no Lgamma calls,
// evaluates the union-bound tail by an incremental recurrence, and inverts
// both models with bisection-guarded Newton iterations using the analytic
// d lnBER / d lnp — the cold-solve hot path of the link configurator.
//
// Obtain plans through PlanFor; the zero value is not usable.
type FERPlan struct {
	code Code
	n, t int

	// lnC[i] = ln C(n, i) for i in [0, n].
	lnC []float64
	// lnCPrev = ln C(n−1, t): d/dp P(X ≤ t) = −n·C(n−1,t)·p^t·(1−p)^(n−1−t).
	lnCPrev float64

	// model is the code's exact post-decoding model, resolved at compile
	// time; nil means the generic t-indexed models apply.
	model berModel
}

// PlanFor returns the FER plan for code c. A code that is the scheme
// table's own instance (compared by identity, not name) gets the plan the
// table carries; any other code has its plan compiled, one pass of
// log-gamma per binomial row. Plans are immutable, so a caller that solves
// the same code repeatedly holds on to its plan (the engine keeps one per
// scheme).
func PlanFor(c Code) *FERPlan {
	for _, s := range schemeTable() {
		if s.code == c {
			return s.plan
		}
	}
	return compilePlan(c)
}

// compilePlan compiles a fresh FER plan for c.
func compilePlan(c Code) *FERPlan {
	n, t := c.N(), c.T()
	p := &FERPlan{code: c, n: n, t: t, lnC: make([]float64, n+1)}
	for i := 0; i <= n; i++ {
		p.lnC[i] = lchoose(n, i)
	}
	if t <= n-1 {
		p.lnCPrev = lchoose(n-1, t)
	}
	p.model, _ = c.(berModel)
	return p
}

// Code returns the code the plan was compiled for.
func (p *FERPlan) Code() Code { return p.code }

// FrameErrorRate returns the probability that a whole received codeword
// cannot be decoded to the transmitted one at raw bit error probability pe:
// P(more than t errors in n bits), so 1 − (1−pe)^n for uncoded
// transmission (any flip ruins the word). It is computed from the small
// side with the plan's ln C(n, i) row — bit-identical to the unplanned
// log-gamma sum, minus the per-term log-gamma evaluations.
func (p *FERPlan) FrameErrorRate(pe float64) float64 {
	if pe <= 0 {
		return 0
	}
	if pe >= 1 {
		return 1
	}
	lnP, ln1mP := math.Log(pe), math.Log1p(-pe)
	var ok float64
	for i := 0; i <= p.t; i++ {
		ok += math.Exp(p.lnC[i] + float64(i)*lnP + float64(p.n-i)*ln1mP)
	}
	return math.Min(math.Max(1-ok, 0), 1)
}

// ferTail evaluates the frame error rate by its direct binomial tail,
//
//	P(X > t) = Σ_{i=t+1}^{n} C(n, i)·p^i·(1−p)^(n−i),
//
// via the incremental term recurrence b_{i+1} = b_i·(n−i)/(i+1)·p/q, along
// with dFER/dp from the binomial-CDF identity
// d/dp P(X > t) = n·C(n−1, t)·p^t·(1−p)^(n−1−t).
//
// Unlike the 1 − Σ_head formulation of FrameErrorRate (kept bit-compatible
// with the historical helper), the direct tail stays accurate to a few ulp
// even where the head sum cancels catastrophically (FER ≪ 1e-10), which is
// exactly where the Newton inversion needs a well-conditioned function.
func (p *FERPlan) ferTail(pe float64) (fer, dFERdP float64) {
	if pe <= 0 {
		return 0, 0
	}
	if pe >= 1 {
		return 1, 0
	}
	n, t := p.n, p.t
	lnP, ln1mP := math.Log(pe), math.Log1p(-pe)
	q := 1 - pe
	ratio := pe / q

	i0 := t + 1
	term := math.Exp(p.lnC[i0] + float64(i0)*lnP + float64(n-i0)*ln1mP)
	sum := term
	for i := i0; i < n; i++ {
		term *= float64(n-i) / float64(i+1) * ratio
		if term == 0 {
			break // underflow: every later term is smaller still
		}
		sum += term
	}
	if sum >= 1 {
		return 1, 0
	}
	return sum, math.Exp(math.Log(float64(n)) + p.lnCPrev + float64(t)*lnP + float64(n-1-t)*ln1mP)
}

// PostDecodeBER returns the post-decoding BER at raw bit error probability
// pe: the code's exact model first (repetition's majority vote), then
// pass-through (t = 0, uncoded and detect-only codes), the paper's Eq. 2
// (t = 1), or the union bound (t ≥ 2) with its tail evaluated by the
// incremental term recurrence.
func (p *FERPlan) PostDecodeBER(pe float64) float64 {
	ber, _ := p.postDecode(pe)
	return ber
}

// postDecode is the one dispatch over the post-decoding models: the BER at
// raw bit error probability pe and its slope dBER/dp, the pair the Newton
// inversion runs on.
func (p *FERPlan) postDecode(pe float64) (ber, dBERdP float64) {
	switch {
	case p.model != nil:
		return p.model.postDecodeBER(pe)
	case pe <= 0:
		return 0, 0
	case pe >= 1:
		return 1, 0
	case p.t == 0:
		return pe, 1
	case p.t == 1:
		return eq2(p.n, pe)
	default:
		return p.unionTail(pe)
	}
}

// unionTail evaluates the union-bound post-decoding BER at pe in (0, 1),
//
//	(1/n) · Σ_{i=t+1}^{n} (i + t) · C(n, i) · p^i · (1−p)^(n−i)
//
// and its derivative dBER/dp in one pass. Only the first term pays an Exp;
// successive binomial terms follow from b_{i+1} = b_i · (n−i)/(i+1) · p/q,
// and each term's derivative is b_i · (i/p − (n−i)/q).
func (p *FERPlan) unionTail(pe float64) (ber, dBERdP float64) {
	n, t := p.n, p.t
	lnP, ln1mP := math.Log(pe), math.Log1p(-pe)
	q := 1 - pe
	ratio := pe / q

	i0 := t + 1
	term := math.Exp(p.lnC[i0] + float64(i0)*lnP + float64(n-i0)*ln1mP)
	sum := float64(i0+t) * term
	dsum := float64(i0+t) * term * (float64(i0)/pe - float64(n-i0)/q)
	for i := i0; i < n; i++ {
		term *= float64(n-i) / float64(i+1) * ratio
		if term == 0 {
			break // underflow: every later term is smaller still
		}
		w := float64(i + 1 + t)
		sum += w * term
		dsum += w * term * (float64(i+1)/pe - float64(n-i-1)/q)
	}
	nf := float64(n)
	if sum/nf >= 1 {
		return 1, 0
	}
	return sum / nf, dsum / nf
}

// Search bracket shared by both planned inversions, matching the unplanned
// solvers: ln p over [1e-18, 0.4999].
var (
	lnPLo = math.Log(1e-18)
	lnPHi = math.Log(0.4999)
)

// newtonTol is the ln-p convergence tolerance of the planned inversions —
// tighter than the 1e-12 of the legacy bisection so that planned and legacy
// roots agree to well under 1e-12 relative.
const newtonTol = 1e-13

// RequiredRawBER inverts PostDecodeBER: the raw channel bit error
// probability at which the post-decoding BER equals target.
func (p *FERPlan) RequiredRawBER(target float64) (float64, error) {
	if !(target > 0 && target < 0.5) {
		return 0, fmt.Errorf("ecc: target BER %g outside (0, 0.5)", target)
	}
	return p.invert(target, "BER", p.postDecode)
}

// RequiredRawBERForFER inverts the frame error rate: the raw channel bit
// error probability at which the code's FER equals target.
//
// The solve runs on the direct binomial-tail evaluation (see ferTail),
// which stays well-conditioned at deep targets where the historical
// 1 − Σ_head formulation only defines the FER to ≈2e-16/target relative;
// within that intrinsic roundoff band the returned root is the accurate one.
func (p *FERPlan) RequiredRawBERForFER(target float64) (float64, error) {
	if !(target > 0 && target < 1) {
		return 0, fmt.Errorf("ecc: target FER %g outside (0, 1)", target)
	}
	return p.invert(target, "FER", p.ferTail)
}

// invert solves f(p) = target for p with bisection-guarded Newton
// iterations on ln p, where f returns its value and slope d/dp; the
// log-log slope d ln f / d ln p = p·f'/f is the Newton derivative.
func (p *FERPlan) invert(target float64, what string, f func(float64) (float64, float64)) (float64, error) {
	lnT := math.Log(target)
	fd := func(lnP float64) (float64, float64) {
		pe := math.Exp(lnP)
		v, d := f(pe)
		if v <= 0 {
			return math.Inf(-1), 0
		}
		return math.Log(v) - lnT, pe * d / v
	}
	lnP, err := mathx.NewtonBisect(fd, lnPLo, lnPHi, newtonTol)
	if err != nil {
		return 0, fmt.Errorf("ecc: %s: inverting %s %g: %w", p.code.Name(), what, target, err)
	}
	return math.Exp(lnP), nil
}
