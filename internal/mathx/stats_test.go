package mathx

import "testing"

func TestWilsonInterval(t *testing.T) {
	// Zero successes still yields a usable upper bound (rule-of-three-like).
	lo, hi := WilsonInterval(0, 1000, 1.96)
	if lo != 0 {
		t.Errorf("lo = %g, want 0", lo)
	}
	if hi < 0.001 || hi > 0.01 {
		t.Errorf("hi = %g, want a few permille", hi)
	}
	// Interval must contain the point estimate.
	lo, hi = WilsonInterval(50, 1000, 1.96)
	if p := 0.05; lo > p || hi < p {
		t.Errorf("interval [%g, %g] excludes point estimate %g", lo, hi, p)
	}
	// Degenerate call.
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("n=0: [%g, %g], want [0, 1]", lo, hi)
	}
	// Wider confidence means a wider interval.
	lo95, hi95 := WilsonInterval(10, 100, 1.96)
	lo99, hi99 := WilsonInterval(10, 100, 2.58)
	if hi99-lo99 <= hi95-lo95 {
		t.Error("99% interval should be wider than 95%")
	}
}
