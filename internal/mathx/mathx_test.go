package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBRoundTrip(t *testing.T) {
	prop := func(raw float64) bool {
		db := math.Mod(raw, 100) // keep in a sane dB range
		return ApproxEqual(DB(FromDB(db)), db, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if got := DB(10); !ApproxEqual(got, 10, 1e-12) {
		t.Errorf("DB(10) = %g, want 10", got)
	}
	if got := FromDB(3); !ApproxEqual(got, 1.9952623149688795, 1e-12) {
		t.Errorf("FromDB(3) = %g", got)
	}
	if got := DB(0); !math.IsInf(got, -1) {
		t.Errorf("DB(0) = %g, want -Inf", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%g,%g,%g) = %g, want %g", c.x, c.lo, c.hi, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Clamp with inverted bounds should panic")
		}
	}()
	Clamp(0, 1, -1)
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !ApproxEqual(got[i], want[i], 1e-12) {
			t.Errorf("Linspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if got[len(got)-1] != 1 {
		t.Error("Linspace must hit the upper bound exactly")
	}
}

func TestLogspace(t *testing.T) {
	got := Logspace(1e-12, 1e-3, 10)
	if got[0] != 1e-12 || got[len(got)-1] != 1e-3 {
		t.Fatalf("Logspace endpoints %g, %g", got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("Logspace not increasing at %d: %g <= %g", i, got[i], got[i-1])
		}
		ratio := got[i] / got[i-1]
		if !ApproxEqual(ratio, 10.0, 1e-9) {
			t.Errorf("Logspace ratio at %d = %g, want 10", i, ratio)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1e12, 1e12*(1+1e-13), 1e-12) {
		t.Error("large values within rel tol should be equal")
	}
	if ApproxEqual(1.0, 1.1, 1e-3) {
		t.Error("1.0 vs 1.1 at 1e-3 should differ")
	}
	if !ApproxEqual(0, 1e-15, 1e-12) {
		t.Error("tiny absolute difference should be equal")
	}
}
