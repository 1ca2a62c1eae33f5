package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFlipRandomRate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 200000
	v := New(n)
	const p = 0.01
	flips := FlipRandom(v, rng, p)
	if flips != v.PopCount() {
		t.Fatalf("reported %d flips, vector has %d", flips, v.PopCount())
	}
	// 5-sigma band around the binomial mean.
	mean := float64(n) * p
	sigma := 44.5 // sqrt(n·p·(1-p))
	if f := float64(flips); f < mean-5*sigma || f > mean+5*sigma {
		t.Errorf("flip count %d outside 5-sigma of %g", flips, mean)
	}
}

func TestFlipExactlyProperty(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		k := int(kRaw) % (n + 1)
		v := New(n)
		pos, err := FlipExactly(v, rng, k)
		if err != nil || len(pos) != k {
			return false
		}
		// Exactly k bits set, at exactly the reported positions.
		if v.PopCount() != k {
			return false
		}
		for _, p := range pos {
			if v.Bit(p) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if _, err := FlipExactly(New(4), rand.New(rand.NewSource(1)), 5); err == nil {
		t.Error("k > n should error")
	}
}

func TestBurstError(t *testing.T) {
	v := New(8)
	if err := BurstError(v, 6, 4); err != nil {
		t.Fatal(err)
	}
	// Wraps: positions 6,7,0,1.
	if v.String() != "11000011" {
		t.Errorf("burst result %q", v.String())
	}
	if err := BurstError(v, 8, 1); err == nil {
		t.Error("start out of range should error")
	}
	if err := BurstError(v, 0, 9); err == nil {
		t.Error("length out of range should error")
	}
}
