package ecc

import (
	"math"
	"math/rand"
	"testing"

	"photonoc/internal/bits"
	"photonoc/internal/mathx"
)

func TestFrameErrorRateKnownValues(t *testing.T) {
	// Uncoded n=64, t=0: FER = 1 − (1−p)^64.
	p := 1e-3
	got := PlanFor(MustUncoded64()).FrameErrorRate(p)
	want := 1 - math.Pow(1-p, 64)
	if !approx(got, want, 1e-12) {
		t.Errorf("uncoded FER = %g, want %g", got, want)
	}
	// H(7,4), t=1: FER = 1 − (1−p)^7 − 7p(1−p)^6.
	got = PlanFor(MustHamming74()).FrameErrorRate(p)
	want = 1 - math.Pow(1-p, 7) - 7*p*math.Pow(1-p, 6)
	if !approx(got, want, 1e-9) {
		t.Errorf("H(7,4) FER = %g, want %g", got, want)
	}
	// Boundaries.
	if PlanFor(MustHamming74()).FrameErrorRate(0) != 0 || PlanFor(MustHamming74()).FrameErrorRate(1) != 1 {
		t.Error("FER boundaries wrong")
	}
}

func TestFrameErrorRateMonotoneAndOrdered(t *testing.T) {
	// More correction → lower FER at the same channel quality.
	for _, p := range mathx.Logspace(1e-6, 1e-2, 10) {
		ferU := PlanFor(MustUncoded64()).FrameErrorRate(p)
		fer74 := PlanFor(MustHamming74()).FrameErrorRate(p)
		ferBCH := PlanFor(MustBCH157()).FrameErrorRate(p)
		if !(ferBCH < fer74 && fer74 < ferU) {
			t.Fatalf("p=%g: FER ordering wrong: %g, %g, %g", p, ferBCH, fer74, ferU)
		}
	}
	prev := 0.0
	for _, p := range mathx.Logspace(1e-8, 0.3, 50) {
		cur := PlanFor(MustHamming7164()).FrameErrorRate(p)
		if cur <= prev {
			t.Fatalf("FER not increasing at p=%g", p)
		}
		prev = cur
	}
}

func TestFrameErrorRateMatchesMonteCarlo(t *testing.T) {
	// Empirical frame failures at p = 0.02 over many H(7,4) words.
	code := MustHamming74()
	const p = 0.02
	rng := rand.New(rand.NewSource(91))
	fails := 0
	const words = 30000
	for w := 0; w < words; w++ {
		data := randomData(rng, code.K())
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		bits.FlipRandom(word, rng, p)
		got, _, err := decode(code, word)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(data) {
			fails++
		}
	}
	sim := float64(fails) / words
	want := PlanFor(code).FrameErrorRate(p)
	if sim < want*0.8 || sim > want*1.2 {
		t.Errorf("simulated FER %g vs analytic %g", sim, want)
	}
}

func TestRequiredRawBERForFERRoundTrip(t *testing.T) {
	for _, code := range PaperSchemes() {
		for _, target := range []float64{1e-9, 1e-6, 1e-3} {
			p, err := PlanFor(code).RequiredRawBERForFER(target)
			if err != nil {
				t.Fatalf("%s @ %g: %v", code.Name(), target, err)
			}
			back := PlanFor(code).FrameErrorRate(p)
			if !approx(back/target, 1, 1e-6) {
				t.Errorf("%s: FER roundtrip %g → %g", code.Name(), target, back)
			}
		}
	}
	if _, err := PlanFor(MustHamming74()).RequiredRawBERForFER(0); err == nil {
		t.Error("FER 0 should be rejected")
	}
	if _, err := PlanFor(MustHamming74()).RequiredRawBERForFER(1); err == nil {
		t.Error("FER 1 should be rejected")
	}
}
