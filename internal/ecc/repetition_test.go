package ecc

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
)

func TestRepetitionValidation(t *testing.T) {
	if _, err := NewRepetition(0, 3); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewRepetition(4, 2); err == nil {
		t.Error("even factor should fail")
	}
	if _, err := NewRepetition(4, 1); err == nil {
		t.Error("factor 1 should fail")
	}
}

func TestRepetitionRoundTripAndCorrection(t *testing.T) {
	code, err := NewRepetition(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if code.N() != 24 || code.K() != 8 || code.T() != 1 {
		t.Fatalf("dims: %s", Describe(code))
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		data := randomData(rng, 8)
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		// One flip in every 3-bit block is always repaired.
		for i := 0; i < 8; i++ {
			word.Flip(i*3 + rng.Intn(3))
		}
		got, info, err := decode(code, word)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(data) {
			t.Fatal("per-block single flips not corrected")
		}
		if info.Corrected != 8 {
			t.Errorf("Corrected = %d, want 8", info.Corrected)
		}
	}
}

func TestRepetitionFiveWayCorrectsTwoPerBlock(t *testing.T) {
	code, err := NewRepetition(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if code.T() != 2 {
		t.Fatalf("T = %d, want 2", code.T())
	}
	rng := rand.New(rand.NewSource(20))
	data := randomData(rng, 4)
	word, err := encode(code, data)
	if err != nil {
		t.Fatal(err)
	}
	// Two flips in one block.
	word.Flip(5)
	word.Flip(7)
	got, _, err := decode(code, word)
	if err != nil || !got.Equal(data) {
		t.Error("two flips within a 5-way block should be repaired")
	}
}

func TestRepetitionExactBERModel(t *testing.T) {
	// The closed form 3p²−2p³ for triple repetition.
	code, err := NewRepetition(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{1e-4, 1e-3, 0.01, 0.1, 0.3} {
		want := 3*p*p*(1-p) + p*p*p
		if got, _ := code.postDecodeBER(p); !approx(got, want, 1e-9) {
			t.Errorf("PostDecodeBER(%g) = %g, want %g", p, got, want)
		}
	}
	if got, _ := code.postDecodeBER(0); got != 0 {
		t.Errorf("PostDecodeBER(0) = %g", got)
	}
}

func TestRepetitionModelMatchesMonteCarlo(t *testing.T) {
	// Cross-check the analytic majority-vote BER against simulation at a
	// high error rate where sampling is cheap.
	code, err := NewRepetition(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.05
	rng := rand.New(rand.NewSource(21))
	errors, total := 0, 0
	for trial := 0; trial < 2000; trial++ {
		data := randomData(rng, 16)
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		bits.FlipRandom(word, rng, p)
		got, _, err := decode(code, word)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if got.Bit(i) != data.Bit(i) {
				errors++
			}
			total++
		}
	}
	sim := float64(errors) / float64(total)
	want, _ := code.postDecodeBER(p)
	if sim < want*0.8 || sim > want*1.2 {
		t.Errorf("simulated BER %g vs model %g (>20%% apart)", sim, want)
	}
}
