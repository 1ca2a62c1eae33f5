package ecc

import (
	"math"
	"testing"

	"photonoc/internal/mathx"
)

func TestSNRBERRoundTrip(t *testing.T) {
	// Property: RawBERFromSNR(SNRForRawBER(p)) == p across the whole range.
	for _, p := range mathx.Logspace(1e-14, 0.4, 200) {
		snr, err := SNRForRawBER(p)
		if err != nil {
			t.Fatalf("SNRForRawBER(%g): %v", p, err)
		}
		back := RawBERFromSNR(snr)
		if !approx(back/p, 1, 1e-9) {
			t.Fatalf("roundtrip p=%g → snr=%g → %g", p, snr, back)
		}
	}
}

func TestSNRForRawBERPaperOperatingPoints(t *testing.T) {
	// Uncoded BER 1e-11 needs SNR ≈ 22.49 (√SNR ≈ 4.742); BER 1e-12 ≈ 24.74.
	snr11, err := SNRForRawBER(1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(snr11, 22.485, 1e-3) {
		t.Errorf("SNR@1e-11 = %g, want ≈22.49", snr11)
	}
	snr12, err := SNRForRawBER(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(snr12, 24.742, 1e-3) {
		t.Errorf("SNR@1e-12 = %g, want ≈24.74", snr12)
	}
	if snr12 <= snr11 {
		t.Error("tighter BER must require more SNR")
	}
}

func TestSNRForRawBERValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, 0.6, 1} {
		if _, err := SNRForRawBER(bad); err == nil {
			t.Errorf("SNRForRawBER(%g) should error", bad)
		}
	}
	if RawBERFromSNR(-1) != 0.5 {
		t.Error("negative SNR should saturate at 0.5")
	}
}

func TestPaperHammingBERLeadingOrder(t *testing.T) {
	// For small p, Eq. 2 behaves as (n−1)p².
	for _, n := range []int{7, 71, 127} {
		p := 1e-7
		got := PaperHammingBER(n, p)
		want := float64(n-1) * p * p
		if !approx(got/want, 1, 1e-3) {
			t.Errorf("n=%d: Eq2(%g) = %g, leading order %g", n, p, got, want)
		}
	}
	if PaperHammingBER(7, 0) != 0 || PaperHammingBER(7, 1) != 1 {
		t.Error("Eq2 boundary values wrong")
	}
}

func TestPaperHammingBERMonotone(t *testing.T) {
	prev := 0.0
	for _, p := range mathx.Logspace(1e-12, 0.4, 100) {
		cur := PaperHammingBER(71, p)
		if cur <= prev {
			t.Fatalf("Eq2 not strictly increasing at p=%g", p)
		}
		prev = cur
	}
}

func TestUnionBoundBER(t *testing.T) {
	// Leading order for t=2: ((t+1+t)/n)·C(n,3)·p³ = (5/n)·C(n,3)·p³.
	n, tt, p := 15, 2, 1e-6
	got := UnionBoundBER(n, tt, p)
	want := 5.0 / 15 * 455 * p * p * p // C(15,3)=455
	if !approx(got/want, 1, 1e-3) {
		t.Errorf("union bound = %g, leading order %g", got, want)
	}
	if UnionBoundBER(15, 2, 0) != 0 || UnionBoundBER(15, 2, 1) != 1 {
		t.Error("union bound boundaries wrong")
	}
	// Saturation: at p=0.5 the bound must stay within [0,1].
	if v := UnionBoundBER(127, 2, 0.5); v < 0 || v > 1 {
		t.Errorf("union bound out of range: %g", v)
	}
}

func TestPostDecodeBERDispatch(t *testing.T) {
	p := 1e-4
	// Uncoded: pass-through (t = 0).
	if got := PlanFor(MustUncoded64()).PostDecodeBER(p); got != p {
		t.Errorf("uncoded: %g", got)
	}
	// Hamming: Eq. 2.
	if got := PlanFor(MustHamming74()).PostDecodeBER(p); !approx(got, PaperHammingBER(7, p), 1e-12) {
		t.Errorf("H(7,4) dispatch: %g", got)
	}
	// BCH: union bound.
	if got := PlanFor(MustBCH157()).PostDecodeBER(p); !approx(got, UnionBoundBER(15, 2, p), 1e-12) {
		t.Errorf("BCH dispatch: %g", got)
	}
	// Repetition: exact model.
	rep, _ := NewRepetition(1, 3)
	if got := PlanFor(rep).PostDecodeBER(p); !approx(got, 3*p*p*(1-p)+p*p*p, 1e-12) {
		t.Errorf("repetition dispatch: %g", got)
	}
}

func TestRequiredRawBERRoundTrip(t *testing.T) {
	// Property: PostDecodeBER(RequiredRawBER(target)) == target for
	// every scheme and BER in the paper's sweep range.
	for _, c := range ExtendedSchemes() {
		for _, target := range mathx.Logspace(1e-12, 1e-3, 10) {
			p, err := PlanFor(c).RequiredRawBER(target)
			if err != nil {
				t.Fatalf("%s @ %g: %v", c.Name(), target, err)
			}
			back := PlanFor(c).PostDecodeBER(p)
			if !approx(back/target, 1, 1e-6) {
				t.Fatalf("%s @ %g: raw %g gives %g", c.Name(), target, p, back)
			}
		}
	}
}

func TestRequiredRawBERPaperValues(t *testing.T) {
	// At target 1e-11: H(7,4) tolerates raw p ≈ 1.29e-6 and H(71,64)
	// p ≈ 3.78e-7 — the relaxation that lets the laser power drop ~50%.
	p74, err := PlanFor(MustHamming74()).RequiredRawBER(1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if p74 < 1.2e-6 || p74 > 1.4e-6 {
		t.Errorf("H(7,4) raw BER @1e-11 = %g, want ≈1.29e-6", p74)
	}
	p7164, err := PlanFor(MustHamming7164()).RequiredRawBER(1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if p7164 < 3.5e-7 || p7164 > 4.1e-7 {
		t.Errorf("H(71,64) raw BER @1e-11 = %g, want ≈3.78e-7", p7164)
	}
	// The stronger per-block corrector tolerates the higher raw rate.
	if p74 <= p7164 {
		t.Error("H(7,4) should tolerate a higher raw error rate than H(71,64)")
	}
}

func TestRequiredRawBERValidation(t *testing.T) {
	if _, err := PlanFor(MustHamming74()).RequiredRawBER(0); err == nil {
		t.Error("target 0 should error")
	}
	if _, err := PlanFor(MustHamming74()).RequiredRawBER(0.5); err == nil {
		t.Error("target 0.5 should error")
	}
}

func TestCodingGainPositiveAndOrdered(t *testing.T) {
	// Both Hamming codes show positive coding gain at 1e-11, H(7,4) more.
	g74, err := CodingGainDB(MustHamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	g7164, err := CodingGainDB(MustHamming7164(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if g74 <= 0 || g7164 <= 0 {
		t.Errorf("coding gains must be positive: %g, %g", g74, g7164)
	}
	if g74 <= g7164 {
		t.Errorf("H(7,4) gain %g should exceed H(71,64) gain %g", g74, g7164)
	}
	// Sanity: gains are a handful of dB, not orders of magnitude.
	if g74 > 10 {
		t.Errorf("H(7,4) gain %g dB implausibly large", g74)
	}
}

func TestRequiredSNRDecreasesWithStrongerCode(t *testing.T) {
	target := 1e-11
	snrU, _ := SNRForRawBER(target)
	snr7164, err := RequiredSNR(MustHamming7164(), target)
	if err != nil {
		t.Fatal(err)
	}
	snr74, err := RequiredSNR(MustHamming74(), target)
	if err != nil {
		t.Fatal(err)
	}
	if !(snr74 < snr7164 && snr7164 < snrU) {
		t.Errorf("SNR ordering wrong: %g (H74) vs %g (H7164) vs %g (uncoded)", snr74, snr7164, snrU)
	}
	// Paper-scale check: roughly half the SNR with H(7,4).
	if ratio := snr74 / snrU; ratio < 0.4 || ratio > 0.6 {
		t.Errorf("H(7,4)/uncoded SNR ratio = %g, want ≈0.5", ratio)
	}
}

func TestBinomialTermAgainstDirect(t *testing.T) {
	// Small cases computable directly.
	if got := binomialTerm(4, 2, 0.5); !approx(got, 6.0/16, 1e-12) {
		t.Errorf("C(4,2)/16 = %g", got)
	}
	if got := binomialTerm(10, 0, 0.1); !approx(got, math.Pow(0.9, 10), 1e-12) {
		t.Errorf("(1-p)^10 = %g", got)
	}
}
