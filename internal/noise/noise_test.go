package noise

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
)

func TestOOKChannelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewOOKChannel(0, rng); err == nil {
		t.Error("SNR 0 should be rejected")
	}
	if _, err := NewOOKChannel(5, nil); err == nil {
		t.Error("nil RNG should be rejected")
	}
}

func TestMonteCarloRawBERMatchesEq3(t *testing.T) {
	// At moderate SNRs the sampled BER must bracket the analytic value.
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		snr   float64
		nbits int64
	}{
		{1.0, 200000},  // p ≈ 0.079
		{2.0, 200000},  // p ≈ 0.023
		{4.0, 500000},  // p ≈ 2.3e-3
		{6.0, 2000000}, // p ≈ 2.7e-4
	}
	for _, c := range cases {
		res, err := MonteCarloRawBER(c.snr, c.nbits, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Expected < res.LowCI || res.Expected > res.HighCI {
			t.Errorf("SNR %g: analytic %g outside Wilson CI [%g, %g] (sampled %g over %d bits)",
				c.snr, res.Expected, res.LowCI, res.HighCI, res.BER, res.Bits)
		}
	}
}

func TestTransmitCountsFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ch, err := NewOOKChannel(2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	sent := bits.New(10000)
	for i := 0; i < sent.Len(); i++ {
		sent.Set(i, rng.Intn(2))
	}
	v := sent.Clone()
	flips := ch.Transmit(v)
	d, err := bits.HammingDistance(sent, v)
	if err != nil {
		t.Fatal(err)
	}
	if d != flips {
		t.Errorf("reported %d flips, vector distance %d", flips, d)
	}
	if flips == 0 {
		t.Error("SNR 2 over 10k bits should flip something (p≈2.3%)")
	}
	if allocs := testing.AllocsPerRun(10, func() { ch.Transmit(v) }); allocs != 0 {
		t.Errorf("Transmit allocates %.1f objects per call, want 0", allocs)
	}
}

func TestImportanceSamplingReachesLowBER(t *testing.T) {
	// Plain MC would need ~1e11 bits at SNR 20 (p ≈ 1.3e-10); importance
	// sampling with a widened tail gets within a factor 2 using 2e6
	// samples.
	rng := rand.New(rand.NewSource(6))
	res, err := ImportanceSampledRawBER(20, 2000000, 3.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("widened sampler never hit the error region")
	}
	if ratio := res.BER / res.Expected; ratio < 0.5 || ratio > 2.0 {
		t.Errorf("IS estimate %g vs analytic %g (ratio %.2f)", res.BER, res.Expected, ratio)
	}
}

func TestImportanceSamplingDegeneratesToMC(t *testing.T) {
	// widen = 1 is plain Monte-Carlo on the '1' rail.
	rng := rand.New(rand.NewSource(7))
	res, err := ImportanceSampledRawBER(2.0, 500000, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expected < res.LowCI || res.Expected > res.HighCI {
		t.Errorf("degenerate IS %g CI [%g,%g] misses analytic %g", res.BER, res.LowCI, res.HighCI, res.Expected)
	}
}

func TestImportanceSamplingValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := ImportanceSampledRawBER(0, 100, 2, rng); err == nil {
		t.Error("SNR 0 should be rejected")
	}
	if _, err := ImportanceSampledRawBER(5, 100, 0.5, rng); err == nil {
		t.Error("widen < 1 should be rejected")
	}
	if _, err := ImportanceSampledRawBER(5, 100, 2, nil); err == nil {
		t.Error("nil RNG should be rejected")
	}
}

func BenchmarkOOKTransmit(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ch, err := NewOOKChannel(10, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ch.TransmitBit(i & 1)
	}
}
