package noise

import (
	"math/rand"
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/onoc"
	"photonoc/internal/serdes"
)

// TestPhysicalPipelineEndToEnd wires the whole reproduction together: the
// link solver turns a target BER into an SNR (Eq. 2 inverted + Eq. 1), the
// OOK channel realizes that SNR physically, the bit-true serdes path
// encodes/stripes/decodes, and the measured residual BER must land on the
// target. This is the strongest internal-consistency check in the repo.
func TestPhysicalPipelineEndToEnd(t *testing.T) {
	const target = 1e-3 // high enough for statistics over ~2M bits
	code := ecc.MustHamming74()
	snr, err := ecc.RequiredSNR(code, target)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	ch, err := NewOOKChannel(snr, rng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := serdes.RunPipeline(serdes.PipelineConfig{
		Code:    code,
		NData:   64,
		Lanes:   16,
		Channel: ch.Transmit,
		Rng:     rng,
	}, 30000) // 1.92M payload bits → ≈1900 expected residual errors
	if err != nil {
		t.Fatal(err)
	}
	if stats.InjectedErrors == 0 {
		t.Fatal("physical channel injected nothing")
	}
	got := stats.ResidualBER()
	if got < target/2 || got > target*2 {
		t.Errorf("end-to-end residual BER %.3e, want ≈%.0e (SNR %.3f)", got, target, snr)
	}
	// The raw injected rate should match Eq. 3's prediction for this SNR.
	rawRate := float64(stats.InjectedErrors) / float64(stats.CodedBits)
	want := ecc.RawBERFromSNR(snr)
	if rawRate < want*0.9 || rawRate > want*1.1 {
		t.Errorf("raw channel rate %.4e vs Eq.3 %.4e", rawRate, want)
	}
}

// TestPhysicalPipelineOnLinkSolvedSNR closes the loop with the optical
// solver: the worst-channel operating point for the paper's link at a
// moderate BER, realized as a physical channel, must deliver that BER.
func TestPhysicalPipelineOnLinkSolvedSNR(t *testing.T) {
	const target = 2e-3
	code := ecc.MustHamming7164()
	snr, err := ecc.RequiredSNR(code, target)
	if err != nil {
		t.Fatal(err)
	}
	// The optical solver would size the laser for exactly this SNR; check
	// that the delivered SNR (solved back from the operating point) is
	// the same number we hand to the channel.
	spec := onoc.PaperChannel()
	plan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.WorstOperatingPoint(snr)
	if err != nil {
		t.Fatal(err)
	}
	if !op.Feasible {
		t.Fatal("moderate-BER operating point should be feasible")
	}
	if op.SNR != snr {
		t.Fatalf("operating point SNR %g != requested %g", op.SNR, snr)
	}
	rng := rand.New(rand.NewSource(321))
	ch, err := NewOOKChannel(op.SNR, rng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := serdes.RunPipeline(serdes.PipelineConfig{
		Code:    code,
		NData:   64,
		Lanes:   16,
		Channel: ch.Transmit,
		Rng:     rng,
	}, 30000)
	if err != nil {
		t.Fatal(err)
	}
	got := stats.ResidualBER()
	if got < target/2 || got > target*2 {
		t.Errorf("link-solved SNR %.3f delivers BER %.3e, want ≈%.0e", op.SNR, got, target)
	}
}
