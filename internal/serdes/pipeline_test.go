package serdes

import (
	"math/rand"
	"testing"

	"photonoc/internal/ecc"
)

func TestPipelineCleanChannelIsLossless(t *testing.T) {
	for _, code := range ecc.PaperSchemes() {
		stats, err := RunPipeline(PipelineConfig{
			Code:  code,
			NData: 64,
			Lanes: 16,
			Rng:   rand.New(rand.NewSource(71)),
		}, 200)
		if err != nil {
			t.Fatalf("%s: %v", code.Name(), err)
		}
		if stats.ResidualBitErrors != 0 || stats.WordErrors != 0 {
			t.Errorf("%s: clean channel corrupted data: %+v", code.Name(), stats)
		}
		// Measured CT must equal the analytic n/k — the paper's Fig. 6
		// x-axis, observed on the wire rather than assumed.
		if got, want := stats.MeasuredCT(), ecc.CT(code); !close(got, want, 1e-12) {
			t.Errorf("%s: measured CT %g, want %g", code.Name(), got, want)
		}
	}
}

func TestPipelineCorrectsModerateNoise(t *testing.T) {
	// At raw BER 1e-3 the Hamming codes repair essentially everything
	// over this volume while uncoded transmission visibly corrupts.
	const words = 2000
	statsU, err := RunPipeline(PipelineConfig{
		Code: ecc.MustUncoded64(), NData: 64, Lanes: 16,
		RawBER: 1e-3, Rng: rand.New(rand.NewSource(72)),
	}, words)
	if err != nil {
		t.Fatal(err)
	}
	if statsU.ResidualBitErrors == 0 {
		t.Error("uncoded pipeline at 1e-3 should show residual errors")
	}
	stats74, err := RunPipeline(PipelineConfig{
		Code: ecc.MustHamming74(), NData: 64, Lanes: 16,
		RawBER: 1e-3, Rng: rand.New(rand.NewSource(73)),
	}, words)
	if err != nil {
		t.Fatal(err)
	}
	if stats74.CorrectedBits == 0 {
		t.Error("H(7,4) pipeline should have corrected something")
	}
	if stats74.ResidualBER() >= statsU.ResidualBER()/10 {
		t.Errorf("H(7,4) residual %g not ≪ uncoded %g", stats74.ResidualBER(), statsU.ResidualBER())
	}
}

func TestPipelineResidualMatchesEq2(t *testing.T) {
	// At a raw BER high enough for statistics, the pipeline's residual
	// BER must sit near the paper's Eq. 2 prediction (within 3x — block
	// errors cluster, so tolerance is loose but the order of magnitude
	// is pinned).
	const p = 0.01
	code := ecc.MustHamming7164()
	stats, err := RunPipeline(PipelineConfig{
		Code: code, NData: 64, Lanes: 16,
		RawBER: p, Rng: rand.New(rand.NewSource(74)),
	}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := ecc.PaperHammingBER(code.N(), p)
	got := stats.ResidualBER()
	if got < want/3 || got > want*3 {
		t.Errorf("residual BER %g vs Eq.2 %g (raw %g)", got, want, p)
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := RunPipeline(PipelineConfig{Code: ecc.MustHamming74(), NData: 64, Lanes: 16}, 1); err == nil {
		t.Error("nil RNG should be rejected")
	}
	if _, err := RunPipeline(PipelineConfig{
		Code: ecc.MustHamming74(), NData: 64, Lanes: 16,
		RawBER: -0.1, Rng: rand.New(rand.NewSource(1)),
	}, 1); err == nil {
		t.Error("negative BER should be rejected")
	}
	if _, err := RunPipeline(PipelineConfig{
		Code: ecc.MustHamming74(), NData: 63, Lanes: 16,
		Rng: rand.New(rand.NewSource(1)),
	}, 1); err == nil {
		t.Error("non-tiling Ndata should be rejected")
	}
}

// TestPipelinePerWordAllocations is the allocation-regression pin for the
// streaming pipeline: once the lane buffers and queues are warm, pushing
// more words through must not allocate per word (every block, lane and
// word moves through the EncodeWordInto / DecodeWordInto / PopLaneInto /
// PopWordInto seams into reused buffers). Measured as the marginal allocations
// between a short and a long run, amortized per extra word.
func TestPipelinePerWordAllocations(t *testing.T) {
	for _, code := range []ecc.Code{ecc.MustHamming7164(), ecc.MustHamming74()} {
		code := code
		t.Run(code.Name(), func(t *testing.T) {
			run := func(words int) float64 {
				return testing.AllocsPerRun(3, func() {
					if _, err := RunPipeline(PipelineConfig{
						Code: code, NData: 64, Lanes: 16,
						RawBER: 1e-3, Rng: rand.New(rand.NewSource(9)),
					}, words); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Both runs sit past the queue warm-up horizon (lane queues stop
			// growing once they reach their ~4096-bit compaction threshold,
			// after ≲1000 words), so the marginal cost is pure steady state.
			const short, long = 2000, 4000
			perWord := (run(long) - run(short)) / float64(long-short)
			// Queue growth is amortized and the block/lane buffers are
			// reused; anything approaching one allocation per word means a
			// hot-path regression.
			if perWord > 0.1 {
				t.Errorf("%s: %.3f allocs per word in steady state, want ~0", code.Name(), perWord)
			}
		})
	}
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*b+tol
}

func BenchmarkPipelineH7164(b *testing.B) {
	cfg := PipelineConfig{
		Code: ecc.MustHamming7164(), NData: 64, Lanes: 16,
		RawBER: 1e-4, Rng: rand.New(rand.NewSource(75)),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPipeline(cfg, 10); err != nil {
			b.Fatal(err)
		}
	}
}
