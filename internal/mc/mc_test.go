package mc

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
)

// wilsonSigma converts a Result's Wilson interval into a rough standard
// error, for combined z-tests between two estimates.
func wilsonSigma(lo, hi float64) float64 { return (hi - lo) / 2 / 1.96 }

// TestSlicedMatchesScalarWithin3Sigma is the estimator cross-validation of
// the acceptance criteria: for every registry scheme, the bit-sliced BER and
// FER estimates must agree with the scalar per-frame path within 3 combined
// Wilson sigmas. The two kernels draw from unrelated RNG streams, so this is
// a genuine two-sample consistency check.
func TestSlicedMatchesScalarWithin3Sigma(t *testing.T) {
	const p = 1e-2
	const frames = 1 << 17
	for _, code := range ecc.ExtendedSchemes() {
		code := code
		t.Run(code.Name(), func(t *testing.T) {
			ctx := context.Background()
			sl, err := Run(ctx, code, p, Options{Frames: frames, Seed: 31, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Run(ctx, code, p, Options{Frames: frames, Seed: 32, Shards: 4, ForceScalar: true})
			if err != nil {
				t.Fatal(err)
			}
			if sc.Sliced {
				t.Fatal("ForceScalar run reported the sliced kernel")
			}
			checkAgree := func(name string, a, aLo, aHi, b, bLo, bHi float64) {
				sig := math.Hypot(wilsonSigma(aLo, aHi), wilsonSigma(bLo, bHi))
				if diff := math.Abs(a - b); diff > 3*sig {
					t.Errorf("%s: sliced %g vs scalar %g differ by %g > 3σ=%g", name, a, b, diff, 3*sig)
				}
			}
			checkAgree("BER", sl.BER, sl.BERLow, sl.BERHigh, sc.BER, sc.BERLow, sc.BERHigh)
			checkAgree("FER", sl.FER, sl.FERLow, sl.FERHigh, sc.FER, sc.FERLow, sc.FERHigh)
		})
	}
}

// exactFER returns the exact analytic frame-failure probability for the
// registry schemes. For single-block bounded-distance decoders the binomial
// tail P(>t errors) is exact (≤t errors are always corrected; >t always
// fail, by miscorrection or detection). Repetition is the exception: errors
// spread across the k independent triplets are all corrected, so its exact
// FER is 1−(1−B)^k with B the exact majority-vote bit error probability.
func exactFER(c ecc.Code, p float64) float64 {
	plan := ecc.PlanFor(c)
	if rep, ok := c.(*ecc.Repetition); ok {
		return 1 - math.Pow(1-plan.PostDecodeBER(p), float64(rep.K()))
	}
	return plan.FrameErrorRate(p)
}

// TestMCMatchesAnalyticWithin3Sigma validates the measured rates against the
// analytic ecc plans across the registry roster: FER against the exact
// frame-failure probability for every scheme, and BER against the exact
// models where one exists (uncoded and parity pass the channel through;
// repetition's majority-vote expression is exact). The t ≥ 1 BER models
// (Eq. 2, union bound) are approximations, checked as an order-of-magnitude
// band instead.
func TestMCMatchesAnalyticWithin3Sigma(t *testing.T) {
	const p = 1e-2
	const frames = 1 << 18
	for _, code := range ecc.ExtendedSchemes() {
		code := code
		t.Run(code.Name(), func(t *testing.T) {
			res, err := Run(context.Background(), code, p, Options{Frames: frames, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			wantFER := exactFER(code, p)
			if sig := wilsonSigma(res.FERLow, res.FERHigh); math.Abs(res.FER-wantFER) > 3*sig {
				t.Errorf("FER %g vs exact analytic %g differ by more than 3σ=%g (tail prediction %g)",
					res.FER, wantFER, 3*sig, res.ExpectedFER)
			}
			switch code.(type) {
			case *ecc.Uncoded, *ecc.Repetition:
				if sig := wilsonSigma(res.BERLow, res.BERHigh); math.Abs(res.BER-res.ExpectedBER) > 3*sig {
					t.Errorf("BER %g vs exact analytic %g differ by more than 3σ=%g",
						res.BER, res.ExpectedBER, 3*sig)
				}
			default:
				if code.T() == 0 {
					// Parity: detection never rewrites data, BER = p exactly.
					if sig := wilsonSigma(res.BERLow, res.BERHigh); math.Abs(res.BER-p) > 3*sig {
						t.Errorf("BER %g vs raw p %g differ by more than 3σ=%g", res.BER, p, 3*sig)
					}
				} else if res.ExpectedBER > 0 {
					// Eq. 2 / union bound are models, not exact laws: pin the
					// order of magnitude (the historical noise-test band).
					if ratio := res.BER / res.ExpectedBER; ratio < 0.4 || ratio > 2.5 {
						t.Errorf("BER %g vs model %g (ratio %.2f)", res.BER, res.ExpectedBER, ratio)
					}
				}
			}
		})
	}
}

// TestShardDeterminism pins the reproducibility contract: same root seed and
// shard count ⇒ identical counts, across repeated runs and across worker
// counts, with and without early stopping.
func TestShardDeterminism(t *testing.T) {
	code := ecc.MustHamming7164()
	for _, opts := range []Options{
		{Frames: 50_000, Seed: 7, Shards: 8},
		{Frames: 2_000_000, Seed: 7, Shards: 8, TargetRelErr: 0.2},
	} {
		var ref Result
		for i, workers := range []int{1, 2, 4, 2} {
			o := opts
			o.Workers = workers
			res, err := Run(context.Background(), code, 1e-3, o)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = res
				continue
			}
			if res.Frames != ref.Frames || res.BitErrors != ref.BitErrors ||
				res.FrameErrors != ref.FrameErrors || res.CorrectedBits != ref.CorrectedBits ||
				res.DetectedFrames != ref.DetectedFrames || res.Converged != ref.Converged {
				t.Errorf("workers=%d diverged from workers=1: %+v vs %+v", workers, res, ref)
			}
		}
	}
}

// TestShardCountChangesStreams is the contrapositive of the contract: a
// different shard count is a different experiment.
func TestShardCountChangesStreams(t *testing.T) {
	code := ecc.MustHamming74()
	a, err := Run(context.Background(), code, 5e-2, Options{Frames: 100_000, Seed: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), code, 5e-2, Options{Frames: 100_000, Seed: 3, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.BitErrors == b.BitErrors && a.FrameErrors == b.FrameErrors {
		t.Error("different shard counts produced identical counts; streams are not shard-keyed")
	}
}

// TestEarlyStopping checks that TargetRelErr actually truncates the run and
// marks the result converged, and that the truncated estimate still covers
// the analytic value.
func TestEarlyStopping(t *testing.T) {
	code := ecc.MustHamming74()
	const p = 5e-2
	res, err := Run(context.Background(), code, p, Options{
		Frames: 50_000_000, Seed: 11, Shards: 4, TargetRelErr: 0.1, BatchWords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run at p=5e-2 with 10% target should converge long before 50M frames")
	}
	if res.Frames >= 50_000_000 {
		t.Errorf("early stop did not truncate: %d frames", res.Frames)
	}
	if half := (res.FERHigh - res.FERLow) / 2; half > 0.11*res.FER {
		t.Errorf("converged with half-width %g > 10%% of FER %g", half, res.FER)
	}
}

// TestProgressStreams checks the streaming aggregation: snapshots arrive in
// nondecreasing frame order and the last one matches the returned result.
func TestProgressStreams(t *testing.T) {
	code := ecc.MustHamming74()
	var snaps []Result
	res, err := Run(context.Background(), code, 1e-2, Options{
		Frames: 300_000, Seed: 5, Shards: 4, BatchWords: 128,
		Progress: func(r Result) { snaps = append(snaps, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("expected multiple progress rounds, got %d", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Frames <= snaps[i-1].Frames {
			t.Errorf("snapshot %d frames %d not increasing", i, snaps[i].Frames)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Frames != res.Frames || last.BitErrors != res.BitErrors {
		t.Errorf("final snapshot %+v disagrees with result %+v", last, res)
	}
}

// TestCancellation: a canceled context aborts the run promptly with the
// context's error, even when early stopping would otherwise keep it going.
func TestCancellation(t *testing.T) {
	code := ecc.MustHamming7164()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Effectively unbounded volume with an unreachable precision target.
		_, err := Run(ctx, code, 1e-6, Options{
			Frames: 1 << 40, Seed: 1, Shards: 4, TargetRelErr: 1e-9, Workers: 2,
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not abort the run")
	}
}

// TestValidation pins the boundary errors.
func TestValidation(t *testing.T) {
	ctx := context.Background()
	code := ecc.MustHamming74()
	if _, err := Run(ctx, nil, 1e-3, Options{Frames: 64}); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := Run(ctx, code, -0.1, Options{Frames: 64}); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := Run(ctx, code, 1.0, Options{Frames: 64}); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := Run(ctx, code, 1e-3, Options{}); err == nil {
		t.Error("zero Frames accepted")
	}
	if _, err := Run(ctx, code, 1e-3, Options{Frames: 64, TargetRelErr: -1}); err == nil {
		t.Error("negative TargetRelErr accepted")
	}
	if _, err := Run(ctx, code, 1e-3, Options{Frames: 64, Shards: MaxShards + 1}); err == nil {
		t.Error("shards above MaxShards accepted")
	}
}

// TestZeroErrorChannel: p = 0 must produce zero errors and full volume.
func TestZeroErrorChannel(t *testing.T) {
	res, err := Run(context.Background(), ecc.MustHamming7164(), 0, Options{Frames: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != 0 || res.FrameErrors != 0 || res.CorrectedBits != 0 {
		t.Errorf("clean channel produced errors: %+v", res)
	}
	if res.Frames < 10_000 {
		t.Errorf("simulated %d frames, want >= 10000", res.Frames)
	}
}

// BenchmarkThroughputSliced is the tracked mc_throughput workload: H(71,64)
// at p = 1e-3 on one worker, bit-sliced.
func BenchmarkThroughputSliced(b *testing.B) {
	benchThroughput(b, false)
}

// BenchmarkThroughputScalar is the frozen scalar baseline of the same
// workload.
func BenchmarkThroughputScalar(b *testing.B) {
	benchThroughput(b, true)
}

func benchThroughput(b *testing.B, scalar bool) {
	code := ecc.MustHamming7164()
	const frames = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), code, 1e-3, Options{
			Frames: frames, Seed: int64(i), Workers: 1, Shards: 1, ForceScalar: scalar,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Frames < frames {
			b.Fatalf("short run: %d frames", res.Frames)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkThroughputAtFER is the per-layer number behind the referee's
// Monte-Carlo step: one 2^18-frame, 8-shard validation of the uncoded
// baseline, H(7,4) and H(71,64) at the raw BER where each code's planned
// FER is 5%, on one worker so ms/op is the kernels' CPU cost. The FER check
// keeps the benchmark honest: a kernel that got fast by getting wrong fails.
func BenchmarkThroughputAtFER(b *testing.B) {
	const frames, shards, fer = 1 << 18, 8, 0.05
	for _, code := range []ecc.Code{ecc.MustUncoded64(), ecc.MustHamming74(), ecc.MustHamming7164()} {
		p, err := ecc.PlanFor(code).RequiredRawBERForFER(fer)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(code.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), code, p, Options{
					Frames: frames, Shards: shards, Workers: 1, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if lo, hi := res.FERLow, res.FERHigh; fer < lo-3*(hi-lo) || fer > hi+3*(hi-lo) {
					b.Fatalf("p=%g: FER %g [%g, %g] far from the planned %g", p, res.FER, lo, hi, fer)
				}
			}
			b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// TestRunnerZeroAlloc pins the kernels' hot path: once built, a shard
// runner simulates 64-frame words without allocating. The scalar runner is
// checked on every extended-roster code, BCH's algebraic decoder included,
// and on IL4xH(7,4), whose codec keeps its inner blocks on the stack; the
// sliced runner on every one of them with a sliced kernel.
func TestRunnerZeroAlloc(t *testing.T) {
	ctx := context.Background()
	bsc, err := bits.NewBSC(3e-2)
	if err != nil {
		t.Fatal(err)
	}
	il, err := ecc.NewInterleavedCode(ecc.MustHamming74(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range append(ecc.ExtendedSchemes(), il) {
		runners := map[string]runner{"scalar": newScalarRunner(code, bsc, rand.New(rand.NewSource(1)))}
		if sl, ok := ecc.AsSlicer(code); ok {
			runners["sliced"] = newSlicedRunner(sl, bsc, rand.New(rand.NewSource(1)))
		}
		for kind, r := range runners {
			var c counts
			allocs := testing.AllocsPerRun(20, func() {
				if err := r.runWords(ctx, 2, &c); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s runner: %.1f allocations per 2 words, want 0", code.Name(), kind, allocs)
			}
			if c.bitErrors == 0 && c.correctedBits == 0 {
				t.Errorf("%s %s runner saw no channel errors at p=3e-2", code.Name(), kind)
			}
		}
	}
}

// TestRunAllocations gates what one warm Run allocates (8 shards, one
// worker): only its setup — the shard generators, runners and counters —
// so the count is the same at 2^12 frames (one round) as at 2^18 (two
// rounds of 256 words per shard), and the bytes stay under a bound that a
// math/rand lagged-Fibonacci source per shard (~4.9 KB each) would break.
// It covers the referee's three codes. Each figure is the least of three 5-run averages, so a
// stray allocation elsewhere in the process (seen under -race) is not
// charged to Run.
func TestRunAllocations(t *testing.T) {
	const limit = 16 << 10 // measured ≤ 11.9 KB (H(71,64)), go1.24 amd64
	for _, code := range []ecc.Code{ecc.MustUncoded64(), ecc.MustHamming74(), ecc.MustHamming7164()} {
		var allocs [2]uint64
		for i, frames := range []int64{1 << 12, 1 << 18} {
			run := func() {
				if _, err := Run(context.Background(), code, 1e-3, Options{
					Frames: frames, Shards: 8, Workers: 1, Seed: 1,
				}); err != nil {
					t.Fatal(err)
				}
			}
			run()
			const runs = 5
			allocs[i] = math.MaxUint64
			perRun := uint64(math.MaxUint64)
			for trial := 0; trial < 3; trial++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				for r := 0; r < runs; r++ {
					run()
				}
				runtime.ReadMemStats(&after)
				allocs[i] = min(allocs[i], (after.Mallocs-before.Mallocs)/runs)
				perRun = min(perRun, (after.TotalAlloc-before.TotalAlloc)/runs)
			}
			t.Logf("%s, %d frames: %d allocations, %d bytes", code.Name(), frames, allocs[i], perRun)
			if perRun > limit {
				t.Errorf("%s, %d frames: Run allocates %d bytes, want at most %d", code.Name(), frames, perRun, limit)
			}
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: Run makes %d allocations at 2^12 frames but %d at 2^18; a round must allocate nothing",
				code.Name(), allocs[0], allocs[1])
		}
	}
}
