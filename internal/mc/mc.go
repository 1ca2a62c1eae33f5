// Package mc is the bit-sliced Monte-Carlo validation engine: it measures a
// code's post-decoding bit and frame error rates over a binary symmetric
// channel by direct simulation of the BSC → decode loop, at the volumes the
// paper's operating points demand.
//
// Two kernels share one harness. The bit-sliced kernel transposes 64
// independent frames into lane-major []uint64 words — sliced word i holds
// codeword bit i of all 64 frames — so each XOR/AND/popcount advances 64
// trials at once (see ecc.Slicer). It simulates error patterns only: every
// frame sends the all-zero codeword, because for a linear code with a
// syndrome decoder decode(c ⊕ e) ⊕ data depends on the error pattern e
// alone, so a random payload and its encoding would be pure cost. Codes
// without a sliced kernel (BCH) run on a scalar per-frame path that encodes
// random payloads through the zero-alloc EncodeInto/DecodeInto methods of
// ecc.Code. Both kernels draw channel errors through one bits.BSC (the
// sliced kernel hands it its words as a bits.FromWords view), which samples
// the clean run before each flip as a ziggurat exponential scaled by
// −1/ln(1−p), so channel work is O(expected flips), not O(bits), with no
// logarithm per flip. In the sliced kernel the single-error
// correctors (Hamming, SECDED, interleaved Hamming) resolve the frames with
// a nonzero syndrome one by one when they are few and all 64 at once, by
// syndrome minterms, when they are many — the dense case at the FER-5%
// operating points the referee validates. A warm shard allocates nothing
// per word.
//
// The harness shards the trial volume over independent deterministic RNG
// streams, each a 128-bit PCG that costs two stores to seed: shard s always
// simulates the same frames with the same stream regardless of how many
// worker goroutines execute it, so a (Seed, Shards) pair pins the counts
// exactly — across runs and across Workers settings. Aggregation is
// streamed: after every round the harness folds the shard counts, publishes
// a snapshot with Wilson confidence intervals, and stops early once the
// frame-error estimate reaches the requested relative precision.
package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"time"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
	"photonoc/internal/fanout"
	"photonoc/internal/mathx"
)

// DefaultShards is the number of independent RNG streams when Options.Shards
// is not set. The determinism contract is keyed by (Seed, Shards): changing
// the shard count changes the streams, changing Workers never does.
const DefaultShards = 16

// MaxShards bounds Options.Shards. Run sets up every shard before its
// first round, about 1.4 KiB each for the paper codes, so the bound caps
// that at about 1.5 MiB.
const MaxShards = 1024

// maxBatchWords caps the per-shard words simulated between aggregation
// barriers, bounding both early-stop latency and cancellation latency.
const maxBatchWords = 256

// goldenGamma is the splitmix64 Weyl increment used to derive per-shard
// (and, in the engine's grid runner, per-point) seeds from the root seed.
const goldenGamma uint64 = 0x9E3779B97F4A7C15

// DeriveSeed maps (root, i) to a derived seed through the splitmix64
// finalizer. The avalanche mixing matters: derivation nests (the engine's
// grid runner derives a per-point seed, and Run derives per-shard seeds from
// that), so a merely additive step would alias point i's shard s+1 with
// point i+1's shard s. The mixed form keeps every nested stream distinct.
func DeriveSeed(root int64, i int) int64 {
	z := uint64(root) + uint64(i+1)*goldenGamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// pcgSource adapts a math/rand/v2 PCG to the math/rand Source64 that
// bits.BSC.Corrupt and the scalar runner draw from. Its 128-bit state seeds
// with two stores, where rand.NewSource fills a 607-word table (~4.9 KB) per
// shard per Run.
type pcgSource struct{ randv2.PCG }

func (s *pcgSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *pcgSource) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

// Options configures a Monte-Carlo run.
type Options struct {
	// Frames is the trial volume: the number of codewords to simulate.
	// It is rounded up to a whole number of 64-frame words. Required.
	Frames int64
	// TargetRelErr, when positive, stops the run early once the 95% Wilson
	// half-width of the frame-error rate falls below TargetRelErr × FER
	// (checked after every round, on the aggregate counts).
	TargetRelErr float64
	// Workers bounds the goroutines executing shards: each round, at most
	// Workers goroutines of the worker pool claim the shards one at a
	// time (one worker runs them on the caller's goroutine). Defaults to
	// GOMAXPROCS. Workers affects wall time only, never the counts.
	Workers int
	// Shards is the number of independent deterministic RNG streams the
	// trial volume is split over. Defaults to DefaultShards; at most
	// MaxShards. Part of the
	// determinism contract: same Seed + same Shards ⇒ same counts.
	Shards int
	// Seed is the root seed; shard s draws from a math/rand/v2 PCG
	// seeded with (DeriveSeed(Seed, s), 0).
	Seed int64
	// BatchWords is the number of 64-frame words each shard simulates per
	// round, between aggregation barriers. Defaults to the smaller of 256
	// and an even split of the volume.
	BatchWords int
	// ForceScalar runs the scalar per-frame kernel even when the code has a
	// bit-sliced one — the cross-validation and baseline-benchmark switch.
	ForceScalar bool
	// Progress, when non-nil, receives an aggregate snapshot after every
	// round, on the coordinating goroutine.
	Progress func(Result)
}

// Result is the outcome of a Monte-Carlo run. All counts are exact integers;
// BER/FER carry 95% Wilson confidence intervals.
type Result struct {
	// Code and P identify the operating point: code name and BSC raw bit
	// error probability.
	Code string
	P    float64

	// Frames is the number of codewords simulated; PayloadBits = Frames·K.
	Frames      int64
	PayloadBits int64

	// BitErrors counts wrong payload bits after decoding; FrameErrors
	// counts frames that failed — decoded data differing from the sent
	// data, or the decoder flagging the frame detected-uncorrectable.
	// DetectedFrames counts the flagged subset; CorrectedBits the repairs
	// the decoder applied.
	BitErrors      int64
	FrameErrors    int64
	DetectedFrames int64
	CorrectedBits  int64

	// BER = BitErrors/PayloadBits with its Wilson interval.
	BER, BERLow, BERHigh float64
	// FER = FrameErrors/Frames with its Wilson interval.
	FER, FERLow, FERHigh float64

	// ExpectedBER and ExpectedFER are the analytic predictions of the
	// code's FER plan (ecc.PlanFor, obtained once per run): the
	// post-decoding BER model and the binomial-tail frame error rate. The
	// tail is exact for single-block bounded-distance decoders; for
	// repetition and interleaved compositions it is an upper bound (errors
	// split across sub-blocks can all be corrected).
	ExpectedBER float64
	ExpectedFER float64

	// Elapsed and FramesPerSec report throughput; Sliced tells which
	// kernel ran; Converged reports an early stop on TargetRelErr.
	Elapsed      time.Duration
	FramesPerSec float64
	Sliced       bool
	Converged    bool

	// Workers, Shards and Seed echo the effective run parameters.
	Workers int
	Shards  int
	Seed    int64
}

// counts is the integer accumulator shared by both kernels.
type counts struct {
	frames, payloadBits           int64
	bitErrors, frameErrors        int64
	detectedFrames, correctedBits int64
}

func (c *counts) add(o counts) {
	c.frames += o.frames
	c.payloadBits += o.payloadBits
	c.bitErrors += o.bitErrors
	c.frameErrors += o.frameErrors
	c.detectedFrames += o.detectedFrames
	c.correctedBits += o.correctedBits
}

// runner is one shard's kernel: simulate `words` 64-frame words, folding
// outcomes into c, checking ctx every ctxCheckStride words.
type runner interface {
	runWords(ctx context.Context, words int, c *counts) error
}

// ctxCheckStride bounds cancellation latency inside a batch.
const ctxCheckStride = 64

// Run simulates opts.Frames transmissions of code c over a BSC with bit
// flip probability p and returns the measured error rates. See the package
// comment for the determinism and early-stopping contracts.
func Run(ctx context.Context, code ecc.Code, p float64, opts Options) (Result, error) {
	if code == nil {
		return Result{}, fmt.Errorf("mc: nil code")
	}
	bsc, err := bits.NewBSC(p)
	if err != nil {
		return Result{}, fmt.Errorf("mc: %w", err)
	}
	if opts.Frames <= 0 {
		return Result{}, fmt.Errorf("mc: Frames must be positive, got %d", opts.Frames)
	}
	if opts.TargetRelErr < 0 || math.IsNaN(opts.TargetRelErr) {
		return Result{}, fmt.Errorf("mc: TargetRelErr %g must be non-negative", opts.TargetRelErr)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > MaxShards {
		return Result{}, fmt.Errorf("mc: %d shards exceed the bound of %d", shards, MaxShards)
	}
	totalWords := (opts.Frames + ecc.SlicedWidth - 1) / ecc.SlicedWidth
	batch := int64(opts.BatchWords)
	if batch <= 0 {
		batch = (totalWords + int64(shards) - 1) / int64(shards)
		if batch > maxBatchWords {
			batch = maxBatchWords
		}
	}
	if batch < 1 {
		batch = 1
	}

	// Fixed per-shard word quotas: the schedule is decided up front so the
	// counts depend only on (Seed, Shards) and the stop round.
	quota := make([]int64, shards)
	for s := range quota {
		quota[s] = totalWords / int64(shards)
		if int64(s) < totalWords%int64(shards) {
			quota[s]++
		}
	}

	slicer, sliced := ecc.AsSlicer(code)
	if opts.ForceScalar {
		sliced = false
	}
	states := make([]runner, shards)
	for s := range states {
		src := &pcgSource{}
		src.Seed(DeriveSeed(opts.Seed, s))
		rng := rand.New(src)
		if sliced {
			states[s] = newSlicedRunner(slicer, bsc, rng)
		} else {
			states[s] = newScalarRunner(code, bsc, rng)
		}
	}

	plan := ecc.PlanFor(code)
	start := time.Now()
	var total counts
	converged := false

	snapshot := func() Result {
		res := Result{
			Code:           code.Name(),
			P:              p,
			Frames:         total.frames,
			PayloadBits:    total.payloadBits,
			BitErrors:      total.bitErrors,
			FrameErrors:    total.frameErrors,
			DetectedFrames: total.detectedFrames,
			CorrectedBits:  total.correctedBits,
			ExpectedBER:    plan.PostDecodeBER(p),
			ExpectedFER:    plan.FrameErrorRate(p),
			Sliced:         sliced,
			Converged:      converged,
			Workers:        workers,
			Shards:         shards,
			Seed:           opts.Seed,
		}
		if total.payloadBits > 0 {
			res.BER = float64(total.bitErrors) / float64(total.payloadBits)
			res.BERLow, res.BERHigh = mathx.WilsonInterval(total.bitErrors, total.payloadBits, 1.96)
		}
		if total.frames > 0 {
			res.FER = float64(total.frameErrors) / float64(total.frames)
			res.FERLow, res.FERHigh = mathx.WilsonInterval(total.frameErrors, total.frames, 1.96)
		}
		res.Elapsed = time.Since(start)
		if secs := res.Elapsed.Seconds(); secs > 0 {
			res.FramesPerSec = float64(res.Frames) / secs
		}
		return res
	}

	// A round advances every shard with remaining quota by up to `batch`
	// words, the worker pool claiming one shard at a time; perRound[s]
	// receives shard s's counts for the round. The closure is built once,
	// so a round allocates nothing.
	remaining := make([]int64, shards)
	copy(remaining, quota)
	perRound := make([]counts, shards)
	round := func(ctx context.Context, s, _ int) error {
		perRound[s] = counts{}
		w := min(batch, remaining[s])
		if w <= 0 {
			return nil
		}
		remaining[s] -= w
		return states[s].runWords(ctx, int(w), &perRound[s])
	}
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		active := 0
		for _, r := range remaining {
			if r > 0 {
				active++
			}
		}
		if active == 0 {
			break
		}
		if err := fanout.Chunks(ctx, workers, shards, 1, round); err != nil {
			return Result{}, err
		}
		for s := range perRound {
			total.add(perRound[s])
		}
		if opts.TargetRelErr > 0 && total.frameErrors > 0 {
			lo, hi := mathx.WilsonInterval(total.frameErrors, total.frames, 1.96)
			fer := float64(total.frameErrors) / float64(total.frames)
			if (hi-lo)/2 <= opts.TargetRelErr*fer {
				converged = true
			}
		}
		if opts.Progress != nil {
			opts.Progress(snapshot())
		}
		if converged {
			break
		}
	}
	return snapshot(), nil
}
