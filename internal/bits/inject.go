package bits

import (
	"fmt"
	"math"
	"math/rand"
)

// FlipRandom inverts each bit of v independently with probability p and
// returns how many bits were flipped. It models a memoryless binary symmetric
// channel, the abstraction under the paper's Eq. 2.
//
// It is the per-bit reference channel: one uniform draw per bit, with a
// fixed RNG consumption that the ecc Monte-Carlo tests and the tracked
// monte_carlo_block baseline are seeded against. Fast paths use
// BSC.Corrupt, which samples the same distribution in O(expected flips):
// it draws the run of clean bits before each flip as a scaled exponential
// (ziggurat, no logarithm) and applies flips by XOR on the packed words.
func FlipRandom(v Vector, rng *rand.Rand, p float64) int {
	flips := 0
	for i := 0; i < v.Len(); i++ {
		if rng.Float64() < p {
			v.Flip(i)
			flips++
		}
	}
	return flips
}

// BSC is a binary symmetric channel error injector operating word-wise on
// packed vectors: flip positions are drawn by geometric gap sampling
// (O(expected flips) RNG draws instead of one per bit) and applied by XOR
// on the 64-bit words. Each gap is floor(E·s) with E a standard exponential
// from rand.ExpFloat64 (a ziggurat draw, a table lookup and a multiply in
// all but a few percent of calls) and s = −1/ln(1−p): P(gap ≥ g) =
// P(E ≥ g/s) = (1−p)^g, the Geometric(p) law of the clean runs between
// flips. A BSC carries no per-call state beyond the precomputed s, so one
// value can corrupt any number of blocks with zero allocations.
//
// It is the one channel sampler of the bit-true Monte-Carlo paths: the
// serdes pipeline's default channel, both kernels of internal/mc (the
// bit-sliced kernel corrupts its lane-major words through a FromWords
// view) and the tracked monte_carlo_block benchmark. The analog OOK
// channel in internal/noise keeps its per-bit Gaussian draws, which a BSC
// abstraction cannot replace.
//
// The sampled flip-count distribution is identical to FlipRandom's
// (Binomial(n, p)); the RNG consumption differs, so the two are not
// sequence-compatible under a shared seed.
type BSC struct {
	p        float64
	gapScale float64 // −1 / ln(1−p), which scales a unit exponential to a clean run; 0 when p == 0
}

// NewBSC returns an injector with bit flip probability p in [0, 1).
func NewBSC(p float64) (BSC, error) {
	if math.IsNaN(p) || p < 0 || p >= 1 {
		return BSC{}, fmt.Errorf("bits: flip probability %g outside [0, 1)", p)
	}
	b := BSC{p: p}
	if p > 0 {
		b.gapScale = -1 / math.Log1p(-p)
	}
	return b, nil
}

// Corrupt flips each bit of v independently with probability p and returns
// the number of flips. It draws one exponential per flip, plus one for the
// run that ends past the vector, and allocates nothing.
func (b BSC) Corrupt(v Vector, rng *rand.Rand) int {
	if b.p == 0 || v.n == 0 {
		return 0
	}
	flips := 0
	i := -1
	for {
		// Geometric gap: skip floor(E·s) clean bits. The comparison in
		// float64 ends the scan before a huge gap could overflow int.
		gap := rng.ExpFloat64() * b.gapScale
		if gap >= float64(v.n-i) {
			return flips
		}
		i += 1 + int(gap)
		if i >= v.n {
			return flips
		}
		v.words[i>>6] ^= 1 << (uint(i) & 63)
		flips++
	}
}

// FlipExactly inverts exactly k distinct uniformly-chosen bits of v and
// returns their positions. It is the workhorse of the code-correction
// property tests (all single-error patterns, random double errors, ...).
func FlipExactly(v Vector, rng *rand.Rand, k int) ([]int, error) {
	if k < 0 || k > v.Len() {
		return nil, fmt.Errorf("bits: FlipExactly(%d) on %d-bit vector", k, v.Len())
	}
	perm := rng.Perm(v.Len())[:k]
	for _, p := range perm {
		v.Flip(p)
	}
	return perm, nil
}

// BurstError inverts length consecutive bits starting at start, wrapping at
// the end of the vector. Bursts model multi-bit upsets from slow transients.
func BurstError(v Vector, start, length int) error {
	if start < 0 || start >= v.Len() {
		return fmt.Errorf("bits: burst start %d out of range [0,%d)", start, v.Len())
	}
	if length < 0 || length > v.Len() {
		return fmt.Errorf("bits: burst length %d out of range [0,%d]", length, v.Len())
	}
	for i := 0; i < length; i++ {
		v.Flip((start + i) % v.Len())
	}
	return nil
}
