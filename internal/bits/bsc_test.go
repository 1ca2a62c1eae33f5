package bits

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNewBSCValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := NewBSC(p); err == nil {
			t.Errorf("NewBSC(%g) should be rejected", p)
		}
	}
	for _, p := range []float64{0, 1e-12, 0.5, 0.999} {
		if _, err := NewBSC(p); err != nil {
			t.Errorf("NewBSC(%g): %v", p, err)
		}
	}
}

func TestBSCZeroProbability(t *testing.T) {
	b, err := NewBSC(0)
	if err != nil {
		t.Fatal(err)
	}
	v := New(512)
	if flips := b.Corrupt(v, rand.New(rand.NewSource(1))); flips != 0 {
		t.Errorf("p=0 flipped %d bits", flips)
	}
	if v.PopCount() != 0 {
		t.Error("p=0 must leave the vector untouched")
	}
}

func TestBSCFlipCountMatchesPopCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []float64{1e-3, 0.05, 0.5, 0.9} {
		b, err := NewBSC(p)
		if err != nil {
			t.Fatal(err)
		}
		v := New(1000)
		flips := b.Corrupt(v, rng)
		if got := v.PopCount(); got != flips {
			t.Errorf("p=%g: reported %d flips, vector holds %d", p, flips, got)
		}
	}
}

func TestBSCBinomialStatistics(t *testing.T) {
	// Mean flips over many blocks must track n·p for both the skip-heavy
	// (small p) and dense (large p) regimes, like FlipRandom.
	rng := rand.New(rand.NewSource(42))
	const n, blocks = 4096, 2000
	for _, p := range []float64{0.001, 0.02, 0.35} {
		b, err := NewBSC(p)
		if err != nil {
			t.Fatal(err)
		}
		v := New(n)
		var total int64
		for i := 0; i < blocks; i++ {
			total += int64(b.Corrupt(v, rng))
		}
		mean := float64(total) / blocks
		want := float64(n) * p
		// 5 sigma of the per-block binomial, averaged over the batch.
		sigma := math.Sqrt(float64(n)*p*(1-p)) / math.Sqrt(blocks)
		if math.Abs(mean-want) > 5*sigma {
			t.Errorf("p=%g: mean flips %g, want %g ± %g", p, mean, want, 5*sigma)
		}
	}
}

// TestBSCGapsAreGeometric checks the sampler itself, not only its flip
// counts: the runs of clean bits between consecutive flips must follow the
// Geometric(p) law P(G ≥ g) = (1−p)^g. It is a seeded chi-square
// goodness-of-fit test at the 0.1% level over bins of at least 1/20 of the
// law each, for a skip-heavy, a moderate and a dense p.
func TestBSCGapsAreGeometric(t *testing.T) {
	const minGaps, maxBins = 40_000, 20
	rng := rand.New(rand.NewSource(17))
	for _, p := range []float64{0.001, 0.02, 0.35} {
		b, err := NewBSC(p)
		if err != nil {
			t.Fatal(err)
		}
		// The gaps between the flips of 1 Mibit blocks. The run cut off by
		// a block's end is dropped, which biases long gaps by about
		// gap/blocklength (under 1% here).
		var gaps []int
		for len(gaps) < minGaps {
			v := New(1 << 20)
			b.Corrupt(v, rng)
			prev := -1
			for _, pos := range v.OnesPositions() {
				gaps = append(gaps, pos-prev-1)
				prev = pos
			}
		}
		// Bin j is [edges[j], edges[j+1]); the last bin is the open tail.
		tail := func(g int) float64 { return math.Pow(1-p, float64(g)) }
		edges := []int{0}
		for a := 0; tail(a) >= 2.0/maxBins; a = edges[len(edges)-1] {
			hi := a + 1
			for tail(a)-tail(hi) < 1.0/maxBins {
				hi++
			}
			edges = append(edges, hi)
		}
		observed := make([]float64, len(edges))
		for _, g := range gaps {
			observed[sort.SearchInts(edges, g+1)-1]++
		}
		chi2 := 0.0
		for j, o := range observed {
			prob := tail(edges[j])
			if j+1 < len(edges) {
				prob -= tail(edges[j+1])
			}
			e := prob * float64(len(gaps))
			chi2 += (o - e) * (o - e) / e
		}
		// Upper 0.1% point of χ²(df) by the Wilson–Hilferty approximation.
		df := float64(len(edges) - 1)
		h := 2 / (9 * df)
		crit := df * math.Pow(1-h+3.09*math.Sqrt(h), 3)
		if chi2 > crit {
			t.Errorf("p=%g: gap χ² = %.1f over %d bins exceeds the 0.1%% point %.1f (%d gaps)",
				p, chi2, len(edges), crit, len(gaps))
		}
	}
}

func TestBSCDeterministicUnderSeed(t *testing.T) {
	b, err := NewBSC(0.01)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Vector {
		rng := rand.New(rand.NewSource(123))
		v := New(2048)
		b.Corrupt(v, rng)
		return v
	}
	if !run().Equal(run()) {
		t.Error("same seed must reproduce the same error pattern")
	}
}

func TestBSCCorruptZeroAlloc(t *testing.T) {
	// The satellite requirement: the word-wise Monte-Carlo block path —
	// error injection plus popcount error counting — allocates nothing per
	// block.
	b, err := NewBSC(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	v := New(4096)
	ref := New(4096)
	allocs := testing.AllocsPerRun(200, func() {
		b.Corrupt(v, rng)
		if _, err := v.XorPopCount(ref); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Monte-Carlo block path allocates %.1f objects per block, want 0", allocs)
	}
}

func TestXorIntoAndXorPopCount(t *testing.T) {
	a, _ := FromString("1100_1010")
	b, _ := FromString("1010_0110")
	dst := New(8)
	if err := dst.XorInto(a, b); err != nil {
		t.Fatal(err)
	}
	want, _ := a.Xor(b)
	if !dst.Equal(want) {
		t.Errorf("XorInto = %s, want %s", dst, want)
	}
	d, err := a.XorPopCount(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != want.PopCount() {
		t.Errorf("XorPopCount = %d, want %d", d, want.PopCount())
	}
	// Aliasing: dst may be one of the operands.
	if err := a.XorInto(a, b); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(want) {
		t.Errorf("aliased XorInto = %s, want %s", a, want)
	}
	// Length mismatches are rejected.
	if err := dst.XorInto(a, New(9)); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if _, err := a.XorPopCount(New(9)); err == nil {
		t.Error("length mismatch must be rejected")
	}
}

// BenchmarkMonteCarloBlockWordwise is the word-wise Monte-Carlo block: BSC
// error injection plus popcount error counting over a 4096-bit block. The
// companion test asserts zero allocations per block.
func BenchmarkMonteCarloBlockWordwise(b *testing.B) {
	bsc, err := NewBSC(1e-3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	v := New(4096)
	ref := New(4096)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		bsc.Corrupt(v, rng)
		d, _ := v.XorPopCount(ref)
		sink += d
	}
	_ = sink
}

// BenchmarkMonteCarloBlockPerBit is the per-bit path the word-wise one
// replaces, kept for the tracked before/after comparison.
func BenchmarkMonteCarloBlockPerBit(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	v := New(4096)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		FlipRandom(v, rng, 1e-3)
		d, _ := HammingDistance(v, New(4096))
		sink += d
	}
	_ = sink
}
