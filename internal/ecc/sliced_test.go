package ecc

import (
	"fmt"
	"math/rand"
	"testing"

	"photonoc/internal/bits"
	"photonoc/internal/gf2"
)

// slicedTestCodes returns every scheme with a bit-sliced kernel: the
// registry roster plus an interleaved composition (the registry itself has
// none) and a few more codes that stress particular kernels.
func slicedTestCodes(t *testing.T) []Code {
	t.Helper()
	il, err := NewInterleavedCode(MustHamming74(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// A repetition factor above 255 regression-tests the carry-save counter
	// sizing in DecodeSliced (width = Len(r) bits, not a fixed cap).
	bigRep, err := NewRepetition(2, 257)
	if err != nil {
		t.Fatal(err)
	}
	// Full Hamming codes with 4 and 5 parity bits split their syndromes
	// evenly and unevenly between the corrector's two minterm tables.
	h15, err := NewHamming(4)
	if err != nil {
		t.Fatal(err)
	}
	h31, err := NewHamming(5)
	if err != nil {
		t.Fatal(err)
	}
	return append(ExtendedSchemes(), il, bigRep, h15, h31)
}

// transposeToSliced packs frame f's vector bits into bit f of each sliced
// word.
func transposeToSliced(frames []bits.Vector, n int) []uint64 {
	out := make([]uint64, n)
	for f, v := range frames {
		for i := 0; i < n; i++ {
			out[i] |= uint64(v.Bit(i)) << uint(f)
		}
	}
	return out
}

// transposeFromSliced extracts frame f from the sliced words.
func transposeFromSliced(sliced []uint64, n, f int) bits.Vector {
	v := bits.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, int(sliced[i]>>uint(f))&1)
	}
	return v
}

// TestSlicedKernelsMatchScalar is the frame-exactness property test: for
// every sliced code, 64 random frames encoded with EncodeInto, corrupted,
// transposed and pushed through DecodeSliced must reproduce, bit for bit and
// flag for flag, what DecodeInto does on each frame individually. The
// random trials mix clean, single, double and heavier error patterns. For the single-error correctors (every t = 1 linear code,
// SECDED(72,64), IL4xH(7,4)) further words hold exactly 0, 1, a few, the
// minterm crossover ±1 and all 64 frames for the corrector to resolve, so
// both branches of correctSliced run on either side of the switch.
func TestSlicedKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	for _, code := range slicedTestCodes(t) {
		code := code
		t.Run(code.Name(), func(t *testing.T) {
			sl, ok := AsSlicer(code)
			if !ok {
				t.Skipf("%s has no sliced kernel", code.Name())
			}
			for trial := 0; trial < 20; trial++ {
				compareSliced(t, code, sl, rng, func(f int, w bits.Vector) {
					if weight := trial * f % 4; weight > 0 {
						if _, err := bits.FlipExactly(w, rng, weight); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
			corrector, inject := correctorErrors(code, rng)
			if corrector == nil {
				return
			}
			if corrector.mintermFrom > SlicedWidth {
				t.Fatalf("crossover %d leaves the minterm branch unreachable", corrector.mintermFrom)
			}
			x := corrector.mintermFrom
			for _, dirty := range []int{0, 1, 3, x - 1, x, x + 1, SlicedWidth} {
				if dirty < 0 || dirty > SlicedWidth {
					continue
				}
				// The first `dirty` frames of a random order go to the
				// corrector; the others stay clean or, for SECDED, get
				// errors its case analysis settles without it.
				order := rng.Perm(SlicedWidth)
				rank := make([]int, SlicedWidth)
				for i, f := range order {
					rank[f] = i
				}
				compareSliced(t, code, sl, rng, func(f int, w bits.Vector) {
					inject(w, rank[f], rank[f] < dirty)
				})
			}
		})
	}
}

// correctorErrors returns the LinearCode whose correctSliced resolves code's
// frames, and an injector that makes a frame one the corrector resolves
// (dirty) or one it never sees. Every dirty frame reaches the corrector in
// every block it touches: a plain code gets one or two errors (distance 3
// keeps the syndrome nonzero, and a second error exercises miscorrection and,
// on shortened codes, detection); SECDED gets one error on its inner
// positions (nonzero syndrome, bad parity), and its other frames get nothing,
// the overall-parity bit alone or a double error; an interleaved frame gets
// one error in every row, plus a second in one row. It returns nil for codes
// without a single-error corrector.
func correctorErrors(code Code, rng *rand.Rand) (*LinearCode, func(w bits.Vector, i int, dirty bool)) {
	switch c := code.(type) {
	case *LinearCode:
		if c.t != 1 {
			return nil, nil
		}
		return c, func(w bits.Vector, i int, dirty bool) {
			if dirty {
				_, _ = bits.FlipExactly(w, rng, 1+i%2) // cannot fail: n >= 3
			}
		}
	case *ExtendedHamming:
		inner := c.inner.N()
		return c.inner, func(w bits.Vector, i int, dirty bool) {
			switch {
			case dirty:
				w.Flip(rng.Intn(inner))
			case i%3 == 1:
				w.Flip(inner)
			case i%3 == 2:
				a := rng.Intn(inner)
				w.Flip(a)
				w.Flip((a + 1 + rng.Intn(inner-1)) % inner)
			}
		}
	case *InterleavedCode:
		if c.innerLin == nil || c.innerLin.t != 1 {
			return nil, nil
		}
		depth, n := c.depth, c.innerLin.N()
		return c.innerLin, func(w bits.Vector, i int, dirty bool) {
			if !dirty {
				return
			}
			cols := make([]int, depth)
			for row := range cols {
				cols[row] = rng.Intn(n)
				w.Flip(cols[row]*depth + row)
			}
			if i%2 == 1 {
				row := rng.Intn(depth)
				w.Flip((cols[row]+1+rng.Intn(n-1))%n*depth + row)
			}
		}
	}
	return nil, nil
}

// compareSliced encodes 64 random frames with EncodeInto, corrupts frame
// f's codeword with corrupt(f, word) and transposes the corrupted words into
// sliced words, then decodes both ways and requires identical data,
// per-frame Detected flags and total corrections.
func compareSliced(t *testing.T, code Code, sl Slicer, rng *rand.Rand, corrupt func(f int, w bits.Vector)) {
	t.Helper()
	k, n := code.K(), code.N()
	scalarWords := make([]bits.Vector, SlicedWidth)
	for f := range scalarWords {
		data := bits.New(k)
		data.FillRandom(rng)
		w, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(f, w)
		scalarWords[f] = w
	}
	word := transposeToSliced(scalarWords, n)

	out := make([]uint64, k)
	info := sl.DecodeSliced(out, word)
	totalCorrected := 0
	for f := range scalarWords {
		dec, di, err := decode(code, scalarWords[f])
		if err != nil {
			t.Fatal(err)
		}
		totalCorrected += di.Corrected
		if got := transposeFromSliced(out, k, f); !got.Equal(dec) {
			t.Fatalf("frame %d: sliced decode %s != scalar %s", f, got, dec)
		}
		if got := info.Detected>>uint(f)&1 == 1; got != di.Detected {
			t.Fatalf("frame %d: sliced detected=%v, scalar=%v", f, got, di.Detected)
		}
	}
	if info.Corrected != totalCorrected {
		t.Fatalf("sliced corrected %d != scalar total %d", info.Corrected, totalCorrected)
	}
}

// linearTestCodes collects the LinearCode instances behind the registry
// (including SECDED's inner) plus a 24-parity-bit construction that exceeds
// the dense-table limit and exercises the map fallback.
func linearTestCodes(t *testing.T) map[string]*LinearCode {
	t.Helper()
	secdedInner, err := NewShortenedHamming(7, 56)
	if err != nil {
		t.Fatal(err)
	}
	parity, err := NewParity(64)
	if err != nil {
		t.Fatal(err)
	}
	// A t=1 code with 24 parity bits: row i of P is the weight-2 pattern
	// {i, i+1}, giving distinct non-unit syndromes. r=24 > denseSynBits, so
	// it exercises the map fallback.
	p := gf2.NewMatrix(8, 24)
	for i := 0; i < 8; i++ {
		p.Set(i, i, 1)
		p.Set(i, i+1, 1)
	}
	wide, err := NewLinear("wide-r24", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*LinearCode{
		"H(7,4)":       MustHamming74(),
		"H(71,64)":     MustHamming7164(),
		"SECDED-inner": secdedInner,
		"Parity(65)":   parity,
		"wide-r24":     wide,
	}
}

// TestDenseSyndromeTableMatchesMap checks the syndrome lookups against a
// brute-force reference, a search of H's columns: for every syndrome of the
// dense-table codes, and, on every code (the 24-parity-bit map code too),
// for the syndromes of all error patterns of weight ≤ 2 on a random
// codeword, together with the full decode. It also pins which lookup each
// code builds: the table up to denseSynBits parity bits, the map above.
func TestDenseSyndromeTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, code := range linearTestCodes(t) {
		code := code
		t.Run(name, func(t *testing.T) {
			if code.t == 1 {
				dense := code.r <= denseSynBits
				if (code.synTable != nil) != dense || (code.synDecode != nil) == dense {
					t.Fatalf("t=1 code with r=%d: table built %v, map built %v",
						code.r, code.synTable != nil, code.synDecode != nil)
				}
				for syn := uint64(1); dense && syn < 1<<uint(code.r); syn++ {
					checkLookup(t, code, syn)
				}
			}
			n := code.N()
			data := bits.New(code.K())
			data.FillRandom(rng)
			clean, err := encode(code, data)
			if err != nil {
				t.Fatal(err)
			}
			check := func(desc string, word bits.Vector) {
				t.Helper()
				syn, err := code.Syndrome(word)
				if err != nil {
					t.Fatal(err)
				}
				if syn != 0 && code.t == 1 {
					checkLookup(t, code, syn)
				}
				got, info, err := decode(code, word)
				if err != nil {
					t.Fatal(err)
				}
				want, wantInfo := code.decodeViaColumns(word)
				if !got.Equal(want) || info != wantInfo {
					t.Fatalf("%s: decode (%s,%+v) != reference (%s,%+v)", desc, got, info, want, wantInfo)
				}
			}
			check("clean", clean)
			for i := 0; i < n; i++ {
				w := clean.Clone()
				w.Flip(i)
				check(fmt.Sprintf("single@%d", i), w)
				for j := i + 1; j < n; j++ {
					w2 := clean.Clone()
					w2.Flip(i)
					w2.Flip(j)
					check(fmt.Sprintf("double@%d,%d", i, j), w2)
				}
			}
		})
	}
}

// columnOf returns the position whose column of H equals syn, searching H
// itself; false when no column does.
func (c *LinearCode) columnOf(syn uint64) (int, bool) {
	for i := 0; i < c.N(); i++ {
		var col uint64
		for j := 0; j < c.r; j++ {
			col |= uint64(c.h.At(j, i)) << uint(j)
		}
		if col == syn {
			return i, true
		}
	}
	return 0, false
}

func checkLookup(t *testing.T, c *LinearCode, syn uint64) {
	t.Helper()
	pos, ok := c.synLookup(syn)
	want, wantOK := c.columnOf(syn)
	if ok != wantOK || (ok && pos != want) {
		t.Fatalf("syndrome %#x: lookup (%d,%v), H's columns say (%d,%v)", syn, pos, ok, want, wantOK)
	}
}

// decodeViaColumns mirrors DecodeInto but resolves syndromes by searching
// H's columns — the reference arm of the lookup property test.
func (c *LinearCode) decodeViaColumns(word bits.Vector) (bits.Vector, DecodeInfo) {
	syn := c.syndromeOf(word)
	out := word.Slice(0, c.k)
	if syn == 0 {
		return out, DecodeInfo{}
	}
	if c.t == 0 {
		return out, DecodeInfo{Detected: true}
	}
	pos, known := c.columnOf(syn)
	if !known {
		return out, DecodeInfo{Detected: true}
	}
	if pos < c.k {
		out.Flip(pos)
	}
	return out, DecodeInfo{Corrected: 1}
}

// BenchmarkCorrectSliced checks mintermCrossover by measurement: both
// branches of correctSliced on words with half, once and twice the
// crossover's number of frames to correct. The per-frame branch should win
// below the crossover and the minterm branch at and above it.
func BenchmarkCorrectSliced(b *testing.B) {
	h31, err := NewHamming(5)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []*LinearCode{MustHamming74(), h31, MustHamming7164()} {
		x := c.mintermFrom
		for _, dirty := range []int{(x + 1) / 2, x, min(2*x, SlicedWidth)} {
			// Frames with random nonzero syndromes; a shortened code's
			// non-column syndromes take the detected path.
			rng := rand.New(rand.NewSource(1))
			synd := make([]uint64, c.r)
			var mask uint64
			for _, f := range rng.Perm(SlicedWidth)[:dirty] {
				mask |= 1 << uint(f)
				s := uint64(rng.Intn(1<<uint(c.r)-1) + 1)
				for j := range synd {
					synd[j] |= (s >> uint(j) & 1) << uint(f)
				}
			}
			data := make([]uint64, c.k)
			for _, branch := range []string{"per-frame", "minterm"} {
				name := fmt.Sprintf("%s/frames=%d/%s", c.Name(), dirty, branch)
				b.Run(name, func(b *testing.B) {
					saved := c.mintermFrom
					defer func() { c.mintermFrom = saved }()
					c.mintermFrom = SlicedWidth + 1
					if branch == "minterm" {
						c.mintermFrom = 0
					}
					for i := 0; i < b.N; i++ {
						c.correctSliced(data, synd, mask)
					}
				})
			}
		}
	}
}
