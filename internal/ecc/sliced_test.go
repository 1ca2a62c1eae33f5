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
// none).
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
	return append(ExtendedSchemes(), il, bigRep)
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
// every sliced code, 64 random frames pushed through
// EncodeSliced → random corruption → DecodeSliced must reproduce, bit for
// bit and flag for flag, what EncodeInto → DecodeInto does on each frame
// individually.
func TestSlicedKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	for _, code := range slicedTestCodes(t) {
		code := code
		t.Run(code.Name(), func(t *testing.T) {
			sl, ok := AsSlicer(code)
			if !ok {
				t.Skipf("%s has no sliced kernel", code.Name())
			}
			k, n := code.K(), code.N()
			for trial := 0; trial < 20; trial++ {
				frames := make([]bits.Vector, SlicedWidth)
				for f := range frames {
					frames[f] = bits.New(k)
					frames[f].FillRandom(rng)
				}
				data := transposeToSliced(frames, k)

				// Encode both ways and compare codewords.
				word := make([]uint64, n)
				sl.EncodeSliced(word, data)
				scalarWords := make([]bits.Vector, SlicedWidth)
				for f := range frames {
					w, err := encode(code, frames[f])
					if err != nil {
						t.Fatal(err)
					}
					scalarWords[f] = w
					if got := transposeFromSliced(word, n, f); !got.Equal(w) {
						t.Fatalf("frame %d: sliced codeword %s != scalar %s", f, got, w)
					}
				}

				// Corrupt: a mix of clean frames, single, double and heavier
				// patterns, identically in both domains.
				for f := range scalarWords {
					weight := trial * f % 4
					if weight > 0 {
						positions, err := bits.FlipExactly(scalarWords[f], rng, weight)
						if err != nil {
							t.Fatal(err)
						}
						for _, pos := range positions {
							word[pos] ^= 1 << uint(f)
						}
					}
				}

				// Decode both ways and compare data, per-frame flags and the
				// aggregate correction count.
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
		})
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
	if wide.synTable != nil {
		t.Fatalf("r=24 code unexpectedly built a dense table")
	}
	return map[string]*LinearCode{
		"H(7,4)":       MustHamming74(),
		"H(71,64)":     MustHamming7164(),
		"SECDED-inner": secdedInner,
		"Parity(65)":   parity,
		"wide-r24":     wide,
	}
}

// TestDenseSyndromeTableMatchesMap is the satellite property test: over all
// registry linear codes and every error pattern of weight ≤ 2 on a random
// codeword, the dense []int32 syndrome lookup must agree entry for entry
// with the historical map, and the full decode must be identical under both.
func TestDenseSyndromeTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, code := range linearTestCodes(t) {
		code := code
		t.Run(name, func(t *testing.T) {
			if code.t == 1 && code.r <= denseSynBits && code.synTable == nil {
				t.Fatalf("t=1 code with r=%d did not build a dense table", code.r)
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
					posDense, okDense := code.synLookup(syn)
					posMap, okMap := code.synLookupMap(syn)
					if okDense != okMap || (okDense && posDense != posMap) {
						t.Fatalf("%s: syndrome %#x dense (%d,%v) != map (%d,%v)",
							desc, syn, posDense, okDense, posMap, okMap)
					}
				}
				decDense, infoDense, err := decode(code, word)
				if err != nil {
					t.Fatal(err)
				}
				// Reference decode through the map only.
				decMap, infoMap := code.decodeViaMap(word)
				if !decDense.Equal(decMap) || infoDense != infoMap {
					t.Fatalf("%s: dense decode (%s,%+v) != map decode (%s,%+v)",
						desc, decDense, infoDense, decMap, infoMap)
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

// decodeViaMap mirrors DecodeInto but resolves syndromes through the map
// lookup only — the reference arm of the dense-vs-map property test.
func (c *LinearCode) decodeViaMap(word bits.Vector) (bits.Vector, DecodeInfo) {
	syn := c.syndromeOf(word)
	out := word.Slice(0, c.k)
	if syn == 0 {
		return out, DecodeInfo{}
	}
	if c.t == 0 {
		return out, DecodeInfo{Detected: true}
	}
	pos, known := c.synLookupMap(syn)
	if !known {
		return out, DecodeInfo{Detected: true}
	}
	if pos < c.k {
		out.Flip(pos)
	}
	return out, DecodeInfo{Corrected: 1}
}
