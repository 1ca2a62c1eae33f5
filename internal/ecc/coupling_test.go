package ecc

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
)

// errorPatternSets returns sets of SlicedWidth error patterns of n bits
// each: every frame with exactly w flips for w = 0..3, then BSC draws at
// p = 1e-3 and 3e-2 (several sets each, so the sparse channel also yields
// frames with errors).
func errorPatternSets(t *testing.T, rng *rand.Rand, n int) [][]bits.Vector {
	t.Helper()
	var sets [][]bits.Vector
	for w := 0; w <= 3 && w <= n; w++ {
		set := make([]bits.Vector, SlicedWidth)
		for f := range set {
			set[f] = bits.New(n)
			if _, err := bits.FlipExactly(set[f], rng, w); err != nil {
				t.Fatal(err)
			}
		}
		sets = append(sets, set)
	}
	for _, p := range []float64{1e-3, 3e-2} {
		bsc, err := bits.NewBSC(p)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 4; rep++ {
			set := make([]bits.Vector, SlicedWidth)
			for f := range set {
				set[f] = bits.New(n)
				bsc.Corrupt(set[f], rng)
			}
			sets = append(sets, set)
		}
	}
	return sets
}

// TestZeroCodewordCoupling checks the argument behind a Monte-Carlo that
// sends only the all-zero codeword: for a linear code with a syndrome
// decoder, decode(c ⊕ e) ⊕ data depends on the error pattern e alone. The
// same error patterns are applied to random codewords and to the zero
// codeword (which must be what zero data encodes to), and both must give
// identical per-frame decoded-data XOR, Detected flag and corrections —
// through DecodeInto on every code (the roster's BCH(15,7) and BCH(31,21)
// included) and through DecodeSliced, on sliced words transposed from the
// scalar EncodeInto codewords, on every code with a sliced kernel (the
// total Corrected there).
func TestZeroCodewordCoupling(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for _, code := range slicedTestCodes(t) {
		code := code
		t.Run(code.Name(), func(t *testing.T) {
			k, n := code.K(), code.N()
			zero, err := encode(code, bits.New(k))
			if err != nil {
				t.Fatal(err)
			}
			if zero.PopCount() != 0 {
				t.Fatalf("zero data encodes to %s, not the zero codeword", zero)
			}
			sl, sliced := AsSlicer(code)
			for i, errs := range errorPatternSets(t, rng, n) {
				data := make([]bits.Vector, SlicedWidth)
				sent := make([]bits.Vector, SlicedWidth)
				for f := range data {
					data[f] = bits.New(k)
					data[f].FillRandom(rng)
					if sent[f], err = encode(code, data[f]); err != nil {
						t.Fatal(err)
					}
				}

				// Scalar: per frame, random codeword vs zero codeword.
				for f, e := range errs {
					recv, err := sent[f].Xor(e)
					if err != nil {
						t.Fatal(err)
					}
					got, info, err := decode(code, recv)
					if err != nil {
						t.Fatal(err)
					}
					gotErr, err := got.Xor(data[f])
					if err != nil {
						t.Fatal(err)
					}
					want, wantInfo, err := decode(code, e)
					if err != nil {
						t.Fatal(err)
					}
					if !gotErr.Equal(want) || info != wantInfo {
						t.Fatalf("set %d frame %d, error %s: random codeword gives data error %s %+v, zero codeword %s %+v",
							i, f, e, gotErr, info, want, wantInfo)
					}
				}
				if !sliced {
					continue
				}

				// Sliced: the 64 frames at once, both ways.
				e := transposeToSliced(errs, n)
				recv := transposeToSliced(sent, n)
				for j := range recv {
					recv[j] ^= e[j]
				}
				d := transposeToSliced(data, k)
				got := make([]uint64, k)
				info := sl.DecodeSliced(got, recv)
				want := make([]uint64, k)
				wantInfo := sl.DecodeSliced(want, e)
				for j := range got {
					if got[j]^d[j] != want[j] {
						t.Fatalf("set %d, sliced data word %d: random codeword gives error lanes %#x, zero codeword %#x",
							i, j, got[j]^d[j], want[j])
					}
				}
				if info != wantInfo {
					t.Fatalf("set %d: sliced random codeword %+v, zero codeword %+v", i, info, wantInfo)
				}
			}
		})
	}
}
