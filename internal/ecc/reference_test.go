package ecc

import (
	mathbits "math/bits"
	"math/rand"
	"strings"
	"testing"

	"photonoc/internal/bits"
)

// TestDecodeMatchesBruteForce checks DecodeInto against a nearest-codeword
// search over every possible received word of H(7,4) (all 2^7 words) and
// BCH(15,7) (all 2^15 words against its 128 codewords). A word within
// distance t of a codeword must decode to that codeword's data with
// Corrected equal to the distance; any other word must come back Detected
// with the raw data bits of the received word.
func TestDecodeMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		code   Code
		dataLo int // codeword position of data bit 0
	}{
		{MustHamming74(), 0},
		{MustBCH157(), 15 - 7},
	} {
		code := tc.code
		t.Run(code.Name(), func(t *testing.T) {
			n, k := code.N(), code.K()
			codewords := make([]uint64, 1<<k)
			word := bits.New(n)
			for d := range codewords {
				if err := code.EncodeInto(word, bits.FromUint(uint64(d), k)); err != nil {
					t.Fatal(err)
				}
				codewords[d] = word.Uint()
			}
			out := bits.New(k)
			detected := 0
			for w := uint64(0); w < 1<<n; w++ {
				best, dist := 0, n+1
				for d, cw := range codewords {
					if x := mathbits.OnesCount64(w ^ cw); x < dist {
						best, dist = d, x
					}
				}
				info, err := code.DecodeInto(out, bits.FromUint(w, n))
				if err != nil {
					t.Fatal(err)
				}
				wantData, wantInfo := uint64(best), DecodeInfo{Corrected: dist}
				if dist > code.T() {
					wantData = w >> uint(tc.dataLo) & (1<<uint(k) - 1)
					wantInfo = DecodeInfo{Detected: true}
					detected++
				}
				if out.Uint() != wantData || info != wantInfo {
					t.Fatalf("word %#x (distance %d from codeword %d): got data %#x %+v, want %#x %+v",
						w, dist, best, out.Uint(), info, wantData, wantInfo)
				}
			}
			t.Logf("%d of %d words beyond distance t", detected, 1<<n)
		})
	}
}

// TestRoundTripCorrectsUpToT encodes random data with every roster code (plus
// the interleaved composition and a long repetition code), flips up to t
// random bits of the codeword, and requires DecodeInto to return the data
// with one correction per flip.
func TestRoundTripCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, code := range slicedTestCodes(t) {
		code := code
		t.Run(code.Name(), func(t *testing.T) {
			data := bits.New(code.K())
			word := bits.New(code.N())
			out := bits.New(code.K())
			for trial := 0; trial < 200; trial++ {
				data.FillRandom(rng)
				if err := code.EncodeInto(word, data); err != nil {
					t.Fatal(err)
				}
				flips := trial % (code.T() + 1)
				if _, err := bits.FlipExactly(word, rng, flips); err != nil {
					t.Fatal(err)
				}
				info, err := code.DecodeInto(out, word)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Equal(data) || info != (DecodeInfo{Corrected: flips}) {
					t.Fatalf("%d flips: decoded %s %+v, want %s {Corrected:%d}", flips, out, info, data, flips)
				}
			}
		})
	}
}

// TestCodecRejectsMisSizedBuffers requires EncodeInto and DecodeInto to
// reject a destination, data vector or received word one bit short or long
// with an error naming the code.
func TestCodecRejectsMisSizedBuffers(t *testing.T) {
	for _, code := range slicedTestCodes(t) {
		n, k := code.N(), code.K()
		for _, d := range []int{-1, 1} {
			_, decDst := code.DecodeInto(bits.New(k+d), bits.New(n))
			_, decWord := code.DecodeInto(bits.New(k), bits.New(n+d))
			for what, err := range map[string]error{
				"EncodeInto dst":  code.EncodeInto(bits.New(n+d), bits.New(k)),
				"EncodeInto data": code.EncodeInto(bits.New(n), bits.New(k+d)),
				"DecodeInto dst":  decDst,
				"DecodeInto word": decWord,
			} {
				if err == nil {
					t.Errorf("%s: %s off by %+d: no error", code.Name(), what, d)
				} else if !strings.Contains(err.Error(), code.Name()) {
					t.Errorf("%s: %s off by %+d: error %q does not name the code", code.Name(), what, d, err)
				}
			}
		}
	}
}
