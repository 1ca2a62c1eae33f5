package ecc

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestHammingScalesToLargeBlocks exercises the construction and the packed
// encode/decode machinery well beyond the paper's sizes, up to the
// H(4095,4083) code (m=12), including multi-word parity masks.
func TestHammingScalesToLargeBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, m := range []int{8, 10, 12} {
		code, err := NewHamming(m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		wantN := 1<<m - 1
		if code.N() != wantN || code.K() != wantN-m {
			t.Fatalf("m=%d dims wrong: %s", m, Describe(code))
		}
		data := randomData(rng, code.K())
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		// Clean roundtrip.
		got, info, err := decode(code, word)
		if err != nil || !got.Equal(data) || info.Detected {
			t.Fatalf("m=%d: clean roundtrip failed", m)
		}
		// Random single-error corrections across the big block.
		for trial := 0; trial < 25; trial++ {
			w := word.Clone()
			pos := rng.Intn(code.N())
			w.Flip(pos)
			got, info, err := decode(code, w)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(data) || info.Corrected != 1 {
				t.Fatalf("m=%d: error at %d not corrected", m, pos)
			}
		}
	}
}

// TestShortenedHammingScaling checks shortening at scale: H(4095,4083)
// shortened down to a 1024-bit payload still corrects single errors.
func TestShortenedHammingScaling(t *testing.T) {
	code, err := NewShortenedHamming(12, 4083-1024)
	if err != nil {
		t.Fatal(err)
	}
	if code.K() != 1024 || code.N() != 1036 {
		t.Fatalf("dims: %s", Describe(code))
	}
	rng := rand.New(rand.NewSource(102))
	data := randomData(rng, 1024)
	word, err := encode(code, data)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		w := word.Clone()
		pos := rng.Intn(code.N())
		w.Flip(pos)
		got, _, err := decode(code, w)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(data) {
			t.Fatalf("error at %d not corrected", pos)
		}
	}
}

// BenchmarkHammingEncodeScaling reports encode throughput across code sizes
// — the packed-mask hot loop from H(7,4) to H(4095,4083).
func BenchmarkHammingEncodeScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(103))
	for _, m := range []int{3, 7, 10, 12} {
		code, err := NewHamming(m)
		if err != nil {
			b.Fatal(err)
		}
		data := randomData(rng, code.K())
		b.Run(fmt.Sprintf("m=%d_k=%d", m, code.K()), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(code.K() / 8))
			for i := 0; i < b.N; i++ {
				if _, err := encode(code, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
