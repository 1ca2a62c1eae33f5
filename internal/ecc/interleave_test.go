package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"photonoc/internal/bits"
)

func TestInterleaverRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := rng.Intn(8) + 1
		width := rng.Intn(30) + 1
		il, err := NewInterleaver(depth, width)
		if err != nil {
			return false
		}
		words := make([]bits.Vector, depth)
		for i := range words {
			words[i] = randomData(rng, width)
		}
		stream, err := il.Interleave(words)
		if err != nil {
			return false
		}
		back, err := il.Deinterleave(stream)
		if err != nil {
			return false
		}
		for i := range words {
			if !back[i].Equal(words[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInterleaverSpreadsBursts(t *testing.T) {
	// The defining property: a burst of `depth` consecutive stream errors
	// touches each codeword at most once.
	il, err := NewInterleaver(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]bits.Vector, 4)
	for i := range words {
		words[i] = bits.New(7)
	}
	stream, err := il.Interleave(words)
	if err != nil {
		t.Fatal(err)
	}
	if err := bits.BurstError(stream, 5, 4); err != nil {
		t.Fatal(err)
	}
	back, err := il.Deinterleave(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range back {
		if w.PopCount() > 1 {
			t.Errorf("codeword %d received %d burst errors, want <= 1", i, w.PopCount())
		}
	}
}

func TestInterleaverValidation(t *testing.T) {
	if _, err := NewInterleaver(0, 7); err == nil {
		t.Error("depth 0 should fail")
	}
	if _, err := NewInterleaver(4, 0); err == nil {
		t.Error("width 0 should fail")
	}
	il, _ := NewInterleaver(2, 7)
	if _, err := il.Interleave([]bits.Vector{bits.New(7)}); err == nil {
		t.Error("wrong word count should fail")
	}
	if _, err := il.Interleave([]bits.Vector{bits.New(7), bits.New(6)}); err == nil {
		t.Error("wrong word size should fail")
	}
	if _, err := il.Deinterleave(bits.New(13)); err == nil {
		t.Error("wrong stream size should fail")
	}
}

func TestInterleavedCodeCorrectsBursts(t *testing.T) {
	// IL8×H(7,4): any burst of up to 8 consecutive stream errors is
	// always corrected (one error per inner codeword). Exhaustive over
	// every burst start position.
	inner := MustHamming74()
	code, err := NewInterleavedCode(inner, 8)
	if err != nil {
		t.Fatal(err)
	}
	if code.K() != 32 || code.N() != 56 || code.BurstTolerance() != 8 {
		t.Fatalf("composition dims wrong: %s k=%d n=%d", code.Name(), code.K(), code.N())
	}
	rng := rand.New(rand.NewSource(81))
	data := randomData(rng, code.K())
	clean, err := encode(code, data)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < code.N(); start++ {
		stream := clean.Clone()
		if err := bits.BurstError(stream, start, 8); err != nil {
			t.Fatal(err)
		}
		got, info, err := decode(code, stream)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(data) {
			t.Fatalf("burst at %d not corrected", start)
		}
		if info.Corrected == 0 {
			t.Fatalf("burst at %d: decoder claims no corrections", start)
		}
	}
}

func TestBareCodeFailsOnBursts(t *testing.T) {
	// Control experiment: without interleaving, an 8-bit burst lands
	// inside at most two H(7,4) codewords and must corrupt the payload
	// for at least some positions.
	inner := MustHamming74()
	rng := rand.New(rand.NewSource(82))
	failures := 0
	for trial := 0; trial < 50; trial++ {
		// Concatenate 8 codewords without interleaving.
		var words []bits.Vector
		var datas []bits.Vector
		for i := 0; i < 8; i++ {
			d := randomData(rng, 4)
			datas = append(datas, d)
			w, err := encode(inner, d)
			if err != nil {
				t.Fatal(err)
			}
			words = append(words, w)
		}
		stream := bits.New(0)
		for _, w := range words {
			stream = stream.Concat(w)
		}
		if err := bits.BurstError(stream, rng.Intn(stream.Len()), 8); err != nil {
			t.Fatal(err)
		}
		ok := true
		for i := 0; i < 8; i++ {
			got, _, err := decode(inner, stream.Slice(i*7, (i+1)*7))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(datas[i]) {
				ok = false
			}
		}
		if !ok {
			failures++
		}
	}
	if failures == 0 {
		t.Error("8-bit bursts never defeated the bare code — control experiment broken")
	}
}

func TestInterleavedCodeCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	code, err := NewInterleavedCode(MustHamming7164(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if code.K() != 256 || code.N() != 284 {
		t.Fatalf("dims: k=%d n=%d", code.K(), code.N())
	}
	for trial := 0; trial < 50; trial++ {
		data := randomData(rng, code.K())
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		got, info, err := decode(code, word)
		if err != nil || !got.Equal(data) || info.Corrected != 0 || info.Detected {
			t.Fatal("clean roundtrip failed")
		}
	}
}

func TestInterleavedCodeRateUnchanged(t *testing.T) {
	inner := MustHamming74()
	code, err := NewInterleavedCode(inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	if Rate(code) != Rate(inner) || CT(code) != CT(inner) {
		t.Error("interleaving must not change the code rate or CT")
	}
}
