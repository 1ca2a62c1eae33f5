package ecc

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
)

// foreignCode hides a code's concrete type, as a Code implemented outside
// the package would: InterleavedCode must take its heap-scratch path.
type foreignCode struct{ Code }

// TestInterleaverRoundTrip checks the interleaver permutation: stream
// position col·depth+row carries bit col of row's inner codeword, and
// decoding a clean stream returns the data. Inner codes include one above
// maxRowBits and one of foreign type, the two heap-scratch paths.
func TestInterleaverRoundTrip(t *testing.T) {
	bigRep, err := NewRepetition(2, 257)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(80))
	for _, inner := range append(ExtendedSchemes(), bigRep, foreignCode{MustHamming74()}) {
		for _, depth := range []int{1, 3, 8} {
			code, err := NewInterleavedCode(inner, depth)
			if err != nil {
				t.Fatal(err)
			}
			data := randomData(rng, code.K())
			stream, err := encode(code, data)
			if err != nil {
				t.Fatal(err)
			}
			k := inner.K()
			for row := 0; row < depth; row++ {
				rowWord, err := encode(inner, data.Slice(row*k, (row+1)*k))
				if err != nil {
					t.Fatal(err)
				}
				for col := 0; col < inner.N(); col++ {
					if stream.Bit(col*depth+row) != rowWord.Bit(col) {
						t.Fatalf("%s: stream bit %d != bit %d of row %d", code.Name(), col*depth+row, col, row)
					}
				}
			}
			got, info, err := decode(code, stream)
			if err != nil || !got.Equal(data) || info != (DecodeInfo{}) {
				t.Fatalf("%s: clean round trip gave %+v, %v", code.Name(), info, err)
			}
		}
	}
}

func TestInterleaverSpreadsBursts(t *testing.T) {
	// The defining property: a burst of `depth` consecutive stream errors
	// touches each codeword at most once. With an uncoded inner the decoded
	// rows show the damage as it arrived.
	inner, err := NewUncoded(7)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewInterleavedCode(inner, 4)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < code.N(); start++ {
		stream := bits.New(code.N())
		if err := bits.BurstError(stream, start, 4); err != nil {
			t.Fatal(err)
		}
		got, _, err := decode(code, stream)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < 4; row++ {
			if n := got.Slice(row*7, (row+1)*7).PopCount(); n > 1 {
				t.Errorf("burst at %d: codeword %d received %d errors, want <= 1", start, row, n)
			}
		}
	}
}

func TestInterleaverValidation(t *testing.T) {
	for _, depth := range []int{0, -1} {
		if _, err := NewInterleavedCode(MustHamming74(), depth); err == nil {
			t.Errorf("depth %d should fail", depth)
		}
	}
	code, err := NewInterleavedCode(MustHamming74(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := code.EncodeInto(bits.New(14), bits.New(7)); err == nil {
		t.Error("wrong data size should fail")
	}
	if err := code.EncodeInto(bits.New(13), bits.New(8)); err == nil {
		t.Error("wrong codeword size should fail")
	}
	if _, err := code.DecodeInto(bits.New(8), bits.New(13)); err == nil {
		t.Error("wrong stream size should fail")
	}
}

// TestInterleavedCodecZeroAlloc pins the stack scratch: over every roster
// code as inner (all within maxRowBits), a round trip through a corrupted
// stream allocates nothing.
func TestInterleavedCodecZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, inner := range ExtendedSchemes() {
		code, err := NewInterleavedCode(inner, 4)
		if err != nil {
			t.Fatal(err)
		}
		data, word, out := randomData(rng, code.K()), bits.New(code.N()), bits.New(code.K())
		allocs := testing.AllocsPerRun(50, func() {
			if err := code.EncodeInto(word, data); err != nil {
				t.Fatal(err)
			}
			word.Flip(rng.Intn(code.N()))
			if _, err := code.DecodeInto(out, word); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per round trip, want 0", code.Name(), allocs)
		}
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
