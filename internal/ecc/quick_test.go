package ecc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"photonoc/internal/bits"
)

// quickCodes is the roster exercised by the generic property tests,
// including the interleaved composition.
func quickCodes(t *testing.T) []Code {
	t.Helper()
	il, err := NewInterleavedCode(MustHamming74(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return append(ExtendedSchemes(), il)
}

// TestQuickEncodeDecodeIdentity: for every scheme and arbitrary payloads,
// DecodeInto(EncodeInto(x)) == x with a clean report.
func TestQuickEncodeDecodeIdentity(t *testing.T) {
	for _, code := range quickCodes(t) {
		code := code
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			data := randomData(rng, code.K())
			word, err := encode(code, data)
			if err != nil {
				return false
			}
			got, info, err := decode(code, word)
			return err == nil && got.Equal(data) && info.Corrected == 0 && !info.Detected
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", code.Name(), err)
		}
	}
}

// TestQuickSingleErrorProperty: every t>=1 scheme repairs one arbitrary flip.
func TestQuickSingleErrorProperty(t *testing.T) {
	for _, code := range quickCodes(t) {
		if code.T() < 1 {
			continue
		}
		code := code
		prop := func(seed int64, posRaw uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			data := randomData(rng, code.K())
			word, err := encode(code, data)
			if err != nil {
				return false
			}
			word.Flip(int(posRaw) % code.N())
			got, info, err := decode(code, word)
			return err == nil && got.Equal(data) && info.Corrected >= 1
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", code.Name(), err)
		}
	}
}

// TestQuickLinearityProperty: for the linear codes, the XOR of two codewords
// is itself a codeword (encodes the XOR of the payloads).
func TestQuickLinearityProperty(t *testing.T) {
	linear := []Code{MustHamming74(), MustHamming7164(), MustSECDED7264(), MustBCH157(), MustBCH3121()}
	for _, code := range linear {
		code := code
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			a := randomData(rng, code.K())
			b := randomData(rng, code.K())
			ca, err := encode(code, a)
			if err != nil {
				return false
			}
			cb, err := encode(code, b)
			if err != nil {
				return false
			}
			ab, err := a.Xor(b)
			if err != nil {
				return false
			}
			cab, err := encode(code, ab)
			if err != nil {
				return false
			}
			x, err := ca.Xor(cb)
			if err != nil {
				return false
			}
			return x.Equal(cab)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: linearity violated: %v", code.Name(), err)
		}
	}
}

// TestQuickSystematicProperty: data bits are recoverable from the codeword
// positions the layout promises (front for LinearCode, tail for BCH).
func TestQuickSystematicProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lin := MustHamming7164()
		data := randomData(rng, lin.K())
		word, err := encode(lin, data)
		if err != nil {
			return false
		}
		if !word.Slice(0, lin.K()).Equal(data) {
			return false
		}
		bch := MustBCH157()
		d2 := randomData(rng, bch.K())
		w2, err := encode(bch, d2)
		if err != nil {
			return false
		}
		return w2.Slice(bch.N()-bch.K(), bch.N()).Equal(d2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickBERModelMonotone: every scheme's post-decoding BER is strictly
// increasing in the raw error probability over the working range.
func TestQuickBERModelMonotone(t *testing.T) {
	for _, code := range ExtendedSchemes() {
		code := code
		prop := func(aRaw, bRaw uint32) bool {
			// Map to (1e-9, 0.2) and order.
			toP := func(x uint32) float64 { return 1e-9 + float64(x%1000000)/1000000*0.2 }
			pa, pb := toP(aRaw), toP(bRaw)
			if pa == pb {
				return true
			}
			if pa > pb {
				pa, pb = pb, pa
			}
			return PlanFor(code).PostDecodeBER(pa) < PlanFor(code).PostDecodeBER(pb)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("%s: BER model not monotone: %v", code.Name(), err)
		}
	}
}

// TestQuickCodewordWeightBounds: nonzero codewords of distance-d codes have
// weight >= d (spot-checked via random payload pairs and their difference).
func TestQuickCodewordWeightBounds(t *testing.T) {
	cases := []struct {
		code Code
		dMin int
	}{
		{MustHamming74(), 3},
		{MustHamming7164(), 3},
		{MustSECDED7264(), 4},
		{MustBCH157(), 5},
	}
	for _, c := range cases {
		c := c
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			data := randomData(rng, c.code.K())
			if data.PopCount() == 0 {
				data.Set(0, 1)
			}
			word, err := encode(c.code, data)
			if err != nil {
				return false
			}
			return word.PopCount() >= c.dMin
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
			t.Errorf("%s: weight bound %d violated: %v", c.code.Name(), c.dMin, err)
		}
	}
}

// TestQuickVectorGenerator keeps testing/quick exercising the bits.Vector
// plumbing through reflection-generated inputs.
func TestQuickVectorGenerator(t *testing.T) {
	prop := func(raw []byte) bool {
		v := bits.New(len(raw) * 8)
		for i, by := range raw {
			for b := 0; b < 8; b++ {
				v.Set(i*8+b, int(by>>b)&1)
			}
		}
		// Serialize through a string and back.
		back, err := bits.FromString(v.String())
		return err == nil && back.Equal(v)
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vs []reflect.Value, rng *rand.Rand) {
			raw := make([]byte, rng.Intn(32))
			rng.Read(raw)
			vs[0] = reflect.ValueOf(raw)
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
