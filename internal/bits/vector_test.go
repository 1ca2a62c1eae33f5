package bits

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := New(130) // spans three words
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Bit(i) != 0 {
			t.Errorf("fresh vector bit %d = 1", i)
		}
		v.Set(i, 1)
		if v.Bit(i) != 1 {
			t.Errorf("Set(%d,1) did not stick", i)
		}
	}
	if v.PopCount() != 8 {
		t.Errorf("PopCount = %d, want 8", v.PopCount())
	}
	v.Flip(0)
	if v.Bit(0) != 0 || v.PopCount() != 7 {
		t.Error("Flip(0) failed")
	}
	v.Set(1, 0)
	if v.Bit(1) != 0 {
		t.Error("Set(1,0) failed")
	}
}

func TestVectorOutOfRangePanics(t *testing.T) {
	v := New(8)
	for name, f := range map[string]func(){
		"Bit-neg":   func() { v.Bit(-1) },
		"Bit-high":  func() { v.Bit(8) },
		"Set-high":  func() { v.Set(8, 1) },
		"Flip-high": func() { v.Flip(8) },
		"New-neg":   func() { New(-1) },
		"Uint-long": func() { New(65).Uint() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFromStringAndString(t *testing.T) {
	v, err := FromString("1011 0010")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 8 || v.String() != "10110010" {
		t.Errorf("roundtrip = %q", v.String())
	}
	if _, err := FromString("10x1"); err == nil {
		t.Error("invalid rune should error")
	}
}

func TestFromUintAndUint(t *testing.T) {
	v := FromUint(0b1101, 6)
	if v.String() != "101100" { // bit 0 first
		t.Errorf("FromUint bits = %q", v.String())
	}
	if v.Uint() != 0b1101 {
		t.Errorf("Uint = %b", v.Uint())
	}
	// Truncation of high bits beyond n.
	v = FromUint(0xFF, 4)
	if v.Uint() != 0xF {
		t.Errorf("Uint after truncation = %x", v.Uint())
	}
	if New(0).Uint() != 0 {
		t.Error("empty Uint should be 0")
	}
}

func TestFromWordsAliases(t *testing.T) {
	words := []uint64{0b101, 1 << 63}
	v := FromWords(words, 128)
	if v.Len() != 128 {
		t.Fatalf("Len = %d, want 128", v.Len())
	}
	if short := FromWords(words, 3); short.Len() != 3 || short.PopCount() != 2 {
		t.Errorf("3-bit view: Len %d, PopCount %d, want 3 and 2", short.Len(), short.PopCount())
	}
	if got := v.OnesPositions(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 127 {
		t.Errorf("ones at %v, want [0 2 127]", got)
	}
	// The view writes through to the caller's words.
	v.Flip(64)
	if words[1] != 1<<63|1 {
		t.Errorf("Flip through the view left words[1] = %#x", words[1])
	}
	for _, n := range []int{-1, 129} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromWords(2 words, %d) did not panic", n)
				}
			}()
			FromWords(words, n)
		}()
	}
}

func TestXorPopcountProperty(t *testing.T) {
	// Property: PopCount(a^b) == HammingDistance(a, b), and a^a == 0.
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a.Set(i, rng.Intn(2))
			b.Set(i, rng.Intn(2))
		}
		x, err := a.Xor(b)
		if err != nil {
			return false
		}
		d, err := HammingDistance(a, b)
		if err != nil || x.PopCount() != d {
			return false
		}
		self, _ := a.Xor(a)
		return self.PopCount() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestXorLengthMismatch(t *testing.T) {
	if _, err := New(4).Xor(New(5)); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := HammingDistance(New(4), New(5)); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := New(10)
	a.Set(3, 1)
	b := a.Clone()
	b.Flip(3)
	if a.Bit(3) != 1 || b.Bit(3) != 0 {
		t.Error("Clone shares storage with original")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone should equal original")
	}
}

func TestSliceConcatRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 2
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2))
		}
		cut := rng.Intn(n)
		back := v.Slice(0, cut).Concat(v.Slice(cut, n))
		return back.Equal(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCopyInto(t *testing.T) {
	dst := New(10)
	src, _ := FromString("111")
	src.CopyInto(dst, 4)
	if dst.String() != "0000111000" {
		t.Errorf("CopyInto result %q", dst.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("overflowing CopyInto should panic")
		}
	}()
	src.CopyInto(dst, 8)
}

func TestAndMaskParity(t *testing.T) {
	v, _ := FromString("1101") // bits 0,1,3 set
	cases := []struct {
		mask uint64
		want int
	}{
		{0b0001, 1}, // selects bit 0 → one set bit → parity 1
		{0b0011, 0}, // bits 0,1 → two set → 0
		{0b1011, 1}, // bits 0,1,3 → three set → 1
		{0b0100, 0}, // bit 2 is zero
	}
	for _, c := range cases {
		if got := v.AndMaskParity([]uint64{c.mask}); got != c.want {
			t.Errorf("AndMaskParity(%b) = %d, want %d", c.mask, got, c.want)
		}
	}
	// Mask shorter than the vector's word count is treated as zero-extended.
	long := New(100)
	long.Set(99, 1)
	if got := long.AndMaskParity([]uint64{^uint64(0)}); got != 0 {
		t.Errorf("short mask parity = %d, want 0", got)
	}
}

func TestOnesPositions(t *testing.T) {
	v, _ := FromString("0101001")
	if got := v.OnesPositions(); !reflect.DeepEqual(got, []int{1, 3, 6}) {
		t.Errorf("OnesPositions = %v", got)
	}
	if got := New(5).OnesPositions(); got != nil {
		t.Errorf("zero vector positions = %v", got)
	}
}
