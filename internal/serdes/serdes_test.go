package serdes

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
)

func TestNewInterfaceValidation(t *testing.T) {
	// 64 % 4 == 0 and 64 % 64 == 0 work; H(15,11) does not tile 64 bits.
	if _, err := NewInterface(ecc.MustHamming74(), 64); err != nil {
		t.Errorf("H(7,4) over 64 bits should work: %v", err)
	}
	if _, err := NewInterface(ecc.MustHamming7164(), 64); err != nil {
		t.Errorf("H(71,64) over 64 bits should work: %v", err)
	}
	h15, err := ecc.NewHamming(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInterface(h15, 64); err == nil {
		t.Error("H(15,11) does not divide 64 and should be rejected")
	}
	if _, err := NewInterface(ecc.MustHamming74(), 0); err == nil {
		t.Error("zero Ndata should be rejected")
	}
}

func TestInterfaceBlockCounts(t *testing.T) {
	// The paper: 16 parallel H(7,4) codecs vs a single H(71,64) codec.
	i74, err := NewInterface(ecc.MustHamming74(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if i74.BlocksPerWord != 16 {
		t.Errorf("H(7,4) blocks = %d, want 16", i74.BlocksPerWord)
	}
	i7164, err := NewInterface(ecc.MustHamming7164(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if i7164.BlocksPerWord != 1 {
		t.Errorf("H(71,64) blocks = %d, want 1", i7164.BlocksPerWord)
	}
}

// newBlocks returns BlocksPerWord fresh N-bit block buffers for iface.
func newBlocks(iface *Interface) []bits.Vector {
	blocks := make([]bits.Vector, iface.BlocksPerWord)
	for b := range blocks {
		blocks[b] = bits.New(iface.Code.N())
	}
	return blocks
}

func TestEncodeDecodeWordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, code := range ecc.PaperSchemes() {
		iface, err := NewInterface(code, 64)
		if err != nil {
			t.Fatal(err)
		}
		blocks := newBlocks(iface)
		back := bits.New(64)
		for trial := 0; trial < 50; trial++ {
			word := bits.New(64)
			for i := 0; i < 64; i++ {
				word.Set(i, rng.Intn(2))
			}
			if err := iface.EncodeWordInto(blocks, word); err != nil {
				t.Fatal(err)
			}
			info, err := iface.DecodeWordInto(back, blocks)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(word) || info.Corrected != 0 || info.Detected {
				t.Fatalf("%s: clean word roundtrip failed", code.Name())
			}
		}
		if err := iface.EncodeWordInto(blocks[1:], bits.New(64)); err == nil {
			t.Errorf("%s: short block list should be rejected", code.Name())
		}
		if _, err := iface.DecodeWordInto(bits.New(32), blocks); err == nil {
			t.Errorf("%s: short word buffer should be rejected", code.Name())
		}
	}
}

func TestDecodeWordRepairsPerBlockErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	iface, err := NewInterface(ecc.MustHamming74(), 64)
	if err != nil {
		t.Fatal(err)
	}
	word := bits.New(64)
	for i := 0; i < 64; i++ {
		word.Set(i, rng.Intn(2))
	}
	blocks := newBlocks(iface)
	if err := iface.EncodeWordInto(blocks, word); err != nil {
		t.Fatal(err)
	}
	// One error in every one of the 16 blocks: all must be repaired.
	for b := range blocks {
		blocks[b].Flip(rng.Intn(7))
	}
	back := bits.New(64)
	info, err := iface.DecodeWordInto(back, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(word) {
		t.Fatal("16 single-block errors not all repaired")
	}
	if info.Corrected != 16 {
		t.Errorf("Corrected = %d, want 16", info.Corrected)
	}
}

func TestSerializerDeserializerRoundRobin(t *testing.T) {
	ser, err := NewSerializer(4)
	if err != nil {
		t.Fatal(err)
	}
	des, err := NewDeserializer(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	var sent []bits.Vector
	for w := 0; w < 10; w++ {
		v := bits.New(8)
		for i := 0; i < 8; i++ {
			v.Set(i, rng.Intn(2))
		}
		sent = append(sent, v)
		ser.PushWord(v)
	}
	if ser.CodedBits != 80 {
		t.Errorf("CodedBits = %d", ser.CodedBits)
	}
	for lane := 0; lane < 4; lane++ {
		stream := bits.New(ser.LaneLen(lane))
		if err := ser.PopLaneInto(stream, lane); err != nil {
			t.Fatal(err)
		}
		if err := des.PushLane(lane, stream); err != nil {
			t.Fatal(err)
		}
	}
	got := bits.New(8)
	for w := 0; w < 10; w++ {
		ok, err := des.PopWordInto(got)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("word %d missing", w)
		}
		if !got.Equal(sent[w]) {
			t.Fatalf("word %d corrupted in transit", w)
		}
	}
	if ok, _ := des.PopWordInto(got); ok {
		t.Error("extra word appeared")
	}
	if _, err := des.PopWordInto(bits.New(7)); err == nil {
		t.Error("mis-sized word buffer should be rejected")
	}
}

func TestSerializerErrors(t *testing.T) {
	if _, err := NewSerializer(0); err == nil {
		t.Error("0 lanes should be rejected")
	}
	if _, err := NewDeserializer(0, 8); err == nil {
		t.Error("0 lanes should be rejected")
	}
	if _, err := NewDeserializer(2, 0); err == nil {
		t.Error("0 word bits should be rejected")
	}
	ser, _ := NewSerializer(2)
	if err := ser.PopLaneInto(bits.New(1), 5); err == nil {
		t.Error("bad lane should error")
	}
	if err := ser.PopLaneInto(bits.New(1), 0); err == nil {
		t.Error("underflowing lane should error")
	}
	des, _ := NewDeserializer(2, 4)
	if err := des.PushLane(5, bits.New(4)); err == nil {
		t.Error("bad lane should error")
	}
}
