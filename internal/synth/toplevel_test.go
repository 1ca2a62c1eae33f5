package synth

import (
	"strings"
	"testing"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
)

// vecFromInts packs 0/1 ints into a bit vector.
func vecFromInts(xs []int) bits.Vector {
	v := bits.New(len(xs))
	for i, x := range xs {
		v.Set(i, x)
	}
	return v
}

func TestTransmitterTopComposition(t *testing.T) {
	lib := DefaultLibrary()
	for _, tc := range []struct {
		code      *ecc.LinearCode
		codedBits int
	}{
		{ecc.MustHamming74(), 112},
		{ecc.MustHamming7164(), 71},
	} {
		top, err := BuildTransmitterTop(tc.code, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := top.Validate(lib); err != nil {
			t.Fatalf("%s: %v", top.Name, err)
		}
		counts := top.CellCounts()
		// 64 input DFF + codedBits coded-word DFF; codedBits HS stages.
		if counts[CellDFF] != 64+tc.codedBits {
			t.Errorf("%s: DFF count %d, want %d", top.Name, counts[CellDFF], 64+tc.codedBits)
		}
		if counts[CellDFFHS] != tc.codedBits {
			t.Errorf("%s: DFFHS count %d, want %d", top.Name, counts[CellDFFHS], tc.codedBits)
		}
		// The composed interface must still meet both clock domains:
		// reg-to-reg paths end either in the 1 GHz codec domain or the
		// 10 GHz serializer domain; the overall CP must beat 1 ns.
		rep, err := AnalyzeTiming(top, lib, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SlackPS <= 0 {
			t.Errorf("%s: composed transmitter misses 1 GHz timing (CP %.0f ps)", top.Name, rep.CriticalPathPS)
		}
		// Area of the composed block exceeds the sum of its Table I
		// pieces only by the input register bank.
		area, err := EstimateArea(top, lib)
		if err != nil {
			t.Fatal(err)
		}
		if area.PlacedAreaUM2 < 300 || area.PlacedAreaUM2 > 3000 {
			t.Errorf("%s: implausible composed area %.0f µm²", top.Name, area.PlacedAreaUM2)
		}
	}
	if _, err := BuildTransmitterTop(ecc.MustHamming74(), 63); err == nil {
		t.Error("non-tiling Ndata should fail")
	}
}

func TestReceiverTopDecodesThroughFullPipeline(t *testing.T) {
	// Gate-level end-to-end: shift a corrupted H(71,64) codeword into the
	// receiver top serially, clock it through, and read the corrected
	// word from the registered outputs.
	lib := DefaultLibrary()
	code := ecc.MustHamming7164()
	top, err := BuildReceiverTop(code, 64)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(top, lib)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int, 64)
	for i := range data {
		data[i] = (i*7 + 3) % 2
	}
	dataVec := vecFromInts(data)
	word := bits.New(code.N())
	if err := code.EncodeInto(word, dataVec); err != nil {
		t.Fatal(err)
	}
	word.Flip(40) // inject one error mid-word

	if err := sim.SetInput("en", 1); err != nil {
		t.Fatal(err)
	}
	// Serial shift: bit 0 first; after 71 ticks stage j holds bit 70-j,
	// matching the receiver's word mapping.
	for i := 0; i < code.N(); i++ {
		if err := sim.SetInput("si", word.Bit(i)); err != nil {
			t.Fatal(err)
		}
		sim.Eval()
		sim.Tick()
	}
	sim.Eval() // settle the decoder against the filled pipeline
	sim.Tick() // latch the corrected outputs
	sim.Eval()
	for i := 0; i < 64; i++ {
		got, err := sim.Output(fmtOutput(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != data[i] {
			t.Fatalf("output bit %d = %d, want %d", i, got, data[i])
		}
	}
}

func TestTopLevelVerilogExport(t *testing.T) {
	lib := DefaultLibrary()
	top, err := BuildTransmitterTop(ecc.MustHamming74(), 64)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ExportVerilog(&sb, top, lib); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "module tx_H_7_4_") {
		t.Error("top-level module header missing")
	}
}

func fmtOutput(i int) string { return "q" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
