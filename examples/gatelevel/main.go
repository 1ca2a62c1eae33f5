// Gatelevel: synthesize the H(7,4) encoder/decoder of the paper's Table I
// into gate netlists, report area/timing/power, then simulate the circuits
// gate by gate: encode a word, flip a wire, and watch the decoder repair
// it. Finally the synthesized interface powers are fed back into a
// photonoc.Engine, closing the loop from gates to link-level power.
//
//	go run ./examples/gatelevel
package main

import (
	"context"
	"fmt"
	"log"

	"photonoc"

	"photonoc/internal/bits"
	"photonoc/internal/synth"
)

func main() {
	lib := synth.DefaultLibrary()
	code := photonoc.Hamming74().(*photonoc.LinearCode)

	enc := synth.BuildEncoder(code)
	dec := synth.BuildDecoder(code)

	for _, n := range []*synth.Netlist{enc, dec} {
		area, err := synth.EstimateArea(n, lib)
		if err != nil {
			log.Fatal(err)
		}
		timing, err := synth.AnalyzeTiming(n, lib, 1000, 40) // 1 GHz, registered inputs
		if err != nil {
			log.Fatal(err)
		}
		power, err := synth.EstimatePower(n, lib, 1e9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %3d gates  %6.1f µm²  CP %3.0f ps (slack %+4.0f)  %5.3f µW dynamic\n",
			n.Name, n.NumGates(), area.PlacedAreaUM2, timing.CriticalPathPS, timing.SlackPS, power.DynamicUW)
	}

	// Drive the encoder netlist with a payload.
	data := bits.FromUint(0b1011, 4)
	encSim, err := synth.NewSimulator(enc, lib)
	if err != nil {
		log.Fatal(err)
	}
	if err := encSim.SetInput("en", 1); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := encSim.SetInput(fmt.Sprintf("d%d", i), data.Bit(i)); err != nil {
			log.Fatal(err)
		}
	}
	encSim.Eval()
	word := bits.New(7)
	for i := 0; i < 7; i++ {
		v, err := encSim.Output(fmt.Sprintf("pre_c%d", i))
		if err != nil {
			log.Fatal(err)
		}
		word.Set(i, v)
	}
	want := bits.New(code.N())
	if err := code.EncodeInto(want, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npayload %s → gate-level codeword %s (behavioral: %s, match=%v)\n",
		data, word, want, word.Equal(want))

	// Corrupt one wire and run the decoder netlist.
	word.Flip(2)
	fmt.Printf("corrupted codeword: %s (bit 2 flipped)\n", word)
	decSim, err := synth.NewSimulator(dec, lib)
	if err != nil {
		log.Fatal(err)
	}
	if err := decSim.SetInput("en", 1); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := decSim.SetInput(fmt.Sprintf("c%d", i), word.Bit(i)); err != nil {
			log.Fatal(err)
		}
	}
	decSim.Eval()
	got := bits.New(4)
	for i := 0; i < 4; i++ {
		v, err := decSim.Output(fmt.Sprintf("pre_q%d", i))
		if err != nil {
			log.Fatal(err)
		}
		got.Set(i, v)
	}
	errFlag, err := decSim.Output("pre_err")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gate-level decode: %s (error flag=%d, recovered=%v)\n", got, errFlag, got.Equal(data))

	// Close the loop: evaluate the link with the model-derived interface
	// powers instead of the published Table I rows. Two engines, two
	// configurations — the fingerprinted caches never mix them up.
	ctx := context.Background()
	paperEng, err := photonoc.New()
	if err != nil {
		log.Fatal(err)
	}
	cfg := photonoc.DefaultConfig()
	if err := cfg.UseSynthesizedInterfaces(lib); err != nil {
		log.Fatal(err)
	}
	synthEng, err := photonoc.New(photonoc.WithConfig(cfg))
	if err != nil {
		log.Fatal(err)
	}
	paperEv, err := paperEng.Evaluate(ctx, code, 1e-11)
	if err != nil {
		log.Fatal(err)
	}
	synthEv, err := synthEng.Evaluate(ctx, code, 1e-11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nH(7,4) channel power @ BER 1e-11: %.3f mW (Table I) vs %.3f mW (synthesized interfaces)\n",
		paperEv.ChannelPowerW*1e3, synthEv.ChannelPowerW*1e3)
	fmt.Println("the headline is insensitive to the swap — the interface is µW next to a mW laser")
}
