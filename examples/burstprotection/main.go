// Burstprotection: thermal transients on an optical link flip *consecutive*
// bits, which defeats a single-error Hamming code. Interleaving `depth`
// codewords turns a burst of up to `depth` errors into one error per
// codeword. This example measures word error rates with and without the
// interleaver under a bursty channel, then prices the interleaved scheme
// on the optical link through the photonoc.Engine (custom codes drop into
// the same sweep machinery as the paper's).
//
//	go run ./examples/burstprotection
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"photonoc"

	"photonoc/internal/bits"
)

const (
	trials      = 20000
	burstLength = 6
	depth       = 8
)

func main() {
	inner := photonoc.Hamming74()
	ifc, err := photonoc.InterleavedHamming74(depth)
	if err != nil {
		log.Fatal(err)
	}
	interleaved := ifc.(*photonoc.InterleavedCode)
	fmt.Printf("channel: one %d-bit burst per %d-codeword block\n\n", burstLength, depth)

	rng := rand.New(rand.NewSource(7))
	bare := measureBare(rng, inner)
	il := measureInterleaved(rng, interleaved)

	fmt.Printf("%-28s word-error rate %.4f\n", "bare "+inner.Name()+":", bare)
	fmt.Printf("%-28s word-error rate %.4f\n", interleaved.Name()+":", il)
	fmt.Printf("\nburst tolerance of %s: %d consecutive bits (depth %d × t=%d)\n",
		interleaved.Name(), interleaved.BurstTolerance(), depth, inner.T())
	if il == 0 && bare > 0 {
		fmt.Println("interleaving converts every burst into correctable single errors ✓")
	}

	// What does burst protection cost on the link? Register the custom
	// interleaved code next to the bare one in an Engine and sweep: the
	// interleaver spreads errors but keeps n/k, so CT and laser power
	// match — burst tolerance is free at the optical layer.
	eng, err := photonoc.New(photonoc.WithSchemes(inner, interleaved))
	if err != nil {
		log.Fatal(err)
	}
	evs, err := eng.Sweep(context.Background(), nil, []float64{1e-11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, ev := range evs {
		fmt.Printf("%-22s @ BER 1e-11: CT %.3f, Plaser %.2f mW, Pchannel %.2f mW\n",
			ev.Code.Name(), ev.CT, ev.LaserPowerW*1e3, ev.ChannelPowerW*1e3)
	}
}

// measureBare sends depth back-to-back H(7,4) codewords and injects one
// burst across the concatenated stream.
func measureBare(rng *rand.Rand, code photonoc.Code) float64 {
	errors := 0
	datas := make([]bits.Vector, depth)
	stream := bits.New(depth * code.N())
	word, got := bits.New(code.N()), bits.New(code.K())
	for trial := 0; trial < trials; trial++ {
		for i := range datas {
			datas[i] = randomWord(rng, code.K())
			if err := code.EncodeInto(word, datas[i]); err != nil {
				log.Fatal(err)
			}
			word.CopyInto(stream, i*code.N())
		}
		if err := bits.BurstError(stream, rng.Intn(stream.Len()), burstLength); err != nil {
			log.Fatal(err)
		}
		for i := range datas {
			stream.SliceInto(word, i*code.N())
			if _, err := code.DecodeInto(got, word); err != nil {
				log.Fatal(err)
			}
			if !got.Equal(datas[i]) {
				errors++
				break
			}
		}
	}
	return float64(errors) / trials
}

// measureInterleaved sends the same payload through the interleaved code.
func measureInterleaved(rng *rand.Rand, code *photonoc.InterleavedCode) float64 {
	errors := 0
	stream, got := bits.New(code.N()), bits.New(code.K())
	for trial := 0; trial < trials; trial++ {
		data := randomWord(rng, code.K())
		if err := code.EncodeInto(stream, data); err != nil {
			log.Fatal(err)
		}
		if err := bits.BurstError(stream, rng.Intn(stream.Len()), burstLength); err != nil {
			log.Fatal(err)
		}
		if _, err := code.DecodeInto(got, stream); err != nil {
			log.Fatal(err)
		}
		if !got.Equal(data) {
			errors++
		}
	}
	return float64(errors) / trials
}

func randomWord(rng *rand.Rand, n int) bits.Vector {
	v := bits.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Intn(2))
	}
	return v
}
