package mc

import (
	"context"
	mathbits "math/bits"
	"math/rand"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
)

// slicedRunner is one shard of the bit-sliced kernel: N codeword slices and
// K decoded slices, each word carrying one bit position of 64 concurrent
// frames. It sends the all-zero codeword: the codes it runs are linear with
// syndrome decoders, so decode(c ⊕ e) ⊕ data depends on the error pattern e
// alone (ecc's TestZeroCodewordCoupling checks this on every sliced code),
// and the decoded slices of a corrupted zero codeword are the frames' data
// errors themselves. No payload is drawn and nothing is encoded.
type slicedRunner struct {
	code ecc.Slicer
	k    int
	rng  *rand.Rand
	// bsc corrupts the N codeword slices as one n·64-bit vector. Bit f of
	// sliced word i is codeword bit i of frame f, so per-frame flips are
	// i.i.d. Bernoulli(p), exactly a BSC.
	bsc bits.BSC

	word, out []uint64
}

func newSlicedRunner(code ecc.Slicer, bsc bits.BSC, rng *rand.Rand) *slicedRunner {
	n := code.N()
	buf := make([]uint64, n+code.K())
	return &slicedRunner{
		code: code,
		k:    code.K(),
		rng:  rng,
		bsc:  bsc,
		word: buf[:n:n],
		out:  buf[n:],
	}
}

func (r *slicedRunner) runWords(ctx context.Context, words int, c *counts) error {
	for w := 0; w < words; w++ {
		if w%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		clear(r.word)
		r.bsc.Corrupt(bits.FromWords(r.word, 64*len(r.word)), r.rng)
		info := r.code.DecodeSliced(r.out, r.word)

		var frameBad uint64
		bitErrs := 0
		for _, d := range r.out {
			bitErrs += mathbits.OnesCount64(d)
			frameBad |= d
		}
		fail := frameBad | info.Detected

		c.bitErrors += int64(bitErrs)
		c.frameErrors += int64(mathbits.OnesCount64(fail))
		c.detectedFrames += int64(mathbits.OnesCount64(info.Detected))
		c.correctedBits += int64(info.Corrected)
		c.frames += ecc.SlicedWidth
		c.payloadBits += int64(ecc.SlicedWidth * r.k)
	}
	return nil
}

// scalarRunner is one shard of the per-frame reference kernel: the classic
// encode → corrupt → decode loop over bits.Vector buffers, allocation-free
// through the EncodeInto/DecodeInto seams of ecc.Code. It is the fallback
// for codes without a sliced kernel (BCH) and, under Options.ForceScalar,
// the baseline the bit-sliced estimator is cross-validated and benchmarked
// against. It keeps random payloads, so that cross-check also covers the
// sliced kernel's zero-codeword shortcut.
type scalarRunner struct {
	code ecc.Code
	rng  *rand.Rand
	bsc  bits.BSC

	data, word, out bits.Vector
}

func newScalarRunner(code ecc.Code, bsc bits.BSC, rng *rand.Rand) *scalarRunner {
	return &scalarRunner{
		code: code,
		rng:  rng,
		bsc:  bsc,
		data: bits.New(code.K()),
		word: bits.New(code.N()),
		out:  bits.New(code.K()),
	}
}

func (r *scalarRunner) runWords(ctx context.Context, words int, c *counts) error {
	k := int64(r.code.K())
	for w := 0; w < words; w++ {
		if w%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for f := 0; f < ecc.SlicedWidth; f++ {
			r.data.FillRandom(r.rng)
			if err := r.code.EncodeInto(r.word, r.data); err != nil {
				return err
			}
			r.bsc.Corrupt(r.word, r.rng)
			info, err := r.code.DecodeInto(r.out, r.word)
			if err != nil {
				return err
			}
			d, err := r.out.XorPopCount(r.data)
			if err != nil {
				return err
			}
			c.bitErrors += int64(d)
			if d > 0 || info.Detected {
				c.frameErrors++
			}
			if info.Detected {
				c.detectedFrames++
			}
			c.correctedBits += int64(info.Corrected)
			c.frames++
			c.payloadBits += k
		}
	}
	return nil
}
