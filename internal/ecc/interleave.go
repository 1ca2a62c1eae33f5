package ecc

import (
	"fmt"

	"photonoc/internal/bits"
)

// Interleaver is a block (row/column) interleaver of the given depth:
// `depth` consecutive codewords are written as rows and transmitted column
// by column, so a burst of up to `depth` consecutive channel errors lands
// as at most one error per codeword — turning bursts (e.g. slow thermal
// transients on the optical link) into patterns a single-error corrector
// can repair.
type Interleaver struct {
	depth int
	width int // codeword length n
}

// NewInterleaver builds an interleaver for `depth` codewords of n bits.
func NewInterleaver(depth, width int) (*Interleaver, error) {
	if depth < 1 {
		return nil, fmt.Errorf("ecc: interleaver depth %d must be >= 1", depth)
	}
	if width < 1 {
		return nil, fmt.Errorf("ecc: interleaver width %d must be >= 1", width)
	}
	return &Interleaver{depth: depth, width: width}, nil
}

// Depth returns the number of codewords per interleaving block.
func (il *Interleaver) Depth() int { return il.depth }

// BlockBits returns the size of one interleaved block, depth × width.
func (il *Interleaver) BlockBits() int { return il.depth * il.width }

// Interleave merges exactly `depth` codewords into one column-major stream.
func (il *Interleaver) Interleave(words []bits.Vector) (bits.Vector, error) {
	if len(words) != il.depth {
		return bits.Vector{}, fmt.Errorf("ecc: interleaver needs %d words, got %d", il.depth, len(words))
	}
	for i, w := range words {
		if w.Len() != il.width {
			return bits.Vector{}, fmt.Errorf("ecc: word %d is %d bits, want %d", i, w.Len(), il.width)
		}
	}
	out := bits.New(il.BlockBits())
	pos := 0
	for col := 0; col < il.width; col++ {
		for row := 0; row < il.depth; row++ {
			out.Set(pos, words[row].Bit(col))
			pos++
		}
	}
	return out, nil
}

// Deinterleave splits a column-major stream back into `depth` codewords.
func (il *Interleaver) Deinterleave(stream bits.Vector) ([]bits.Vector, error) {
	if stream.Len() != il.BlockBits() {
		return nil, fmt.Errorf("ecc: stream is %d bits, want %d", stream.Len(), il.BlockBits())
	}
	words := make([]bits.Vector, il.depth)
	for row := range words {
		words[row] = bits.New(il.width)
	}
	pos := 0
	for col := 0; col < il.width; col++ {
		for row := 0; row < il.depth; row++ {
			words[row].Set(col, stream.Bit(pos))
			pos++
		}
	}
	return words, nil
}

// InterleavedCode wraps a block code with an interleaver, presenting the
// combination as a Code over depth·k data bits: a burst of up to
// depth·t consecutive channel errors per block is always corrected.
type InterleavedCode struct {
	inner Code
	il    *Interleaver
	name  string
	// innerLin is the inner code as a LinearCode when it is one; the
	// bit-sliced kernels specialize on it (the interleaver permutation is
	// then a pure re-indexing of sliced words — see sliced.go).
	innerLin *LinearCode
}

// NewInterleavedCode builds the composition.
func NewInterleavedCode(inner Code, depth int) (*InterleavedCode, error) {
	il, err := NewInterleaver(depth, inner.N())
	if err != nil {
		return nil, err
	}
	lin, _ := inner.(*LinearCode)
	return &InterleavedCode{
		inner:    inner,
		il:       il,
		name:     fmt.Sprintf("IL%dx%s", depth, inner.Name()),
		innerLin: lin,
	}, nil
}

// Name implements Code.
func (c *InterleavedCode) Name() string { return c.name }

// N implements Code.
func (c *InterleavedCode) N() int { return c.il.BlockBits() }

// K implements Code.
func (c *InterleavedCode) K() int { return c.il.Depth() * c.inner.K() }

// T implements Code: against *random* errors the guarantee is still the
// inner code's t (one badly-placed pair defeats it); the burst guarantee
// depth·t is what the interleaver actually buys and is exercised in tests.
func (c *InterleavedCode) T() int { return c.inner.T() }

// BurstTolerance returns the longest burst of consecutive errors the
// composition always corrects: depth · t of the inner code.
func (c *InterleavedCode) BurstTolerance() int { return c.il.Depth() * c.inner.T() }

// EncodeInto implements Code. Unlike the single-block codes it keeps
// two inner-block scratch vectors per call (the interleaver permutation
// prevents encoding in place); only the output allocation is avoided.
func (c *InterleavedCode) EncodeInto(dst, data bits.Vector) error {
	if err := checkEncode(c, dst, data); err != nil {
		return err
	}
	depth, width, k := c.il.Depth(), c.il.width, c.inner.K()
	blockData := bits.New(k)
	blockWord := bits.New(width)
	for row := 0; row < depth; row++ {
		data.SliceInto(blockData, row*k)
		if err := c.inner.EncodeInto(blockWord, blockData); err != nil {
			return err
		}
		for col := 0; col < width; col++ {
			dst.Set(col*depth+row, blockWord.Bit(col))
		}
	}
	return nil
}

// DecodeInto implements Code, with the same two-scratch-vector caveat
// as EncodeInto.
func (c *InterleavedCode) DecodeInto(dst, stream bits.Vector) (DecodeInfo, error) {
	if err := checkDecode(c, dst, stream); err != nil {
		return DecodeInfo{}, err
	}
	depth, width, k := c.il.Depth(), c.il.width, c.inner.K()
	blockWord := bits.New(width)
	blockData := bits.New(k)
	var agg DecodeInfo
	for row := 0; row < depth; row++ {
		for col := 0; col < width; col++ {
			blockWord.Set(col, stream.Bit(col*depth+row))
		}
		info, err := c.inner.DecodeInto(blockData, blockWord)
		if err != nil {
			return DecodeInfo{}, err
		}
		agg.Corrected += info.Corrected
		agg.Detected = agg.Detected || info.Detected
		blockData.CopyInto(dst, row*k)
	}
	return agg, nil
}
