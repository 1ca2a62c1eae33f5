package ecc

import (
	"fmt"

	"photonoc/internal/bits"
)

// InterleavedCode wraps a block code with a block (row/column) interleaver,
// presenting the combination as a Code over depth·k data bits: `depth`
// consecutive inner codewords are written as rows and transmitted column by
// column — codeword bit col of row row at stream position col·depth+row —
// so a burst of up to `depth` consecutive channel errors lands as at most
// one error per inner codeword, and a burst of up to depth·t is always
// corrected. Bursts model multi-bit upsets from slow transients such as
// thermal drift on the optical link.
//
// EncodeInto and DecodeInto allocate nothing when the inner code is one of
// this package's codes with at most maxRowBits (256) codeword bits: each
// inner block passes through two stack vectors. Larger inner codes, and
// Code implementations from outside the package, get heap scratch per call.
type InterleavedCode struct {
	inner Code
	depth int
	name  string
	// innerLin is the inner code as a LinearCode when it is one; the
	// bit-sliced kernels specialize on it (the interleaver permutation is
	// then a pure re-indexing of sliced words — see sliced.go).
	innerLin *LinearCode
}

// maxRowBits bounds the inner codeword InterleavedCode's codec keeps on the
// stack.
const maxRowBits = 256

// NewInterleavedCode builds the composition of inner with a depth-row
// interleaver.
func NewInterleavedCode(inner Code, depth int) (*InterleavedCode, error) {
	if depth < 1 {
		return nil, fmt.Errorf("ecc: interleaver depth %d must be >= 1", depth)
	}
	lin, _ := inner.(*LinearCode)
	return &InterleavedCode{
		inner:    inner,
		depth:    depth,
		name:     fmt.Sprintf("IL%dx%s", depth, inner.Name()),
		innerLin: lin,
	}, nil
}

// Name implements Code.
func (c *InterleavedCode) Name() string { return c.name }

// N implements Code.
func (c *InterleavedCode) N() int { return c.depth * c.inner.N() }

// K implements Code.
func (c *InterleavedCode) K() int { return c.depth * c.inner.K() }

// T implements Code: against *random* errors the guarantee is still the
// inner code's t (one badly-placed pair defeats it); the burst guarantee
// depth·t is what the interleaver actually buys and is exercised in tests.
func (c *InterleavedCode) T() int { return c.inner.T() }

// BurstTolerance returns the longest burst of consecutive errors the
// composition always corrects: depth · t of the inner code.
func (c *InterleavedCode) BurstTolerance() int { return c.depth * c.inner.T() }

// EncodeInto implements Code: each row's data is encoded into a scratch
// inner codeword, whose bits are then scattered to their stream positions.
func (c *InterleavedCode) EncodeInto(dst, data bits.Vector) error {
	if err := checkEncode(c, dst, data); err != nil {
		return err
	}
	var wordBuf, dataBuf [maxRowBits / 64]uint64
	blockWord, blockData := c.rowScratch(wordBuf[:], dataBuf[:])
	depth, width, k := c.depth, blockWord.Len(), blockData.Len()
	for row := 0; row < depth; row++ {
		data.SliceInto(blockData, row*k)
		if err := encodeRow(c.inner, blockWord, blockData); err != nil {
			return err
		}
		for col := 0; col < width; col++ {
			dst.Set(col*depth+row, blockWord.Bit(col))
		}
	}
	return nil
}

// DecodeInto implements Code: each row is gathered from its stream
// positions into a scratch inner codeword and decoded there.
func (c *InterleavedCode) DecodeInto(dst, stream bits.Vector) (DecodeInfo, error) {
	if err := checkDecode(c, dst, stream); err != nil {
		return DecodeInfo{}, err
	}
	var wordBuf, dataBuf [maxRowBits / 64]uint64
	blockWord, blockData := c.rowScratch(wordBuf[:], dataBuf[:])
	depth, width, k := c.depth, blockWord.Len(), blockData.Len()
	var agg DecodeInfo
	for row := 0; row < depth; row++ {
		for col := 0; col < width; col++ {
			blockWord.Set(col, stream.Bit(col*depth+row))
		}
		info, err := decodeRow(c.inner, blockData, blockWord)
		if err != nil {
			return DecodeInfo{}, err
		}
		agg.Corrected += info.Corrected
		agg.Detected = agg.Detected || info.Detected
		blockData.CopyInto(dst, row*k)
	}
	return agg, nil
}

// rowScratch returns an inner codeword and an inner data vector over the
// caller's stack words, or on the heap for inner codes above maxRowBits.
func (c *InterleavedCode) rowScratch(wordBuf, dataBuf []uint64) (word, data bits.Vector) {
	n, k := c.inner.N(), c.inner.K()
	if n > maxRowBits {
		return bits.New(n), bits.New(k)
	}
	return bits.FromWords(wordBuf, n), bits.FromWords(dataBuf, k)
}

// encodeRow and decodeRow call the inner codec through the package's
// concrete code types: a call through the Code interface would make the
// compiler move the callers' stack scratch to the heap. Other Code
// implementations are called through the interface on heap copies.
func encodeRow(inner Code, dst, data bits.Vector) error {
	switch in := inner.(type) {
	case *LinearCode:
		return in.EncodeInto(dst, data)
	case *ExtendedHamming:
		return in.EncodeInto(dst, data)
	case *BCH:
		return in.EncodeInto(dst, data)
	case *Repetition:
		return in.EncodeInto(dst, data)
	case *Uncoded:
		return in.EncodeInto(dst, data)
	case *InterleavedCode:
		return in.EncodeInto(dst, data)
	}
	word := bits.New(dst.Len())
	if err := inner.EncodeInto(word, data.Clone()); err != nil {
		return err
	}
	word.CopyInto(dst, 0)
	return nil
}

func decodeRow(inner Code, dst, word bits.Vector) (DecodeInfo, error) {
	switch in := inner.(type) {
	case *LinearCode:
		return in.DecodeInto(dst, word)
	case *ExtendedHamming:
		return in.DecodeInto(dst, word)
	case *BCH:
		return in.DecodeInto(dst, word)
	case *Repetition:
		return in.DecodeInto(dst, word)
	case *Uncoded:
		return in.DecodeInto(dst, word)
	case *InterleavedCode:
		return in.DecodeInto(dst, word)
	}
	data := bits.New(dst.Len())
	info, err := inner.DecodeInto(data, word.Clone())
	if err != nil {
		return DecodeInfo{}, err
	}
	data.CopyInto(dst, 0)
	return info, nil
}
