package ecc

import (
	mathbits "math/bits"
)

// SlicedWidth is the number of independent frames one bit-sliced word-op
// processes: the bit-sliced Monte-Carlo layout is lane-major — sliced word i
// holds codeword bit i of SlicedWidth frames, frame f occupying bit f of
// every word — so one 64-bit XOR/AND/popcount advances all 64 frames at once.
const SlicedWidth = 64

// SlicedInfo aggregates what a bit-sliced decode did across its SlicedWidth
// frames.
type SlicedInfo struct {
	// Corrected is the total number of bit flips applied across all frames.
	Corrected int
	// Detected is the per-frame mask of detected-uncorrectable outcomes:
	// bit f set means frame f's word was flagged Detected.
	Detected uint64
}

// Slicer is implemented by codes with bit-sliced kernels. data holds K
// sliced words and word N sliced words; both methods are allocation-free and
// overwrite their destination completely. DecodeSliced must agree exactly,
// frame by frame, with DecodeInto applied to the transposed frames (the property
// tests enforce this across the registry).
//
// Obtain a Slicer through AsSlicer rather than type-asserting: composed
// codes may carry the methods while only supporting them for particular
// inner codes.
type Slicer interface {
	Code
	// EncodeSliced computes the N sliced codeword words from K sliced data
	// words.
	EncodeSliced(word, data []uint64)
	// DecodeSliced recovers the K sliced data words from N received sliced
	// words and reports the aggregate decode outcome.
	DecodeSliced(data, word []uint64) SlicedInfo
}

// AsSlicer returns the bit-sliced kernel of c when one is available:
// LinearCode (Hamming, shortened Hamming, parity), Uncoded, ExtendedHamming,
// Repetition, and InterleavedCode over a LinearCode inner. Codes without a
// kernel (BCH's algebraic decoder, interleaved compositions over non-linear
// inners) return false and run on the scalar per-frame path.
func AsSlicer(c Code) (Slicer, bool) {
	if il, ok := c.(*InterleavedCode); ok {
		if il.innerLin == nil {
			return nil, false
		}
		return il, true
	}
	s, ok := c.(Slicer)
	return s, ok
}

// EncodeSliced implements Slicer: the data words pass through and each
// parity slice is the XOR of the data slices in its footprint — one word-op
// per (parity, footprint-bit) pair for 64 frames.
func (c *LinearCode) EncodeSliced(word, data []uint64) {
	copy(word[:c.k], data[:c.k])
	for j, idx := range c.parityIdx {
		var acc uint64
		for _, i := range idx {
			acc ^= data[i]
		}
		word[c.k+j] = acc
	}
}

// syndromeSlices fills synd[j] with sliced syndrome bit j of the received
// sliced word and returns the OR of all syndrome slices — the mask of frames
// with a nonzero syndrome. word may carry extra trailing slices (the SECDED
// extension bit); only the N code positions are read.
func (c *LinearCode) syndromeSlices(synd, word []uint64) uint64 {
	var nz uint64
	for j, idx := range c.parityIdx {
		s := word[c.k+j]
		for _, i := range idx {
			s ^= word[i]
		}
		synd[j] = s
		nz |= s
	}
	return nz
}

// gatherSyndrome extracts frame f's r-bit syndrome from the sliced syndrome
// words.
func gatherSyndrome(synd []uint64, f uint) uint64 {
	var s uint64
	for j := range synd {
		s |= (synd[j] >> f & 1) << uint(j)
	}
	return s
}

// DecodeSliced implements Slicer. Clean frames (the overwhelming majority at
// operating BERs) cost only the syndrome word-ops; frames with a nonzero
// syndrome are resolved one by one through the dense table.
func (c *LinearCode) DecodeSliced(data, word []uint64) SlicedInfo {
	copy(data[:c.k], word[:c.k])
	var info SlicedInfo
	var syndBuf [64]uint64
	synd := syndBuf[:c.r]
	nz := c.syndromeSlices(synd, word)
	if c.t == 0 {
		info.Detected = nz
		return info
	}
	for m := nz; m != 0; m &= m - 1 {
		f := uint(mathbits.TrailingZeros64(m))
		pos, ok := c.synLookup(gatherSyndrome(synd, f))
		if !ok {
			info.Detected |= 1 << f
			continue
		}
		if pos < c.k {
			data[pos] ^= 1 << f
		}
		info.Corrected++
	}
	return info
}

// EncodeSliced implements Slicer (identity).
func (c *Uncoded) EncodeSliced(word, data []uint64) {
	copy(word[:c.k], data[:c.k])
}

// DecodeSliced implements Slicer (identity).
func (c *Uncoded) DecodeSliced(data, word []uint64) SlicedInfo {
	copy(data[:c.k], word[:c.k])
	return SlicedInfo{}
}

// EncodeSliced implements Slicer: the inner kernel plus the overall parity
// slice (XOR of every inner codeword slice).
func (c *ExtendedHamming) EncodeSliced(word, data []uint64) {
	in := c.inner
	innerN := in.N()
	in.EncodeSliced(word[:innerN], data)
	var acc uint64
	for i := 0; i < innerN; i++ {
		acc ^= word[i]
	}
	word[innerN] = acc
}

// DecodeSliced implements Slicer with the SECDED case analysis: the frames
// needing attention are exactly those in (nonzero syndrome) OR (bad overall
// parity).
func (c *ExtendedHamming) DecodeSliced(data, word []uint64) SlicedInfo {
	in := c.inner
	copy(data[:in.k], word[:in.k])
	var syndBuf [64]uint64
	synd := syndBuf[:in.r]
	nz := in.syndromeSlices(synd, word)
	var parityBad uint64
	for _, w := range word {
		parityBad ^= w
	}
	var info SlicedInfo
	for m := nz | parityBad; m != 0; m &= m - 1 {
		f := uint(mathbits.TrailingZeros64(m))
		s := gatherSyndrome(synd, f)
		pb := parityBad>>f&1 == 1
		switch {
		case s == 0:
			// pb must hold: only the appended parity bit flipped.
			info.Corrected++
		case pb:
			pos, ok := in.synLookup(s)
			if !ok {
				info.Detected |= 1 << f
				continue
			}
			if pos < in.k {
				data[pos] ^= 1 << f
			}
			info.Corrected++
		default:
			// Nonzero syndrome, good parity: double error, uncorrectable.
			info.Detected |= 1 << f
		}
	}
	return info
}

// EncodeSliced implements Slicer: each data slice is replicated r times.
func (c *Repetition) EncodeSliced(word, data []uint64) {
	for i := 0; i < c.k; i++ {
		base := i * c.r
		for j := 0; j < c.r; j++ {
			word[base+j] = data[i]
		}
	}
}

// DecodeSliced implements Slicer: a carry-save adder accumulates the r copy
// slices into a per-lane binary counter, and a bitwise comparator decides
// count > r/2 for all 64 lanes at once.
func (c *Repetition) DecodeSliced(data, word []uint64) SlicedInfo {
	var info SlicedInfo
	h := c.r / 2
	width := mathbits.Len(uint(c.r))
	var cntBuf [64]uint64 // binary counter bits; width = Len(r) <= 64 always
	cnt := cntBuf[:width]
	for i := 0; i < c.k; i++ {
		base := i * c.r
		for b := range cnt {
			cnt[b] = 0
		}
		for j := 0; j < c.r; j++ {
			x := word[base+j]
			for b := 0; b < width && x != 0; b++ {
				carry := cnt[b] & x
				cnt[b] ^= x
				x = carry
			}
		}
		// Per-lane comparison cnt > h, walking the counter bits MSB-first.
		var gt uint64
		eq := ^uint64(0)
		for b := width - 1; b >= 0; b-- {
			var tb uint64
			if h>>uint(b)&1 == 1 {
				tb = ^uint64(0)
			}
			gt |= eq & cnt[b] &^ tb
			eq &= ^(cnt[b] ^ tb)
		}
		data[i] = gt
		// Minority copies are the corrections the majority vote implied.
		for j := 0; j < c.r; j++ {
			info.Corrected += mathbits.OnesCount64(word[base+j] ^ gt)
		}
	}
	return info
}

// EncodeSliced implements Slicer for LinearCode inners: the interleaver
// permutation is a pure re-indexing of sliced words, so each inner block
// encodes directly into its scattered positions with no scratch.
// AsSlicer guards availability; calling this with a non-LinearCode inner
// panics.
func (c *InterleavedCode) EncodeSliced(word, data []uint64) {
	in := c.innerLin
	depth, k := c.il.depth, in.k
	for row := 0; row < depth; row++ {
		d := data[row*k : (row+1)*k]
		for col := 0; col < k; col++ {
			word[col*depth+row] = d[col]
		}
		for j, idx := range in.parityIdx {
			var acc uint64
			for _, i := range idx {
				acc ^= d[i]
			}
			word[(k+j)*depth+row] = acc
		}
	}
}

// DecodeSliced implements Slicer for LinearCode inners; see EncodeSliced.
func (c *InterleavedCode) DecodeSliced(data, word []uint64) SlicedInfo {
	in := c.innerLin
	depth, k, r := c.il.depth, in.k, in.r
	var info SlicedInfo
	var syndBuf [64]uint64
	synd := syndBuf[:r]
	for row := 0; row < depth; row++ {
		out := data[row*k : (row+1)*k]
		for col := 0; col < k; col++ {
			out[col] = word[col*depth+row]
		}
		var nz uint64
		for j, idx := range in.parityIdx {
			s := word[(k+j)*depth+row]
			for _, i := range idx {
				s ^= word[int(i)*depth+row]
			}
			synd[j] = s
			nz |= s
		}
		if in.t == 0 {
			info.Detected |= nz
			continue
		}
		for m := nz; m != 0; m &= m - 1 {
			f := uint(mathbits.TrailingZeros64(m))
			pos, ok := in.synLookup(gatherSyndrome(synd, f))
			if !ok {
				info.Detected |= 1 << f
				continue
			}
			if pos < k {
				out[pos] ^= 1 << f
			}
			info.Corrected++
		}
	}
	return info
}
