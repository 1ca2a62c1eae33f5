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

// Slicer is implemented by codes with bit-sliced decoders. data holds K
// sliced words and word N sliced words; DecodeSliced is allocation-free and
// overwrites data completely. It must agree exactly, frame by frame, with
// DecodeInto applied to the transposed frames (the property tests enforce
// this across the registry). There is no sliced encoder: every Slicer is a
// linear code whose decoder's data error depends on the error pattern alone,
// so the Monte-Carlo kernel sends the all-zero codeword and corrupts it
// (TestZeroCodewordCoupling checks the property on every Slicer). The
// single-error correctors (LinearCode, ExtendedHamming and InterleavedCode
// over a LinearCode) share one corrector, correctSliced, whose per-frame and
// all-frames branches give identical results.
//
// Obtain a Slicer through AsSlicer rather than type-asserting: composed
// codes may carry the methods while only supporting them for particular
// inner codes.
type Slicer interface {
	Code
	// DecodeSliced recovers the K sliced data words from N received sliced
	// words and reports the aggregate decode outcome.
	DecodeSliced(data, word []uint64) SlicedInfo
}

// AsSlicer returns the bit-sliced decoder of c when one is available:
// LinearCode (Hamming, shortened Hamming, parity), Uncoded, ExtendedHamming,
// Repetition (odd factors only, so the majority vote has no ties), and
// InterleavedCode over a LinearCode inner. Codes without one (BCH's
// algebraic decoder, interleaved compositions over non-linear inners)
// return false and run on the scalar per-frame path, which encodes random
// payloads.
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

// mintermBits is the most syndrome bits one minterm table of correctSliced
// covers: its two stack tables hold 2^mintermBits masks each, so codes with
// up to 2·mintermBits parity bits get the minterm branch.
const mintermBits = 4

// mintermCrossover is correctSliced's cost model for an (n, n−r) code: the
// number of frames to correct from which the minterm branch is the cheaper
// one. In units of about one nanosecond on a 2-CPU x86-64 host (go1.24), the
// per-frame branch costs r+8 per frame (gather r syndrome bits, look the
// position up, flip one bit) and the minterm branch 2^(r/2) + 2^(r−r/2) to
// fill its two tables, 2 per codeword column and 8 besides. That puts the
// switch at 3 frames for H(7,4) and 12 for H(71,64); BenchmarkCorrectSliced
// runs both branches at half, once and twice the crossover.
func mintermCrossover(n, r int) int {
	dense := 1<<(r/2) + 1<<(r-r/2) + 2*n + 8
	perFrame := r + 8
	return (dense + perFrame - 1) / perFrame
}

// minterms fills t[s], for every s < len(t) = 2^len(synd), with the frames
// of base whose syndrome bits synd spell exactly s.
func minterms(t, synd []uint64, base uint64) {
	t[0] = base
	for j, sj := range synd {
		w := 1 << uint(j)
		for e := 0; e < w; e++ {
			t[e|w] = t[e] & sj
			t[e] &^= sj
		}
	}
}

// correctSliced is the single-error corrector of every t = 1 sliced kernel:
// LinearCode, the parity-bad frames of ExtendedHamming and each row of an
// InterleavedCode. synd holds the r syndrome slices of one block, mask the
// frames to correct (all with a nonzero syndrome) and data the block's K
// data slices. A frame whose syndrome is column i of H has an error at
// position i: data bit i flips (a parity-bit error leaves the data as it is)
// and the frame counts one correction. A frame whose syndrome is no column
// is returned as detected.
//
// Two branches give the same result. With few frames to correct, each is
// resolved on its own: gather its syndrome, look its position up.
// From mintermCrossover frames on, all 64 are resolved at once: the low and
// high halves of the syndrome slices expand into minterm tables, the masks of
// frames whose half-syndrome equals each value, and one AND of two table
// entries per codeword column yields the frames with an error there.
func (c *LinearCode) correctSliced(data, synd []uint64, mask uint64) (corrected int, detected uint64) {
	if mathbits.OnesCount64(mask) < c.mintermFrom {
		for m := mask; m != 0; m &= m - 1 {
			f := uint(mathbits.TrailingZeros64(m))
			pos, ok := c.synLookup(gatherSyndrome(synd, f))
			if !ok {
				detected |= 1 << f
				continue
			}
			if pos < c.k {
				data[pos] ^= 1 << f
			}
			corrected++
		}
		return corrected, detected
	}
	var lo, hi [1 << mintermBits]uint64
	half := c.r / 2
	minterms(lo[:1<<half], synd[:half], mask)
	minterms(hi[:1<<(c.r-half)], synd[half:c.r], ^uint64(0))
	var hit uint64
	data = data[:c.k]
	for i, s := range c.synCols[:len(data)] {
		m := lo[s&(1<<mintermBits-1)] & hi[s>>mintermBits]
		hit |= m
		data[i] ^= m
	}
	for _, s := range c.synCols[len(data):] {
		hit |= lo[s&(1<<mintermBits-1)] & hi[s>>mintermBits]
	}
	return mathbits.OnesCount64(hit), mask &^ hit
}

// DecodeSliced implements Slicer. Clean frames (the overwhelming majority at
// operating BERs) cost only the syndrome word-ops; frames with a nonzero
// syndrome go to correctSliced.
func (c *LinearCode) DecodeSliced(data, word []uint64) SlicedInfo {
	copy(data[:c.k], word[:c.k])
	var syndBuf [64]uint64
	synd := syndBuf[:c.r]
	nz := c.syndromeSlices(synd, word)
	if c.t == 0 {
		return SlicedInfo{Detected: nz}
	}
	corrected, detected := c.correctSliced(data, synd, nz)
	return SlicedInfo{Corrected: corrected, Detected: detected}
}

// DecodeSliced implements Slicer (identity).
func (c *Uncoded) DecodeSliced(data, word []uint64) SlicedInfo {
	copy(data[:c.k], word[:c.k])
	return SlicedInfo{}
}

// DecodeSliced implements Slicer with the SECDED case analysis, one mask
// per case: only the frames with a nonzero syndrome and bad overall parity
// reach the corrector.
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
	// Zero syndrome, bad parity: only the appended parity bit flipped.
	// Nonzero syndrome, good parity: a double error, uncorrectable.
	corrected, detected := in.correctSliced(data, synd, nz&parityBad)
	return SlicedInfo{
		Corrected: corrected + mathbits.OnesCount64(parityBad&^nz),
		Detected:  detected | nz&^parityBad,
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

// DecodeSliced implements Slicer for LinearCode inners: the interleaver
// permutation is a pure re-indexing of sliced words, so each row gathers its
// data and syndrome slices from their scattered positions, with no scratch,
// and goes through the inner code's corrector. AsSlicer guards
// availability; calling this with a non-LinearCode inner panics.
func (c *InterleavedCode) DecodeSliced(data, word []uint64) SlicedInfo {
	in := c.innerLin
	depth, k, r := c.depth, in.k, in.r
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
		corrected, detected := in.correctSliced(out, synd, nz)
		info.Corrected += corrected
		info.Detected |= detected
	}
	return info
}
