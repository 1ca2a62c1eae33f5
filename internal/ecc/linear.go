package ecc

import (
	"fmt"

	"photonoc/internal/bits"
	"photonoc/internal/gf2"
)

// LinearCode is a systematic binary linear block code described by its
// parity submatrix P (k rows × r columns): the generator matrix is
// G = [I_k | P] and the parity-check matrix H = [Pᵀ | I_r]. Codewords carry
// the data bits first, then the r parity bits.
//
// Single-error-correcting instances (t = 1) decode by syndrome lookup; a
// syndrome with no table entry — possible for shortened codes — is reported
// as a detected, uncorrectable error.
type LinearCode struct {
	name string
	k, r int
	t    int
	// parityMasks[j] is a packed mask over the data words: parity bit j is
	// the parity of data AND mask. This is the bitwise image of column j
	// of P and the hot loop of EncodeInto.
	parityMasks [][]uint64
	// parityIdx[j] lists the data-bit positions under parityMasks[j] — the
	// same footprint as an index list, which is what the bit-sliced kernels
	// iterate (one XOR of sliced words per listed position).
	parityIdx [][]int32
	// synTable maps a syndrome, as an r-bit integer, straight to the
	// codeword position it corrects, or to synDetected (−1) for syndromes
	// with no entry (detected-uncorrectable, possible for shortened codes).
	// Built for t == 1 codes with r <= denseSynBits.
	synTable []int32
	// synDecode is the sparse form of the same lookup, for t == 1 codes
	// with more parity bits than the dense table allows.
	synDecode map[uint64]int
	// synCols[i] is column i of H, the syndrome a single error at codeword
	// position i leaves, split for the sliced corrector's minterm tables:
	// its low r/2 bits in the low mintermBits bits, the rest above. Built
	// for t == 1 codes with r <= 2·mintermBits, where both halves fit.
	synCols []uint8
	// mintermFrom is the sliced corrector's crossover: a 64-frame word with
	// at least this many frames to correct takes the minterm branch (see
	// correctSliced). SlicedWidth+1, never reached, without synCols.
	mintermFrom int
	g, h        *gf2.Matrix
}

// denseSynBits caps the dense syndrome table at 2^22 × 4 B = 16 MiB; codes
// with more parity bits use the map lookup instead.
const denseSynBits = 22

// synDetected is the dense-table sentinel for syndromes with no correctable
// position.
const synDetected = int32(-1)

// NewLinear builds a systematic linear code from its parity submatrix.
// t must be 0 (detect-only or no protection) or 1 (single-error correction
// by syndrome lookup); higher-t codes use dedicated decoders (see BCH).
func NewLinear(name string, p *gf2.Matrix, t int) (*LinearCode, error) {
	k, r := p.Rows(), p.Cols()
	if k <= 0 || r < 0 {
		return nil, fmt.Errorf("ecc: %s: invalid parity matrix %dx%d", name, k, r)
	}
	if r > 63 {
		return nil, fmt.Errorf("ecc: %s: %d parity bits exceed the 63-bit syndrome limit", name, r)
	}
	if t < 0 || t > 1 {
		return nil, fmt.Errorf("ecc: %s: NewLinear supports t in {0,1}, got %d", name, t)
	}
	c := &LinearCode{name: name, k: k, r: r, t: t}

	dataWords := (k + 63) / 64
	c.parityMasks = make([][]uint64, r)
	c.parityIdx = make([][]int32, r)
	for j := 0; j < r; j++ {
		mask := make([]uint64, dataWords)
		var idx []int32
		for i := 0; i < k; i++ {
			if p.At(i, j) == 1 {
				mask[i>>6] |= 1 << (uint(i) & 63)
				idx = append(idx, int32(i))
			}
		}
		c.parityMasks[j] = mask
		c.parityIdx[j] = idx
	}

	// G = [I_k | P], H = [Pᵀ | I_r]; retained for verification and tests.
	var err error
	if c.g, err = gf2.Identity(k).Augment(p); err != nil {
		return nil, err
	}
	if c.h, err = p.Transpose().Augment(gf2.Identity(r)); err != nil {
		return nil, err
	}
	prod, err := c.g.Mul(c.h.Transpose())
	if err != nil {
		return nil, err
	}
	if !prod.IsZero() {
		return nil, fmt.Errorf("ecc: %s: G·Hᵀ != 0; inconsistent construction", name)
	}

	if t == 1 {
		if err := c.buildSyndromeLookup(p); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildSyndromeLookup checks that the k+r columns of H are distinct and
// nonzero — the code corrects every single error — and builds the lookups
// that map a column back to its position: the dense synTable, or the
// synDecode map above denseSynBits, plus the sliced corrector's synCols.
func (c *LinearCode) buildSyndromeLookup(p *gf2.Matrix) error {
	k, r := c.k, c.r
	cols := make([]uint64, k+r)
	for i := 0; i < k; i++ {
		for j := 0; j < r; j++ {
			if p.At(i, j) == 1 {
				cols[i] |= 1 << uint(j)
			}
		}
		if cols[i] == 0 {
			return fmt.Errorf("ecc: %s: data bit %d has empty parity footprint; d_min < 2", c.name, i)
		}
	}
	for j := 0; j < r; j++ {
		cols[k+j] = 1 << uint(j)
	}
	pos := make(map[uint64]int, k+r)
	for i, syn := range cols {
		if prev, dup := pos[syn]; dup {
			if i < k {
				return fmt.Errorf("ecc: %s: data bits %d and %d share syndrome %#x; not single-error-correcting", c.name, prev, i, syn)
			}
			return fmt.Errorf("ecc: %s: parity bit %d collides with position %d; not single-error-correcting", c.name, i-k, prev)
		}
		pos[syn] = i
	}
	if r > denseSynBits {
		c.synDecode = pos
	} else {
		c.synTable = make([]int32, 1<<uint(r))
		for s := range c.synTable {
			c.synTable[s] = synDetected
		}
		for i, syn := range cols {
			c.synTable[syn] = int32(i)
		}
	}
	c.mintermFrom = SlicedWidth + 1
	if r <= 2*mintermBits {
		c.synCols = make([]uint8, len(cols))
		half := uint(r / 2)
		for i, syn := range cols {
			c.synCols[i] = uint8(syn&(1<<half-1) | syn>>half<<mintermBits)
		}
		c.mintermFrom = mintermCrossover(k+r, r)
	}
	return nil
}

// synLookup resolves a nonzero syndrome to the codeword position it corrects,
// through the dense table when built and the map otherwise. The boolean
// reports whether the syndrome is correctable.
func (c *LinearCode) synLookup(syn uint64) (int, bool) {
	if c.synTable != nil {
		pos := c.synTable[syn]
		if pos == synDetected {
			return 0, false
		}
		return int(pos), true
	}
	pos, ok := c.synDecode[syn]
	return pos, ok
}

// Name implements Code.
func (c *LinearCode) Name() string { return c.name }

// N implements Code.
func (c *LinearCode) N() int { return c.k + c.r }

// K implements Code.
func (c *LinearCode) K() int { return c.k }

// T implements Code.
func (c *LinearCode) T() int { return c.t }

// Generator returns a copy of the generator matrix G = [I_k | P].
func (c *LinearCode) Generator() *gf2.Matrix { return c.g.Clone() }

// ParityCheck returns a copy of the parity-check matrix H = [Pᵀ | I_r].
func (c *LinearCode) ParityCheck() *gf2.Matrix { return c.h.Clone() }

// ParityMask returns the packed data mask of parity bit j (aliased, for the
// synthesis netlist builders which need the exact XOR-tree footprints).
func (c *LinearCode) ParityMask(j int) []uint64 { return c.parityMasks[j] }

// EncodeInto implements Code: codeword = data ++ parity, written into dst
// without allocating.
func (c *LinearCode) EncodeInto(dst, data bits.Vector) error {
	if err := checkEncode(c, dst, data); err != nil {
		return err
	}
	data.CopyInto(dst, 0)
	for j, mask := range c.parityMasks {
		dst.Set(c.k+j, data.AndMaskParity(mask))
	}
	return nil
}

// syndromeOf computes the syndrome of a length-checked word without copying:
// the parity masks cover only data-bit positions, so evaluating them against
// the full codeword (whose trailing words also hold parity bits) reads
// exactly the data prefix. word may be longer than N (the SECDED extension
// reuses this on its N+1-bit words).
func (c *LinearCode) syndromeOf(word bits.Vector) uint64 {
	var syn uint64
	for j, mask := range c.parityMasks {
		bit := word.AndMaskParity(mask) ^ word.Bit(c.k+j)
		syn |= uint64(bit) << uint(j)
	}
	return syn
}

// Syndrome returns the r-bit syndrome of a received word as an integer.
// It allocates nothing.
func (c *LinearCode) Syndrome(word bits.Vector) (uint64, error) {
	if word.Len() != c.N() {
		return 0, fmt.Errorf("ecc: %s: Syndrome needs %d-bit words, got %d", c.name, c.N(), word.Len())
	}
	return c.syndromeOf(word), nil
}

// DecodeInto implements Code without allocating. For t = 1 codes a nonzero
// syndrome is corrected by syndrome lookup (dense table for r <= 22 parity
// bits, map above); unknown syndromes (shortened codes) are flagged
// Detected. For t = 0 codes any nonzero syndrome is Detected.
func (c *LinearCode) DecodeInto(dst, word bits.Vector) (DecodeInfo, error) {
	if err := checkDecode(c, dst, word); err != nil {
		return DecodeInfo{}, err
	}
	syn := c.syndromeOf(word)
	word.SliceInto(dst, 0)
	if syn == 0 {
		return DecodeInfo{}, nil
	}
	if c.t == 0 {
		return DecodeInfo{Detected: true}, nil
	}
	pos, known := c.synLookup(syn)
	if !known {
		return DecodeInfo{Detected: true}, nil
	}
	if pos < c.k {
		dst.Flip(pos)
	}
	return DecodeInfo{Corrected: 1}, nil
}
