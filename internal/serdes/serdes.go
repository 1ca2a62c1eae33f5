// Package serdes implements the bit-true data path of the paper's
// electrical/optical interface (Fig. 2c/2d): IP words are split into code
// blocks, encoded, striped over the N_W wavelength lanes, transported as
// per-lane bitstreams, reassembled and decoded on the receive side.
//
// The model is functional, not cycle-accurate (internal/synth carries the
// gate-level timing); what it proves is bit-exactness of the whole path and
// the paper's CT = n/k bandwidth expansion, measured rather than assumed.
package serdes

import (
	"fmt"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
)

// Serializer stripes fixed-size encoded words over a set of wavelength
// lanes: word i goes to lane i mod lanes, each lane serializing its words
// back to back — the gearbox behaviour of the register-pipeline SER.
type Serializer struct {
	lanes []bits.Queue
	next  int
	// CodedBits counts every bit pushed, for measured-CT accounting.
	CodedBits int64
}

// NewSerializer returns a serializer over the given number of lanes.
func NewSerializer(lanes int) (*Serializer, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("serdes: need at least 1 lane, got %d", lanes)
	}
	return &Serializer{lanes: make([]bits.Queue, lanes)}, nil
}

// PushWord assigns an encoded word to the next lane in round-robin order.
func (s *Serializer) PushWord(w bits.Vector) {
	s.lanes[s.next].PushVector(w)
	s.next = (s.next + 1) % len(s.lanes)
	s.CodedBits += int64(w.Len())
}

// LaneLen returns the bits currently queued on a lane.
func (s *Serializer) LaneLen(lane int) int { return s.lanes[lane].Len() }

// PopLaneInto drains dst.Len() bits from a lane into dst, as they would be
// modulated, without allocating.
func (s *Serializer) PopLaneInto(dst bits.Vector, lane int) error {
	if lane < 0 || lane >= len(s.lanes) {
		return fmt.Errorf("serdes: lane %d out of range [0,%d)", lane, len(s.lanes))
	}
	return s.lanes[lane].PopVectorInto(dst)
}

// Deserializer reassembles fixed-size words from per-lane bitstreams using
// the same round-robin discipline as the Serializer.
type Deserializer struct {
	wordBits int
	lanes    []bits.Queue
	next     int
}

// NewDeserializer returns a deserializer expecting wordBits-bit words over
// the given number of lanes.
func NewDeserializer(lanes, wordBits int) (*Deserializer, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("serdes: need at least 1 lane, got %d", lanes)
	}
	if wordBits < 1 {
		return nil, fmt.Errorf("serdes: word size %d must be positive", wordBits)
	}
	return &Deserializer{wordBits: wordBits, lanes: make([]bits.Queue, lanes)}, nil
}

// PushLane appends received bits to a lane's stream.
func (d *Deserializer) PushLane(lane int, v bits.Vector) error {
	if lane < 0 || lane >= len(d.lanes) {
		return fmt.Errorf("serdes: lane %d out of range [0,%d)", lane, len(d.lanes))
	}
	d.lanes[lane].PushVector(v)
	return nil
}

// PopWordInto fills dst (which must hold wordBits bits) with the next
// complete word, without allocating. The boolean reports whether the word's
// lane had enough bits; a mis-sized dst is a caller bug and returns an
// error.
func (d *Deserializer) PopWordInto(dst bits.Vector) (bool, error) {
	if dst.Len() != d.wordBits {
		return false, fmt.Errorf("serdes: PopWordInto buffer holds %d bits, deserializer words are %d", dst.Len(), d.wordBits)
	}
	if d.lanes[d.next].Len() < d.wordBits {
		return false, nil
	}
	if err := d.lanes[d.next].PopVectorInto(dst); err != nil {
		return false, err // unreachable: length checked above
	}
	d.next = (d.next + 1) % len(d.lanes)
	return true, nil
}

// Interface is the full transmit or receive conversion for one IP word:
// splitting an Ndata-bit word into code blocks and back, into
// caller-provided buffers. It reuses an internal block scratch buffer, so
// an Interface, like the serializers it feeds, is a serial datapath element
// — not safe for concurrent use.
type Interface struct {
	Code  ecc.Code
	NData int
	// BlocksPerWord is NData / K.
	BlocksPerWord int

	blockBuf bits.Vector // K-bit scratch of EncodeWordInto/DecodeWordInto
}

// NewInterface validates that the code tiles the IP bus width exactly
// (the paper: 16 × H(7,4) or 1 × H(71,64) over a 64-bit bus).
func NewInterface(code ecc.Code, nData int) (*Interface, error) {
	if nData <= 0 {
		return nil, fmt.Errorf("serdes: Ndata %d must be positive", nData)
	}
	if nData%code.K() != 0 {
		return nil, fmt.Errorf("serdes: Ndata %d not divisible by %s block size %d", nData, code.Name(), code.K())
	}
	return &Interface{
		Code:          code,
		NData:         nData,
		BlocksPerWord: nData / code.K(),
		blockBuf:      bits.New(code.K()),
	}, nil
}

// EncodeWordInto splits an IP word into blocks and encodes each, without
// allocating: blocks must hold BlocksPerWord vectors of N bits each, which
// are overwritten with the encoded blocks of word.
func (f *Interface) EncodeWordInto(blocks []bits.Vector, word bits.Vector) error {
	if word.Len() != f.NData {
		return fmt.Errorf("serdes: word is %d bits, interface expects %d", word.Len(), f.NData)
	}
	if len(blocks) != f.BlocksPerWord {
		return fmt.Errorf("serdes: got %d block buffers, want %d", len(blocks), f.BlocksPerWord)
	}
	k := f.Code.K()
	for b := range blocks {
		word.SliceInto(f.blockBuf, b*k)
		if err := f.Code.EncodeInto(blocks[b], f.blockBuf); err != nil {
			return err
		}
	}
	return nil
}

// DecodeWordInto reassembles an IP word from received code blocks into
// word (NData bits), without allocating.
func (f *Interface) DecodeWordInto(word bits.Vector, blocks []bits.Vector) (ecc.DecodeInfo, error) {
	if word.Len() != f.NData {
		return ecc.DecodeInfo{}, fmt.Errorf("serdes: word buffer is %d bits, interface expects %d", word.Len(), f.NData)
	}
	if len(blocks) != f.BlocksPerWord {
		return ecc.DecodeInfo{}, fmt.Errorf("serdes: got %d blocks, want %d", len(blocks), f.BlocksPerWord)
	}
	k := f.Code.K()
	var agg ecc.DecodeInfo
	for b, blk := range blocks {
		info, err := f.Code.DecodeInto(f.blockBuf, blk)
		if err != nil {
			return ecc.DecodeInfo{}, err
		}
		f.blockBuf.CopyInto(word, b*k)
		agg.Corrected += info.Corrected
		agg.Detected = agg.Detected || info.Detected
	}
	return agg, nil
}
