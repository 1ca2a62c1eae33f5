package serdes

import (
	"fmt"
	"math/rand"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
)

// ChannelFunc carries one lane's bitstream through the channel: it flips
// the received bits of v in place and returns how many it flipped. The
// default is the word-wise binary symmetric channel bits.BSC; callers plug
// in a physical channel model (e.g. the OOK/AWGN channel in internal/noise,
// whose Transmit has this shape) through PipelineConfig.Channel.
type ChannelFunc func(v bits.Vector) int

// PipelineConfig describes an end-to-end TX → channel → RX run.
type PipelineConfig struct {
	// Code is the communication scheme.
	Code ecc.Code
	// NData is the IP word width (64 in the paper).
	NData int
	// Lanes is the number of wavelength lanes (16 in the paper).
	Lanes int
	// RawBER is the binary-symmetric channel flip probability applied to
	// every coded bit in flight (validated, but unused when Channel is
	// set).
	RawBER float64
	// Channel, when non-nil, replaces the BSC with a custom channel.
	Channel ChannelFunc
	// Rng drives both payload generation and error injection.
	Rng *rand.Rand
}

// PipelineStats reports what an end-to-end run did.
type PipelineStats struct {
	Words             int64
	PayloadBits       int64
	CodedBits         int64
	InjectedErrors    int64
	ResidualBitErrors int64
	CorrectedBits     int64
	DetectedBlocks    int64
	WordErrors        int64
}

// MeasuredCT is the empirically observed bandwidth expansion: coded bits on
// the wire per payload bit. It must equal n/k — the paper's CT metric.
func (s PipelineStats) MeasuredCT() float64 {
	if s.PayloadBits == 0 {
		return 0
	}
	return float64(s.CodedBits) / float64(s.PayloadBits)
}

// ResidualBER is the post-decoding bit error rate observed.
func (s PipelineStats) ResidualBER() float64 {
	if s.PayloadBits == 0 {
		return 0
	}
	return float64(s.ResidualBitErrors) / float64(s.PayloadBits)
}

// RunPipeline pushes `words` random IP words through the full encode →
// serialize → noisy channel → deserialize → decode path and verifies
// payload integrity bit by bit.
//
// The loop is streaming and allocation-free in steady state: each word is
// generated, encoded through EncodeWordInto into reused block buffers,
// carried over the lanes (flushed per word: each lane is drained into a
// reused buffer, passed through the channel in place and pushed to the
// deserializer), decoded back through DecodeWordInto and compared word-wise
// against the buffer it was generated in — nothing is retained per word.
func RunPipeline(cfg PipelineConfig, words int) (PipelineStats, error) {
	if cfg.Rng == nil {
		return PipelineStats{}, fmt.Errorf("serdes: pipeline needs an RNG")
	}
	bsc, err := bits.NewBSC(cfg.RawBER)
	if err != nil {
		return PipelineStats{}, fmt.Errorf("serdes: raw BER: %w", err)
	}
	channel := cfg.Channel
	if channel == nil {
		channel = func(v bits.Vector) int { return bsc.Corrupt(v, cfg.Rng) }
	}
	iface, err := NewInterface(cfg.Code, cfg.NData)
	if err != nil {
		return PipelineStats{}, err
	}
	ser, err := NewSerializer(cfg.Lanes)
	if err != nil {
		return PipelineStats{}, err
	}
	des, err := NewDeserializer(cfg.Lanes, cfg.Code.N())
	if err != nil {
		return PipelineStats{}, err
	}

	stats := PipelineStats{}

	// Reused buffers: the TX word, its encoded blocks, the received blocks,
	// the decoded word, and one lane buffer per distinct flush size (lane
	// occupancy repeats over the round-robin cycle, so this set is small
	// and warms up within the first few words).
	word := bits.New(cfg.NData)
	rxWord := bits.New(cfg.NData)
	blocks := make([]bits.Vector, iface.BlocksPerWord)
	rxBlocks := make([]bits.Vector, iface.BlocksPerWord)
	for b := range blocks {
		blocks[b] = bits.New(cfg.Code.N())
		rxBlocks[b] = bits.New(cfg.Code.N())
	}
	laneBufs := make(map[int]bits.Vector)

	flushLanes := func() error {
		for lane := 0; lane < cfg.Lanes; lane++ {
			n := ser.LaneLen(lane)
			if n == 0 {
				continue
			}
			buf, ok := laneBufs[n]
			if !ok {
				buf = bits.New(n)
				laneBufs[n] = buf
			}
			if err := ser.PopLaneInto(buf, lane); err != nil {
				return err
			}
			stats.InjectedErrors += int64(channel(buf))
			if err := des.PushLane(lane, buf); err != nil {
				return err
			}
		}
		return nil
	}

	for w := 0; w < words; w++ {
		word.FillRandom(cfg.Rng)
		if err := iface.EncodeWordInto(blocks, word); err != nil {
			return PipelineStats{}, err
		}
		for _, blk := range blocks {
			ser.PushWord(blk)
		}
		stats.Words++
		stats.PayloadBits += int64(cfg.NData)

		if err := flushLanes(); err != nil {
			return PipelineStats{}, err
		}
		for b := range rxBlocks {
			ok, err := des.PopWordInto(rxBlocks[b])
			if err != nil {
				return PipelineStats{}, err
			}
			if !ok {
				return PipelineStats{}, fmt.Errorf("serdes: deserializer starved after word %d block %d", w, b)
			}
		}
		info, err := iface.DecodeWordInto(rxWord, rxBlocks)
		if err != nil {
			return PipelineStats{}, err
		}
		stats.CorrectedBits += int64(info.Corrected)
		if info.Detected {
			stats.DetectedBlocks++
		}
		d, err := rxWord.XorPopCount(word)
		if err != nil {
			return PipelineStats{}, err
		}
		if d > 0 {
			stats.ResidualBitErrors += int64(d)
			stats.WordErrors++
		}
	}
	stats.CodedBits = ser.CodedBits
	return stats, nil
}
