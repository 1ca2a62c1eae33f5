package onoc

import (
	"errors"
	"fmt"
	"math"

	"photonoc/internal/mathx"
	"photonoc/internal/photonics"
)

// ChannelPlan is the compiled, configuration-constant state of one
// wavelength of the channel: everything OperatingPoint derives from the
// ChannelSpec alone, snapshotted once so a solve becomes a pair of
// multiplications plus the laser inversion.
type ChannelPlan struct {
	// Channel is the wavelength index.
	Channel int
	// BudgetDB is the worst-case laser→detector path loss.
	BudgetDB float64
	// Chi is the relative crosstalk power χ at the drop.
	Chi float64
	// EyeFraction is (1 − 1/ER).
	EyeFraction float64
}

// BlockPlan is the half of a compiled ChannelSpec that depends only on the
// wavelength block: per channel, the loss terms one writer and the reader
// impose (see lossTerms), the crosstalk fraction χ and the eye fraction.
// Links that share a block differ only in waveguide length, writer count
// and waveguides per channel, so they share one BlockPlan and each derives
// its LinkPlan from it with BlockPlan.Link. Compiling a block costs O(G²)
// in the grid count G; deriving a link costs O(G). Plans are immutable and
// safe for concurrent use.
type BlockPlan struct {
	spec     ChannelSpec
	channels []blockChannel
}

// blockChannel is one channel of a BlockPlan.
type blockChannel struct {
	terms    lossTerms
	chi, eye float64
	// margin is eye − chi; non-positive means the eye is closed.
	margin float64
}

// CompileBlock validates the specification once and derives its block
// plan. The specification's waveguide length, writer count and waveguides
// per channel are not part of the block: each link supplies its own to
// BlockPlan.Link. Channels whose crosstalk closes the eye still compile —
// the error surfaces when that channel is solved.
func (c *ChannelSpec) CompileBlock() (*BlockPlan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	b := &BlockPlan{spec: *c, channels: make([]blockChannel, c.Grid.Count)}
	for ch := range b.channels {
		chi, err := b.spec.CrosstalkFraction(ch)
		if err != nil {
			return nil, err
		}
		eye := 1 - 1/mathx.FromDB(b.spec.ModulatorAt(ch).ExtinctionRatioDB())
		b.channels[ch] = blockChannel{terms: b.spec.lossTerms(ch), chi: chi, eye: eye, margin: eye - chi}
	}
	return b, nil
}

// Link derives the plan of a link on this block: its waveguide length,
// its interface count (one reader, onis−1 writers) and its waveguides per
// channel. Each channel's budget is LinkBudget.TotalDB of the stored terms,
// so the plan equals ChannelSpec.Compile of the link's specification bit
// for bit.
func (b *BlockPlan) Link(lengthCM float64, onis, waveguides int) (*LinkPlan, error) {
	topo := b.spec.Topo
	topo.ONIs, topo.WaveguidesPerChannel = onis, waveguides
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	wg := b.spec.Waveguide
	wg.LengthCM = lengthCM
	if err := wg.Validate(); err != nil {
		return nil, err
	}
	if math.IsInf(lengthCM, 0) || math.IsNaN(lengthCM) {
		return nil, fmt.Errorf("onoc: waveguide length %g cm must be finite", lengthCM)
	}
	p := &LinkPlan{block: b, lengthCM: lengthCM, onis: onis, waveguides: waveguides, channels: make([]linkChannel, len(b.channels))}
	writers, prop := topo.Writers(), wg.LossDB()
	for ch := range b.channels {
		db := b.channels[ch].terms.budget(&b.spec, writers, prop).TotalDB()
		p.channels[ch] = linkChannel{budgetDB: db, budgetLin: mathx.FromDB(db)}
	}
	return p, nil
}

// LinkPlan is a compiled ChannelSpec: its block plan plus, per channel, the
// link budget, turning every OperatingPoint query into a few
// multiplications and a single laser inversion. Plans are immutable and
// safe for concurrent use; compile one with ChannelSpec.Compile or derive
// one from a block with BlockPlan.Link.
type LinkPlan struct {
	block      *BlockPlan
	lengthCM   float64
	onis       int
	waveguides int
	channels   []linkChannel
}

// linkChannel is one channel's budget on a link.
type linkChannel struct {
	// budgetDB is the worst-case laser→detector path loss, and budgetLin
	// its linear factor FromDB(budgetDB), applied to the received '1' level.
	budgetDB, budgetLin float64
}

// Compile validates the specification once and derives its plan: the
// block plan of its grid, then the link of its length and writer count.
func (c *ChannelSpec) Compile() (*LinkPlan, error) {
	b, err := c.CompileBlock()
	if err != nil {
		return nil, err
	}
	return b.Link(c.Waveguide.LengthCM, c.Topo.ONIs, c.Topo.WaveguidesPerChannel)
}

// Spec returns a copy of the specification the plan was compiled from.
func (p *LinkPlan) Spec() ChannelSpec {
	s := p.block.spec
	s.Waveguide.LengthCM = p.lengthCM
	s.Topo.ONIs, s.Topo.WaveguidesPerChannel = p.onis, p.waveguides
	return s
}

// Wavelengths returns the plan's channel count.
func (p *LinkPlan) Wavelengths() int { return len(p.channels) }

// Channels returns the compiled per-channel state in channel order.
func (p *LinkPlan) Channels() []ChannelPlan {
	out := make([]ChannelPlan, len(p.channels))
	for ch := range out {
		bc := &p.block.channels[ch]
		out[ch] = ChannelPlan{Channel: ch, BudgetDB: p.channels[ch].budgetDB, Chi: bc.chi, EyeFraction: bc.eye}
	}
	return out
}

// OperatingPoint solves channel ch for a required SNR, implementing Eq. 4:
//
//	SNR = ℜ·(OPsignal − OPcrosstalk) / i_n
//
// with OPsignal the received eye amplitude P1·(1 − 1/ER) and
// OPcrosstalk = χ·P1, then walking the '1' level back through the compiled
// link budget to the laser facet and through the thermal model to Plaser.
func (p *LinkPlan) OperatingPoint(snr float64, ch int) (OperatingPoint, error) {
	if snr <= 0 {
		return OperatingPoint{}, fmt.Errorf("onoc: SNR %g must be positive", snr)
	}
	if ch < 0 || ch >= len(p.channels) {
		return OperatingPoint{}, fmt.Errorf("onoc: channel %d out of range [0,%d)", ch, len(p.channels))
	}
	bc, lc := &p.block.channels[ch], &p.channels[ch]
	if bc.margin <= 0 {
		return OperatingPoint{}, closedEye(ch, bc)
	}
	op := OperatingPoint{
		Channel:           ch,
		SNR:               snr,
		EyeFraction:       bc.eye,
		CrosstalkFraction: bc.chi,
		BudgetDB:          lc.budgetDB,
	}
	op.ReceivedOneLevelW = p.block.spec.Detector.RequiredSignalPower(snr) / bc.margin
	op.LaserOpticalW = op.ReceivedOneLevelW * lc.budgetLin
	return p.finishLaser(op)
}

// WorstOperatingPoint returns the channel demanding the most laser power.
// The required optical power of every channel follows from two
// multiplications on the compiled state, so only the winning channel pays
// the laser-characteristic inversion instead of all NW channels. Selection
// order and tie-breaking match a scan of OperatingPoint over every channel.
func (p *LinkPlan) WorstOperatingPoint(snr float64) (OperatingPoint, error) {
	if snr <= 0 {
		return OperatingPoint{}, fmt.Errorf("onoc: SNR %g must be positive", snr)
	}
	base := p.block.spec.Detector.RequiredSignalPower(snr)
	worst := 0
	var worstOne, worstOpt float64
	for ch := range p.channels {
		bc := &p.block.channels[ch]
		if bc.margin <= 0 {
			return OperatingPoint{}, closedEye(ch, bc)
		}
		one := base / bc.margin
		opt := one * p.channels[ch].budgetLin
		if ch == 0 || opt > worstOpt {
			worst, worstOne, worstOpt = ch, one, opt
		}
	}
	bc := &p.block.channels[worst]
	op := OperatingPoint{
		Channel:           worst,
		SNR:               snr,
		EyeFraction:       bc.eye,
		CrosstalkFraction: bc.chi,
		BudgetDB:          p.channels[worst].budgetDB,
		ReceivedOneLevelW: worstOne,
		LaserOpticalW:     worstOpt,
	}
	return p.finishLaser(op)
}

// closedEye is the error of a channel whose crosstalk closes the eye.
func closedEye(ch int, bc *blockChannel) error {
	return fmt.Errorf("onoc: channel %d crosstalk (χ=%.4f) closes the eye (fraction %.4f)", ch, bc.chi, bc.eye)
}

// finishLaser walks the required optical power through the laser thermal
// model, classifying a laser-limited request as infeasible rather than an
// error.
func (p *LinkPlan) finishLaser(op OperatingPoint) (OperatingPoint, error) {
	pe, err := p.block.spec.Laser.ElectricalPower(op.LaserOpticalW, p.block.spec.Activity)
	switch {
	case err == nil:
		op.LaserElectricalW = pe
		op.Feasible = true
	case errors.Is(err, photonics.ErrLaserInfeasible):
		op.InfeasibleReason = err.Error()
	default:
		return OperatingPoint{}, err
	}
	return op, nil
}
