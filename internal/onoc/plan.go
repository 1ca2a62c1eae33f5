package onoc

import (
	"errors"
	"fmt"

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

	// budgetLin is FromDB(BudgetDB), the linear loss factor applied to the
	// received '1' level.
	budgetLin float64
	// margin is EyeFraction − Chi; non-positive means the eye is closed.
	margin float64
}

// LinkPlan is a compiled ChannelSpec: the per-channel link budgets,
// crosstalk fractions and eye fractions derived once, turning every
// OperatingPoint query into a few multiplications and a single laser
// inversion. Plans are immutable and safe for concurrent use; compile one
// with ChannelSpec.Compile.
type LinkPlan struct {
	spec     ChannelSpec
	channels []ChannelPlan
}

// Compile validates the specification once and derives the per-channel
// plans. Channels whose crosstalk closes the eye still compile — the error
// surfaces when that channel is solved.
func (c *ChannelSpec) Compile() (*LinkPlan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p := &LinkPlan{spec: *c, channels: make([]ChannelPlan, c.Grid.Count)}
	for ch := 0; ch < c.Grid.Count; ch++ {
		b, err := p.spec.budget(ch)
		if err != nil {
			return nil, err
		}
		chi, err := p.spec.CrosstalkFraction(ch)
		if err != nil {
			return nil, err
		}
		eye := 1 - 1/mathx.FromDB(p.spec.ModulatorAt(ch).ExtinctionRatioDB())
		p.channels[ch] = ChannelPlan{
			Channel:     ch,
			BudgetDB:    b.TotalDB(),
			Chi:         chi,
			EyeFraction: eye,
			budgetLin:   mathx.FromDB(b.TotalDB()),
			margin:      eye - chi,
		}
	}
	return p, nil
}

// Spec returns a copy of the specification the plan was compiled from.
func (p *LinkPlan) Spec() ChannelSpec { return p.spec }

// Channels returns the compiled per-channel state in channel order.
func (p *LinkPlan) Channels() []ChannelPlan {
	return append([]ChannelPlan(nil), p.channels...)
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
	cp := &p.channels[ch]
	if cp.margin <= 0 {
		return OperatingPoint{}, fmt.Errorf("onoc: channel %d crosstalk (χ=%.4f) closes the eye (fraction %.4f)", ch, cp.Chi, cp.EyeFraction)
	}
	op := OperatingPoint{
		Channel:           ch,
		SNR:               snr,
		EyeFraction:       cp.EyeFraction,
		CrosstalkFraction: cp.Chi,
		BudgetDB:          cp.BudgetDB,
	}
	op.ReceivedOneLevelW = p.spec.Detector.RequiredSignalPower(snr) / cp.margin
	op.LaserOpticalW = op.ReceivedOneLevelW * cp.budgetLin
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
	base := p.spec.Detector.RequiredSignalPower(snr)
	var worst *ChannelPlan
	var worstOne, worstOpt float64
	for ch := range p.channels {
		cp := &p.channels[ch]
		if cp.margin <= 0 {
			return OperatingPoint{}, fmt.Errorf("onoc: channel %d crosstalk (χ=%.4f) closes the eye (fraction %.4f)", ch, cp.Chi, cp.EyeFraction)
		}
		one := base / cp.margin
		opt := one * cp.budgetLin
		if ch == 0 || opt > worstOpt {
			worst, worstOne, worstOpt = cp, one, opt
		}
	}
	op := OperatingPoint{
		Channel:           worst.Channel,
		SNR:               snr,
		EyeFraction:       worst.EyeFraction,
		CrosstalkFraction: worst.Chi,
		BudgetDB:          worst.BudgetDB,
		ReceivedOneLevelW: worstOne,
		LaserOpticalW:     worstOpt,
	}
	return p.finishLaser(op)
}

// finishLaser walks the required optical power through the laser thermal
// model, classifying a laser-limited request as infeasible rather than an
// error.
func (p *LinkPlan) finishLaser(op OperatingPoint) (OperatingPoint, error) {
	pe, err := p.spec.Laser.ElectricalPower(op.LaserOpticalW, p.spec.Activity)
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
