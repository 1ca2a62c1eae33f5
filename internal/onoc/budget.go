package onoc

import "fmt"

// LinkBudget itemizes the worst-case optical loss (in dB) between a laser
// and the reader photodetector for one wavelength: the farthest writer
// modulates, every other writer's rings are parked, and the signal crosses
// the full drop bank. This mirrors the transmission accounting of [8].
type LinkBudget struct {
	// CouplingDB is the laser-to-waveguide coupling interface loss.
	CouplingDB float64
	// MuxDB is the MMI multiplexer insertion loss.
	MuxDB float64
	// PropagationDB is the waveguide propagation loss over the full span.
	PropagationDB float64
	// ModulatorSameLambdaDB sums the OFF-state crossings of the rings
	// tuned to this wavelength at every writer (including the sender's
	// own modulator carrying a '1').
	ModulatorSameLambdaDB float64
	// ModulatorOffLambdaDB sums the Lorentzian-tail losses through the
	// other wavelengths' parked modulators.
	ModulatorOffLambdaDB float64
	// DropBankPassDB sums the tail losses through the reader's other
	// drop filters.
	DropBankPassDB float64
	// DropLossDB is the insertion loss into the target drop port.
	DropLossDB float64
}

// TotalDB returns the end-to-end loss.
func (b LinkBudget) TotalDB() float64 {
	return b.CouplingDB + b.MuxDB + b.PropagationDB +
		b.ModulatorSameLambdaDB + b.ModulatorOffLambdaDB +
		b.DropBankPassDB + b.DropLossDB
}

// String renders the budget as a single line of dB contributions.
func (b LinkBudget) String() string {
	return fmt.Sprintf("coupling %.2f + mux %.2f + prop %.2f + modSame %.2f + modOff %.2f + dropBank %.2f + drop %.2f = %.2f dB",
		b.CouplingDB, b.MuxDB, b.PropagationDB, b.ModulatorSameLambdaDB,
		b.ModulatorOffLambdaDB, b.DropBankPassDB, b.DropLossDB, b.TotalDB())
}

// Budget computes the worst-case link budget for channel ch, validating the
// specification first. Compiled callers (BlockPlan, LinkPlan) validate once
// and derive every channel's terms in one pass.
func (c *ChannelSpec) Budget(ch int) (LinkBudget, error) {
	if err := c.Validate(); err != nil {
		return LinkBudget{}, err
	}
	if ch < 0 || ch >= c.Grid.Count {
		return LinkBudget{}, fmt.Errorf("onoc: channel %d out of range [0,%d)", ch, c.Grid.Count)
	}
	return c.lossTerms(ch).budget(c, c.Topo.Writers(), c.Waveguide.LossDB()), nil
}

// lossTerms is the part of one channel's budget that depends on the
// wavelength block alone, not on the link's length or writer count: the
// losses one writer's rings impose, the reader's drop bank and drop port.
type lossTerms struct {
	// offStateDB is one writer's same-wavelength ring, parked (OFF).
	offStateDB float64
	// offLambdaDB sums one writer's other-wavelength parked rings.
	offLambdaDB float64
	// dropBankDB sums the reader's other drop filters.
	dropBankDB float64
	// dropDB is the target drop port.
	dropDB float64
}

// lossTerms derives channel ch's block terms in O(G): each term loops over
// the other channels of the grid.
func (c *ChannelSpec) lossTerms(ch int) lossTerms {
	lambda := c.Grid.Wavelength(ch)
	// The sender's own ring is OFF for a '1' (the level the budget sizes).
	t := lossTerms{offStateDB: c.ModulatorAt(ch).OffStateLossDB()}
	for j := 0; j < c.Grid.Count; j++ {
		if j == ch {
			continue
		}
		t.offLambdaDB += dbFromTransmission(c.ModulatorAt(j).ThroughTransmission(lambda, false))
	}
	// Reader drop bank: worst case crosses every other drop filter.
	for j := 0; j < c.Grid.Count; j++ {
		if j == ch {
			continue
		}
		t.dropBankDB += dbFromTransmission(c.DropFilterAt(j).ThroughTransmission(lambda, false))
	}
	t.dropDB = dbFromTransmission(c.DropFilterAt(ch).DropTransmission(lambda, false))
	return t
}

// budget assembles the channel's budget on a link of the given writer count
// and propagation loss: every writer crosses one same-wavelength ring and
// the other wavelengths' parked rings. c supplies the coupling and mux
// losses, which no link changes.
func (t lossTerms) budget(c *ChannelSpec, writers int, propagationDB float64) LinkBudget {
	return LinkBudget{
		CouplingDB:            c.CouplingLossDB,
		MuxDB:                 c.Mux.InsertionLossDB,
		PropagationDB:         propagationDB,
		ModulatorSameLambdaDB: float64(writers) * t.offStateDB,
		ModulatorOffLambdaDB:  float64(writers) * t.offLambdaDB,
		DropBankPassDB:        t.dropBankDB,
		DropLossDB:            t.dropDB,
	}
}
