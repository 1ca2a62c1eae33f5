// Package manager implements the paper's Optical Link Energy/Performance
// Manager (Section III-C): the runtime component that, given a source's
// communication requirements (target BER, deadline pressure, objective),
// selects the communication scheme (with or without ECC, and which code)
// and programs the laser output power through a finite-resolution current
// DAC on both the source and destination interfaces.
package manager

import (
	"context"
	"errors"
	"fmt"
	"math"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/photonics"
)

// ErrNoFeasibleScheme is returned when no registered scheme can satisfy the
// requirements (e.g. uncoded-only manager asked for BER 1e-12).
var ErrNoFeasibleScheme = errors.New("manager: no feasible scheme for the requirements")

// Objective selects what the manager optimizes once the constraints are met.
type Objective int

// Objectives. MinPower minimizes channel power (the paper's headline),
// MinEnergy minimizes energy per payload bit, MinLatency minimizes CT.
const (
	MinPower Objective = iota
	MinEnergy
	MinLatency
)

// Validate reports an objective that is none of the three above.
func (o Objective) Validate() error {
	if o < MinPower || o > MinLatency {
		return fmt.Errorf("manager: unknown objective %d", int(o))
	}
	return nil
}

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinPower:
		return "min-power"
	case MinEnergy:
		return "min-energy"
	case MinLatency:
		return "min-latency"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective is the inverse of Objective.String: it maps "min-power",
// "min-energy" or "min-latency" to its objective.
func ParseObjective(s string) (Objective, error) {
	for _, o := range []Objective{MinPower, MinEnergy, MinLatency} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("manager: unknown objective %q (want min-power|min-energy|min-latency)", s)
}

// Requirements is a source core's request to the manager.
type Requirements struct {
	// TargetBER is the required post-decoding bit error rate.
	TargetBER float64
	// MaxCT caps the tolerable communication-time expansion n/k
	// (0 means unconstrained). Real-time traffic sets this from its
	// deadline slack.
	MaxCT float64
	// Objective picks the optimization goal among feasible schemes.
	Objective Objective
}

// Decision is the manager's response: the scheme to configure on both ONIs
// and the quantized laser setting.
type Decision struct {
	// Eval is the full link evaluation backing the decision.
	Eval core.Evaluation
	// DACCode is the programmed laser-current step.
	DACCode int
	// QuantizedOpticalW is the laser output after DAC rounding (always
	// at or above the exact requirement).
	QuantizedOpticalW float64
	// QuantizedLaserPowerW is the electrical laser power at the
	// quantized setting.
	QuantizedLaserPowerW float64
	// QuantizationWasteW is the extra electrical power paid for the
	// finite DAC resolution.
	QuantizationWasteW float64
}

// ChannelPowerW returns the per-wavelength channel power of the decision
// including the quantization waste.
func (d Decision) ChannelPowerW() float64 {
	return d.Eval.ChannelPowerW + d.QuantizationWasteW
}

// Manager evaluates the registered schemes against a link configuration and
// answers configuration requests. It is safe for concurrent use.
type Manager struct {
	cfg     *core.LinkConfig
	schemes []ecc.Code
	dac     DAC
	// eval performs (and typically memoizes) the link solves — the engine
	// layer passes itself here so manager decisions share the engine's memo
	// cache with sweeps and the traffic simulator.
	eval core.Evaluator
}

// NewWithEvaluator builds a manager whose link solves go through ev. cfg
// must be the same configuration ev evaluates under; it is still needed to
// program the DAC. A nil ev is an invalid configuration: pass an Engine, or
// a compiled configuration's Evaluator for an uncached manager.
func NewWithEvaluator(cfg *core.LinkConfig, schemes []ecc.Code, dac DAC, ev core.Evaluator) (*Manager, error) {
	if cfg == nil {
		return nil, fmt.Errorf("%w: manager: nil link config", apierr.ErrInvalidConfig)
	}
	if ev == nil {
		return nil, fmt.Errorf("%w: manager: nil evaluator", apierr.ErrInvalidConfig)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", apierr.ErrInvalidConfig, err)
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("%w: manager: empty scheme roster", apierr.ErrInvalidConfig)
	}
	if err := dac.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", apierr.ErrInvalidConfig, err)
	}
	return &Manager{cfg: cfg, schemes: schemes, dac: dac, eval: ev}, nil
}

// Configure answers a request: it evaluates every registered scheme at the
// target BER, filters by feasibility and the CT cap, optimizes the
// objective, and programs the laser DAC.
func (m *Manager) Configure(req Requirements) (Decision, error) {
	return m.ConfigureCtx(context.Background(), req)
}

// ConfigureCtx is Configure under a context: cancellation aborts the
// evaluation of the roster. Input errors wrap the API-boundary
// ErrInvalidInput; an unsatisfiable request wraps both ErrNoFeasibleScheme
// and the API-boundary ErrInfeasible.
func (m *Manager) ConfigureCtx(ctx context.Context, req Requirements) (Decision, error) {
	if !(req.TargetBER > 0 && req.TargetBER < 0.5) {
		return Decision{}, fmt.Errorf("%w: manager: target BER %g outside (0, 0.5)", apierr.ErrInvalidInput, req.TargetBER)
	}
	if !(req.MaxCT >= 0) {
		return Decision{}, fmt.Errorf("%w: manager: CT cap %g is negative or NaN", apierr.ErrInvalidInput, req.MaxCT)
	}
	if err := req.Objective.Validate(); err != nil {
		return Decision{}, fmt.Errorf("%w: %v", apierr.ErrInvalidInput, err)
	}
	var buf [8]core.Evaluation // the row stays on the stack for up to 8 schemes
	row := buf[:0]
	for _, code := range m.schemes {
		ev, err := m.eval.Evaluate(ctx, code, req.TargetBER)
		if err != nil {
			return Decision{}, err
		}
		row = append(row, ev)
	}
	i := Choose(row, req)
	if i < 0 {
		return Decision{}, fmt.Errorf("%w (%w): BER %g, CT cap %g",
			ErrNoFeasibleScheme, apierr.ErrInfeasible, req.TargetBER, req.MaxCT)
	}
	return Program(m.dac, m.cfg, &row[i])
}

// Choose is the selection rule of the manager, the network evaluator and
// both simulators: the index of the feasible entry of row with CT within
// req.MaxCT (0 = no cap) that wins under Better — the first on a full tie
// — or −1. req.TargetBER is not read; the row is solved at it.
func Choose(row []core.Evaluation, req Requirements) int {
	best := -1
	for i := range row {
		ev := &row[i]
		if !ev.Feasible || (req.MaxCT > 0 && ev.CT > req.MaxCT) {
			continue
		}
		if best < 0 || Better(ev, &row[best], req.Objective) {
			best = i
		}
	}
	return best
}

// Better reports whether evaluation a beats b under the objective, breaking
// ties toward lower channel power and then lower CT: Choose's comparison.
func Better(a, b *core.Evaluation, obj Objective) bool {
	switch obj {
	case MinEnergy:
		if a.EnergyPerBitJ != b.EnergyPerBitJ {
			return a.EnergyPerBitJ < b.EnergyPerBitJ
		}
	case MinLatency:
		if a.CT != b.CT {
			return a.CT < b.CT
		}
	default: // MinPower
		if a.ChannelPowerW != b.ChannelPowerW {
			return a.ChannelPowerW < b.ChannelPowerW
		}
	}
	if a.ChannelPowerW != b.ChannelPowerW {
		return a.ChannelPowerW < b.ChannelPowerW
	}
	return a.CT < b.CT
}

// Program programs the laser DAC of cfg's link for a chosen evaluation: it
// rounds the required optical power up to the next DAC step and returns
// the code with the laser's electrical power at that setting.
func Program(dac DAC, cfg *core.LinkConfig, ev *core.Evaluation) (Decision, error) {
	code, quantW, err := dac.Quantize(ev.Op.LaserOpticalW)
	if err != nil {
		return Decision{}, fmt.Errorf("manager: programming %s: %w", ev.Code.Name(), err)
	}
	pe, err := cfg.Channel.Laser.ElectricalPower(quantW, cfg.Channel.Activity)
	if err != nil {
		return Decision{}, fmt.Errorf("manager: quantized setting infeasible: %w", err)
	}
	return Decision{
		Eval:                 *ev,
		DACCode:              code,
		QuantizedOpticalW:    quantW,
		QuantizedLaserPowerW: pe,
		QuantizationWasteW:   pe - ev.LaserPowerW,
	}, nil
}

// laserMemoCap bounds a LaserMemo. A full memo is flushed rather than
// tracked for recency, since one inversion costs far less than bookkeeping
// it.
const laserMemoCap = 1024

// LaserMemo memoizes the laser inversion behind Program. The electrical
// power of a programmed laser is a pure function of the laser, the chip
// activity and the quantized optical setting, which takes one of at most
// 2^Bits values per DAC, so a decision maker that programs many links
// inverts each setting once. The memo holds the settings of one (laser,
// activity) pair, the last one programmed: links of one network, and the
// candidates of a design-space search, share it. The zero value is an
// empty memo. A LaserMemo is not safe for concurrent use.
type LaserMemo struct {
	laser    photonics.Laser
	activity float64
	powers   map[uint64]float64 // electrical W by the bits of the quantized optical W
}

// Program returns Program(dac, cfg, ev), serving the laser's electrical
// power from the memo when this laser at this activity was programmed to
// the same optical setting before. Errors are never memoized: a failing
// request goes through Program every time.
func (m *LaserMemo) Program(dac DAC, cfg *core.LinkConfig, ev *core.Evaluation) (Decision, error) {
	code, quantW, err := dac.Quantize(ev.Op.LaserOpticalW)
	if err != nil {
		return Program(dac, cfg, ev)
	}
	ch := &cfg.Channel
	same := ch.Laser == m.laser && ch.Activity == m.activity
	bits := math.Float64bits(quantW)
	if pe, ok := m.powers[bits]; ok && same {
		return Decision{
			Eval:                 *ev,
			DACCode:              code,
			QuantizedOpticalW:    quantW,
			QuantizedLaserPowerW: pe,
			QuantizationWasteW:   pe - ev.LaserPowerW,
		}, nil
	}
	d, err := Program(dac, cfg, ev)
	if err != nil {
		return d, err
	}
	switch {
	case m.powers == nil:
		m.powers = make(map[uint64]float64)
	case !same || len(m.powers) >= laserMemoCap:
		clear(m.powers)
	}
	m.laser, m.activity = ch.Laser, ch.Activity
	m.powers[bits] = d.QuantizedLaserPowerW
	return d, nil
}

// Schemes returns the registered scheme roster.
func (m *Manager) Schemes() []ecc.Code { return m.schemes }
