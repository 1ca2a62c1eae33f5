package core

import (
	"context"
	"fmt"

	"photonoc/internal/ecc"
	"photonoc/internal/onoc"
)

// Compiled is a LinkConfig whose configuration-constant work has been done
// once: the specification validated, the optical link plan (per-channel
// budget, crosstalk, eye fraction) derived, and the interface-power table
// snapshotted. Evaluate then costs one planned FER inversion, one SNR
// conversion and one laser inversion — no re-validation, no budget loops.
//
// A Compiled is immutable and safe for concurrent use. Build one with
// LinkConfig.Compile; the engine layer compiles once per configuration
// generation and solves every sweep point through it.
type Compiled struct {
	// cfg supplies the clocks, modulator power and interface powers; its
	// Channel is not read: the link plan's specification stands in for it.
	cfg  *LinkConfig
	link *onoc.LinkPlan
}

// Compile validates the configuration and derives the compiled solve
// pipeline. The returned Compiled holds a deep copy: later mutation of cfg
// does not affect it.
func (cfg *LinkConfig) Compile() (*Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	link, err := cfg.Channel.Compile()
	if err != nil {
		return nil, err
	}
	cp := cfg.Clone()
	return NewCompiled(&cp, link), nil
}

// NewCompiled pairs a link plan with the configuration whose clocks,
// modulator power and interface powers its evaluations use; the plan's
// specification stands in for cfg.Channel. It neither validates nor copies
// cfg: the caller has validated it and never mutates it while the
// Compiled is in use. The engine builds its network links this way, many
// plans over one private copy of the base configuration.
func NewCompiled(cfg *LinkConfig, link *onoc.LinkPlan) *Compiled {
	return &Compiled{cfg: cfg, link: link}
}

// Config returns a copy of the compiled configuration.
func (c *Compiled) Config() LinkConfig {
	cfg := c.cfg.Clone()
	cfg.Channel = c.link.Spec()
	return cfg
}

// LinkPlan exposes the compiled optical plan (per-channel budgets and
// crosstalk) for diagnostics.
func (c *Compiled) LinkPlan() *onoc.LinkPlan { return c.link }

// Evaluate solves one scheme at one target BER through the compiled
// pipeline, obtaining the code's FER plan from ecc.PlanFor for this one
// call. It is the reference path; callers that solve a code repeatedly hold
// its plan and call EvaluatePlan.
func (c *Compiled) Evaluate(code ecc.Code, targetBER float64) (Evaluation, error) {
	return c.EvaluatePlan(ecc.PlanFor(code), targetBER)
}

// EvaluatePlan solves the plan's code at one target BER: the required raw
// BER from the FER plan, the detector SNR, then the worst-channel laser
// inversion.
func (c *Compiled) EvaluatePlan(plan *ecc.FERPlan, targetBER float64) (Evaluation, error) {
	pt, err := SolveCodePoint(plan, targetBER)
	if err != nil {
		return Evaluation{}, err
	}
	return c.EvaluatePoint(plan.Code(), targetBER, pt)
}

// CodePoint is the code side of one operating point: the raw channel BER a
// code needs to meet a target BER, and the detector SNR that raw BER needs.
// It depends on the code and the target only, so every link solving one
// (code, target BER) shares it.
type CodePoint struct {
	RawBER, SNR float64
}

// SolveCodePoint solves the code side of the plan's code at one target
// BER.
func SolveCodePoint(plan *ecc.FERPlan, targetBER float64) (CodePoint, error) {
	rawBER, err := plan.RequiredRawBER(targetBER)
	if err != nil {
		return CodePoint{}, err
	}
	snr, err := ecc.SNRForRawBER(rawBER)
	if err != nil {
		return CodePoint{}, fmt.Errorf("core: %s at BER %g: %w", plan.Code().Name(), targetBER, err)
	}
	return CodePoint{RawBER: rawBER, SNR: snr}, nil
}

// EvaluatePoint finishes the operating point of code at targetBER on this
// link from its solved code side: the worst-channel laser inversion at the
// point's SNR and the power and energy figures.
func (c *Compiled) EvaluatePoint(code ecc.Code, targetBER float64, pt CodePoint) (Evaluation, error) {
	rawBER, snr := pt.RawBER, pt.SNR
	op, err := c.link.WorstOperatingPoint(snr)
	if err != nil {
		return Evaluation{}, err
	}

	ev := Evaluation{
		Code:      code,
		TargetBER: targetBER,
		RawBER:    rawBER,
		SNR:       snr,
		CT:        ecc.CT(code),
		Op:        op,
		Feasible:  op.Feasible,
	}
	if !op.Feasible {
		ev.InfeasibleReason = op.InfeasibleReason
		return ev, nil
	}
	nw := float64(c.link.Wavelengths())
	ev.LaserPowerW = op.LaserElectricalW
	ev.ModulatorPowerW = c.cfg.ModulatorPowerW
	ev.InterfacePowerW = c.cfg.InterfacePowerFor(code).TotalW() / nw
	ev.ChannelPowerW = ev.LaserPowerW + ev.ModulatorPowerW + ev.InterfacePowerW
	ev.EnergyPerBitJ = ev.ChannelPowerW * ev.CT / c.cfg.FmodHz
	return ev, nil
}

// compiledEvaluator adapts Compiled to the Evaluator seam.
type compiledEvaluator struct{ c *Compiled }

func (e compiledEvaluator) Evaluate(ctx context.Context, code ecc.Code, targetBER float64) (Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return Evaluation{}, err
	}
	return e.c.Evaluate(code, targetBER)
}

// Evaluator returns a context-checking Evaluator over the compiled
// pipeline: sequential, uncached, but free of per-call recompilation.
func (c *Compiled) Evaluator() Evaluator { return compiledEvaluator{c} }
