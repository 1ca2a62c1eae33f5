// Package core implements the paper's contribution: the joint selection of
// an error-correction code and the laser output power of a nanophotonic
// MWSR channel under a target bit-error-rate (Sections III and V).
//
// Given a LinkConfig (channel physics + interface electronics + clocks) and
// a target BER, Evaluate solves the chain
//
//	target BER → raw channel BER (Eq. 2 inverted)
//	           → required SNR     (Eq. 1/3)
//	           → OPlaser          (Eq. 4 + link budget + crosstalk)
//	           → Plaser           (thermal laser model, Fig. 4)
//	           → Pchannel, CT, energy/bit
//
// for every communication scheme, and the experiment helpers regenerate the
// paper's Figures 5, 6a, 6b and the Section V-C headline numbers.
package core

import (
	"fmt"
	"maps"
	"math"

	"photonoc/internal/ecc"
	"photonoc/internal/mathx"
	"photonoc/internal/onoc"
)

// TokenOverheadSec is the fixed MWSR arbitration cost per transfer
// (token grant + manager request/response round trip). The single-link
// simulator (internal/netsim), the network-scale discrete-event simulator
// and the analytic network evaluator (internal/noc) all charge this same
// cost per hop, so analytic and simulated latencies share the arbitration
// model.
const TokenOverheadSec = 10e-9

// InterfacePower is the dynamic power of the electrical interface for one
// communication scheme, as synthesized in Table I (whole 64-bit interface,
// all wavelengths together).
type InterfacePower struct {
	// TransmitterW is the emitter interface power (mux + coders + SER).
	TransmitterW float64
	// ReceiverW is the receiver interface power (mux + decoders + DES).
	ReceiverW float64
}

// TotalW returns transmitter plus receiver power.
func (p InterfacePower) TotalW() float64 { return p.TransmitterW + p.ReceiverW }

// LinkConfig is the full configuration of one MWSR channel plus its
// electrical interfaces.
type LinkConfig struct {
	// Channel is the optical substrate (topology, rings, laser, budget).
	Channel onoc.ChannelSpec
	// FmodHz is the per-wavelength modulation speed (paper: 10 Gb/s).
	FmodHz float64
	// FIPHz is the IP-side clock (paper: 1 GHz).
	FIPHz float64
	// Ndata is the IP bus width (paper: 64 bits).
	Ndata int
	// ModulatorPowerW is PMR per wavelength (paper: 1.36 mW from [15]).
	ModulatorPowerW float64
	// InterfacePowers maps scheme name → synthesized interface power
	// (Table I). Schemes not present are estimated by interpolation on
	// their redundancy (see InterfacePowerFor).
	InterfacePowers map[string]InterfacePower
}

// DefaultConfig returns the paper's evaluation configuration: the calibrated
// optical channel and the Table I interface powers.
func DefaultConfig() LinkConfig {
	return LinkConfig{
		Channel:         onoc.PaperChannel(),
		FmodHz:          10e9,
		FIPHz:           1e9,
		Ndata:           64,
		ModulatorPowerW: 1.36e-3,
		InterfacePowers: map[string]InterfacePower{
			// Table I "Total" dynamic power rows (µW), 28nm FDSOI.
			"w/o ECC":  {TransmitterW: 3.18e-6, ReceiverW: 4.32e-6},
			"H(71,64)": {TransmitterW: 6.01e-6, ReceiverW: 7.23e-6},
			"H(7,4)":   {TransmitterW: 9.59e-6, ReceiverW: 10.1e-6},
		},
	}
}

// Validate checks the configuration. Every floating-point parameter must
// be finite.
func (cfg *LinkConfig) Validate() error {
	if err := cfg.checkFinite(); err != nil {
		return err
	}
	if err := cfg.Channel.Validate(); err != nil {
		return err
	}
	switch {
	case cfg.FmodHz <= 0:
		return fmt.Errorf("core: Fmod %g must be positive", cfg.FmodHz)
	case cfg.FIPHz <= 0:
		return fmt.Errorf("core: FIP %g must be positive", cfg.FIPHz)
	case cfg.Ndata <= 0:
		return fmt.Errorf("core: Ndata %d must be positive", cfg.Ndata)
	case cfg.ModulatorPowerW < 0:
		return fmt.Errorf("core: modulator power %g must be non-negative", cfg.ModulatorPowerW)
	}
	return nil
}

// checkFinite rejects NaN and ±Inf in every floating-point leaf of the
// configuration, which the per-field range checks would let through. A
// float field added to LinkConfig must be added here too; the engine tests
// walk every leaf by reflection and fail otherwise.
func (cfg *LinkConfig) checkFinite() error {
	ch := &cfg.Channel
	for _, v := range [...]float64{
		ch.Grid.CenterNM, ch.Grid.SpacingNM,
		ch.Modulator.ResonanceNM, ch.Modulator.FWHMNM, ch.Modulator.ShiftNM, ch.Modulator.ThroughMin, ch.Modulator.DropMax,
		ch.DropFilter.ResonanceNM, ch.DropFilter.FWHMNM, ch.DropFilter.ShiftNM, ch.DropFilter.ThroughMin, ch.DropFilter.DropMax,
		ch.Waveguide.LengthCM, ch.Waveguide.LossDBPerCM, ch.Mux.InsertionLossDB, ch.CouplingLossDB,
		ch.Detector.ResponsivityAPerW, ch.Detector.DarkCurrentA,
		ch.Laser.Eta0, ch.Laser.RthKPerW, ch.Laser.DeltaTMax0K, ch.Laser.ActivityTempK, ch.Laser.Gamma, ch.Laser.RatedMaxOpticalW,
		ch.Activity, cfg.FmodHz, cfg.FIPHz, cfg.ModulatorPowerW,
	} {
		if !finite(v) {
			return fmt.Errorf("core: parameter %g must be finite", v)
		}
	}
	for name, p := range cfg.InterfacePowers {
		if !finite(p.TransmitterW) || !finite(p.ReceiverW) {
			return fmt.Errorf("core: interface power of %q (%g W, %g W) must be finite", name, p.TransmitterW, p.ReceiverW)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Clone returns a deep copy of the configuration: the struct and its
// InterfacePowers map.
func (cfg *LinkConfig) Clone() LinkConfig {
	cp := *cfg
	cp.InterfacePowers = maps.Clone(cfg.InterfacePowers)
	return cp
}

// InterfacePowerFor returns the interface power for a scheme: the Table I
// value when available, otherwise an estimate interpolated on the scheme's
// redundancy between the uncoded and H(7,4) synthesis points (extension
// codes only; the paper's three schemes always hit the table).
func (cfg *LinkConfig) InterfacePowerFor(code ecc.Code) InterfacePower {
	if p, ok := cfg.InterfacePowers[code.Name()]; ok {
		return p
	}
	base, okB := cfg.InterfacePowers["w/o ECC"]
	high, okH := cfg.InterfacePowers["H(7,4)"]
	if !okB || !okH {
		return InterfacePower{}
	}
	// Scale on redundancy fraction relative to H(7,4)'s 75% overhead.
	frac := mathx.Clamp((ecc.CT(code)-1)/0.75, 0, 2)
	return InterfacePower{
		TransmitterW: base.TransmitterW + (high.TransmitterW-base.TransmitterW)*frac,
		ReceiverW:    base.ReceiverW + (high.ReceiverW-base.ReceiverW)*frac,
	}
}
