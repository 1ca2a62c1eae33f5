package photonics

import (
	"errors"
	"fmt"
	"math"

	"photonoc/internal/mathx"
)

// ErrLaserInfeasible is returned when a requested optical output power
// exceeds what the laser can deliver (thermal rollover or rated cap) — the
// situation that makes BER 1e-12 unreachable without ECC in the paper.
var ErrLaserInfeasible = errors.New("photonics: requested optical power beyond laser capability")

// Laser models the CMOS-compatible PCM-VCSEL of [16] with the
// temperature-dependent lasing efficiency used by the paper (Section IV-E,
// Fig. 4, methodology of [8]). The wall-plug efficiency collapses as the
// junction heats:
//
//	OP(Pe) = Pe · η0 · (1 − (Rth·Pe / ΔTmax)^γ)
//
// where ΔTmax shrinks with electrical-layer activity. The resulting Pe(OP)
// characteristic is linear at low power and blows up near the thermal
// rollover, exactly the Fig. 4 shape.
type Laser struct {
	// Eta0 is the small-signal wall-plug efficiency (the paper quotes
	// "around 5%").
	Eta0 float64
	// RthKPerW is the junction thermal resistance in kelvin per electrical
	// watt dissipated in the laser.
	RthKPerW float64
	// DeltaTMax0K is the junction temperature headroom before efficiency
	// collapse with an idle electrical layer.
	DeltaTMax0K float64
	// ActivityTempK is the additional baseline heating contributed by a
	// fully active electrical layer; the effective headroom is
	// DeltaTMax0K − activity·ActivityTempK.
	ActivityTempK float64
	// Gamma is the efficiency-collapse exponent.
	Gamma float64
	// RatedMaxOpticalW caps the deliverable optical power regardless of
	// thermals (the paper's 700 µW maximum).
	RatedMaxOpticalW float64
}

// PaperLaser returns the laser calibrated to the paper's Fig. 4 / Fig. 5
// operating points: ≈5.35% small-signal efficiency, thermal rollover at
// ≈716 µW for 25% chip activity, 700 µW rated cap, ≈13.7 mW electrical at
// the uncoded BER-1e-11 operating point.
func PaperLaser() Laser {
	return Laser{
		Eta0:             0.0535,
		RthKPerW:         2000,
		DeltaTMax0K:      60,
		ActivityTempK:    40,
		Gamma:            4,
		RatedMaxOpticalW: 700e-6,
	}
}

// Validate checks parameter sanity.
func (l Laser) Validate() error {
	switch {
	case l.Eta0 <= 0 || l.Eta0 > 1:
		return fmt.Errorf("photonics: laser efficiency %g outside (0,1]", l.Eta0)
	case l.RthKPerW <= 0:
		return fmt.Errorf("photonics: thermal resistance %g must be positive", l.RthKPerW)
	case l.DeltaTMax0K <= 0:
		return fmt.Errorf("photonics: headroom %g K must be positive", l.DeltaTMax0K)
	case l.ActivityTempK < 0:
		return fmt.Errorf("photonics: activity heating %g K must be non-negative", l.ActivityTempK)
	case l.Gamma <= 0:
		return fmt.Errorf("photonics: collapse exponent %g must be positive", l.Gamma)
	case l.RatedMaxOpticalW <= 0:
		return fmt.Errorf("photonics: rated power %g must be positive", l.RatedMaxOpticalW)
	}
	return nil
}

// headroomK returns the effective temperature headroom at the given chip
// activity in [0, 1].
func (l Laser) headroomK(activity float64) (float64, error) {
	if activity < 0 || activity > 1 {
		return 0, fmt.Errorf("photonics: activity %g outside [0,1]", activity)
	}
	h := l.DeltaTMax0K - activity*l.ActivityTempK
	if h <= 0 {
		return 0, fmt.Errorf("photonics: chip activity %g leaves no thermal headroom", activity)
	}
	return h, nil
}

// OpticalFromElectrical returns the optical output for a given electrical
// drive power at the given activity (0 beyond the collapse point).
func (l Laser) OpticalFromElectrical(pElecW, activity float64) (float64, error) {
	h, err := l.headroomK(activity)
	if err != nil {
		return 0, err
	}
	if pElecW < 0 {
		return 0, fmt.Errorf("photonics: negative electrical power %g", pElecW)
	}
	x := l.RthKPerW * pElecW / h
	eff := l.Eta0 * (1 - math.Pow(x, l.Gamma))
	if eff <= 0 {
		return 0, nil
	}
	return pElecW * eff, nil
}

// peakElectrical returns the drive power at the thermal rollover, where
// d(OP)/d(Pe) = 0: Pe* = (γ+1)^(−1/γ) · ΔTmax/Rth.
func (l Laser) peakElectrical(headroomK float64) float64 {
	return math.Pow(l.Gamma+1, -1/l.Gamma) * headroomK / l.RthKPerW
}

// ThermalPeakOpticalW returns the maximum optical power the thermals allow
// at the given activity (ignoring the rated cap).
func (l Laser) ThermalPeakOpticalW(activity float64) (float64, error) {
	h, err := l.headroomK(activity)
	if err != nil {
		return 0, err
	}
	op, err := l.OpticalFromElectrical(l.peakElectrical(h), activity)
	if err != nil {
		return 0, err
	}
	return op, nil
}

// MaxOpticalW returns the deliverable optical power: the smaller of the
// thermal rollover and the rated cap.
func (l Laser) MaxOpticalW(activity float64) (float64, error) {
	peak, err := l.ThermalPeakOpticalW(activity)
	if err != nil {
		return 0, err
	}
	return math.Min(peak, l.RatedMaxOpticalW), nil
}

// ElectricalPower inverts the laser characteristic: the electrical drive
// needed to emit opticalW at the given activity. It returns
// ErrLaserInfeasible (wrapped with context) when the request exceeds
// MaxOpticalW — the paper's "BER 1e-12 unreachable without ECC" condition.
func (l Laser) ElectricalPower(opticalW, activity float64) (float64, error) {
	if opticalW < 0 {
		return 0, fmt.Errorf("photonics: negative optical power %g", opticalW)
	}
	if opticalW == 0 {
		return 0, nil
	}
	h, err := l.headroomK(activity)
	if err != nil {
		return 0, err
	}
	maxOp, err := l.MaxOpticalW(activity)
	if err != nil {
		return 0, err
	}
	if opticalW > maxOp*(1+1e-12) {
		return 0, fmt.Errorf("%w: need %.1f µW, laser delivers at most %.1f µW at %.0f%% activity",
			ErrLaserInfeasible, opticalW*1e6, maxOp*1e6, activity*100)
	}
	opticalW = math.Min(opticalW, maxOp)
	// OP(Pe) is strictly increasing on [0, Pe*]; invert it by bracketed
	// Newton with the closed-form slope dOP/dPe = η0(1 − (γ+1)xᵞ),
	// x = Rth·Pe/ΔTmax. f evaluates OpticalFromElectrical's exact
	// expression, so f(Pe*) at the thermal ceiling is exactly zero rather
	// than a rounding error of either sign. The root is at least OP/η0, so
	// the tolerance is at most 1e-15 of it.
	peak := l.peakElectrical(h)
	pe, err := mathx.NewtonBisect(func(pe float64) (float64, float64) {
		xg := math.Pow(l.RthKPerW*pe/h, l.Gamma)
		return pe*(l.Eta0*(1-xg)) - opticalW, l.Eta0 * (1 - (l.Gamma+1)*xg)
	}, 0, peak, 1e-15*opticalW/l.Eta0)
	if err != nil {
		return 0, fmt.Errorf("photonics: inverting laser characteristic: %w", err)
	}
	return pe, nil
}

// WallPlugEfficiency returns OP/Pe at the operating point emitting opticalW.
func (l Laser) WallPlugEfficiency(opticalW, activity float64) (float64, error) {
	if opticalW <= 0 {
		return l.Eta0, nil
	}
	pe, err := l.ElectricalPower(opticalW, activity)
	if err != nil {
		return 0, err
	}
	return opticalW / pe, nil
}

// JunctionTempRiseK returns the self-heating above the activity baseline at
// the operating point emitting opticalW: Rth · Pe. Together with the
// activity-driven baseline this is the temperature the thermal-tuning
// controller of [8] would have to track.
func (l Laser) JunctionTempRiseK(opticalW, activity float64) (float64, error) {
	pe, err := l.ElectricalPower(opticalW, activity)
	if err != nil {
		return 0, err
	}
	return l.RthKPerW * pe, nil
}

// CurvePoint is one sample of the Fig. 4 characteristic.
type CurvePoint struct {
	OpticalW    float64
	ElectricalW float64
	Feasible    bool
}

// Curve samples the Pe(OP) characteristic over [0, hiW] — the paper's
// Fig. 4. Infeasible points are included with Feasible = false so the
// figure can show where the characteristic ends.
func (l Laser) Curve(hiW float64, points int, activity float64) ([]CurvePoint, error) {
	if points < 2 {
		return nil, fmt.Errorf("photonics: Curve needs at least 2 points")
	}
	out := make([]CurvePoint, points)
	for i, op := range mathx.Linspace(0, hiW, points) {
		pe, err := l.ElectricalPower(op, activity)
		if err != nil {
			if errors.Is(err, ErrLaserInfeasible) {
				out[i] = CurvePoint{OpticalW: op}
				continue
			}
			return nil, err
		}
		out[i] = CurvePoint{OpticalW: op, ElectricalW: pe, Feasible: true}
	}
	return out, nil
}
