package onoc

// OperatingPoint is the solved optical state of one wavelength of the
// channel at a required SNR: how much the laser must emit and what that
// costs electrically. Feasible is false when the request exceeds the
// laser's deliverable power (the paper's unreachable-BER case). A compiled
// LinkPlan produces it (see LinkPlan.OperatingPoint).
type OperatingPoint struct {
	Channel int
	// SNR is the required SNR at the detector (paper Eq. 4).
	SNR float64
	// EyeFraction is (1 − 1/ER): the fraction of the received '1' level
	// that forms the detection eye.
	EyeFraction float64
	// CrosstalkFraction is χ, the relative crosstalk power at the drop.
	CrosstalkFraction float64
	// ReceivedOneLevelW is the required '1'-level power at the detector.
	ReceivedOneLevelW float64
	// BudgetDB is the worst-case path loss between laser and detector.
	BudgetDB float64
	// LaserOpticalW is the minimum laser output power OPlaser.
	LaserOpticalW float64
	// LaserElectricalW is Plaser, the electrical power drawn by the laser
	// (zero when infeasible).
	LaserElectricalW float64
	// Feasible reports whether the laser can deliver LaserOpticalW.
	Feasible bool
	// InfeasibleReason carries the laser error text when Feasible is false.
	InfeasibleReason string
}
