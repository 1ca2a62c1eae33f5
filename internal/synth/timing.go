package synth

// TimingReport is the result of static timing analysis over one netlist.
type TimingReport struct {
	// CriticalPathPS is the longest register-to-register (or input/output
	// bounded) combinational path including clock-to-Q and setup.
	CriticalPathPS float64
	// EndPoint names the gate where the critical path terminates.
	EndPoint string
	// SlackPS reports slack against the clock period passed to Analyze
	// (positive means the block meets timing, the paper's Table I claim).
	SlackPS float64
}

// AnalyzeTiming walks the gate DAG in topological order, accumulating
// arrival times: primary inputs launch at inputDelayPS (modeling the
// upstream register's clock-to-Q), flip-flop outputs launch at clock-to-Q,
// and paths terminate at flip-flop data pins (plus setup) or at primary
// outputs.
func AnalyzeTiming(n *Netlist, lib *Library, clockPeriodPS, inputDelayPS float64) (TimingReport, error) {
	if err := n.Validate(lib); err != nil {
		return TimingReport{}, err
	}
	gates := n.Gates()
	arrival := make([]float64, len(gates))
	report := TimingReport{}

	endpoint := func(t float64, name string) {
		if t > report.CriticalPathPS {
			report.CriticalPathPS = t
			report.EndPoint = name
		}
	}

	for _, g := range gates {
		spec, err := lib.Spec(g.Type)
		if err != nil {
			return TimingReport{}, err
		}
		switch g.Type {
		case CellInput:
			arrival[g.ID] = inputDelayPS
		case CellDFF, CellDFFG, CellDFFHS:
			// The data pin terminates a path; the output launches a new one.
			dataArrival := arrival[g.Inputs[0]]
			endpoint(dataArrival+spec.SetupPS, g.Name)
			arrival[g.ID] = spec.DelayPS
		default:
			worst := 0.0
			for _, in := range g.Inputs {
				if arrival[in] > worst {
					worst = arrival[in]
				}
			}
			arrival[g.ID] = worst + spec.DelayPS
		}
	}
	// Primary outputs that are not flip-flops also terminate paths.
	for _, name := range n.outOrder {
		id := n.outputs[name]
		switch gates[id].Type {
		case CellDFF, CellDFFG, CellDFFHS:
		default:
			endpoint(arrival[id], name)
		}
	}
	report.SlackPS = clockPeriodPS - report.CriticalPathPS
	return report, nil
}
