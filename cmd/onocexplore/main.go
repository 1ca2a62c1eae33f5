// Command onocexplore sweeps the design space beyond the paper's three
// schemes: extended code families on the trade-off plane, laser activity,
// DAC resolution and waveguide-length sensitivity. The sweeps run on the
// concurrent photonoc.Engine; the code-family exploration streams its
// results and renders rows as operating points are solved.
//
//	onocexplore -sweep codes -ber 1e-9
//	onocexplore -sweep activity
//	onocexplore -sweep dac
//	onocexplore -sweep length
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"photonoc"

	"photonoc/internal/ecc"
	"photonoc/internal/photonics"
	"photonoc/internal/report"
)

func main() {
	sweep := flag.String("sweep", "codes", "codes|activity|dac|length|spacing")
	ber := flag.Float64("ber", 1e-9, "target BER")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch *sweep {
	case "codes":
		err = sweepCodes(ctx, *ber)
	case "activity":
		err = sweepActivity()
	case "dac":
		err = sweepDAC(ctx, *ber)
	case "length":
		err = sweepLength(ctx, *ber)
	case "spacing":
		err = sweepSpacing(ctx, *ber)
	default:
		fmt.Fprintf(os.Stderr, "onocexplore: unknown sweep %q\n", *sweep)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "onocexplore: %v\n", err)
		os.Exit(1)
	}
}

// newEngine builds an explorer engine over cfg and the extended roster.
func newEngine(cfg photonoc.LinkConfig) (*photonoc.Engine, error) {
	return photonoc.New(photonoc.WithConfig(cfg), photonoc.WithSchemes(photonoc.ExtendedSchemes()...))
}

// sweepCodes streams the extended-roster evaluation: rows print as each
// operating point (and its predecessors) is solved, and the Pareto verdict
// follows once the whole BER group is in.
func sweepCodes(ctx context.Context, ber float64) error {
	eng, err := newEngine(photonoc.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Printf("Extended code families @ BER %.0e (streamed)\n", ber)
	fmt.Printf("%-12s %6s %2s %6s %11s %13s %8s\n",
		"scheme", "rate", "t", "CT", "Plaser mW", "Pchannel mW", "pJ/bit")
	var group []photonoc.Evaluation
	for ev, err := range eng.SweepStream(ctx, nil, []float64{ber}) {
		if err != nil {
			return err
		}
		power, pj := "-", "-"
		if ev.Feasible {
			power = fmt.Sprintf("%.2f", ev.ChannelPowerW*1e3)
			pj = fmt.Sprintf("%.2f", ev.EnergyPerBitJ*1e12)
		}
		fmt.Printf("%-12s %6.3f %2d %6.3f %11.2f %13s %8s\n",
			ev.Code.Name(), ecc.Rate(ev.Code), ev.Code.T(), ev.CT,
			ev.LaserPowerW*1e3, power, pj)
		group = append(group, ev)
	}
	front := photonoc.ParetoFront(group)
	fmt.Print("\nPareto front (CT ↑): ")
	for i, ev := range front {
		if i > 0 {
			fmt.Print(" → ")
		}
		fmt.Print(ev.Code.Name())
	}
	fmt.Println()
	return nil
}

func sweepActivity() error {
	laser := photonics.PaperLaser()
	t := report.NewTable("Laser thermal headroom vs electrical-layer activity",
		"activity", "thermal peak µW", "deliverable µW", "Plaser @400µW mW")
	for _, a := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		peak, err := laser.ThermalPeakOpticalW(a)
		if err != nil {
			return err
		}
		maxOp, err := laser.MaxOpticalW(a)
		if err != nil {
			return err
		}
		at400 := "-"
		if pe, err := laser.ElectricalPower(400e-6, a); err == nil {
			at400 = fmt.Sprintf("%.2f", pe*1e3)
		}
		t.AddRowf(fmt.Sprintf("%.0f%%", a*100),
			fmt.Sprintf("%.0f", peak*1e6), fmt.Sprintf("%.0f", maxOp*1e6), at400)
	}
	return t.Render(os.Stdout)
}

// sweepDAC derives one manager per DAC resolution from a single engine, so
// every resolution's decision resolves against the same memo cache — the
// link is solved once, not once per row.
func sweepDAC(ctx context.Context, ber float64) error {
	eng, err := photonoc.New() // paper config, paper schemes
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Laser DAC resolution @ BER %.0e (min-power)", ber),
		"bits", "step µW", "scheme", "quantized OP µW", "waste mW")
	for _, bits := range []int{2, 3, 4, 5, 6, 8} {
		dac := photonoc.DAC{Bits: bits, MaxOpticalW: 700e-6}
		m, err := eng.Manager(dac)
		if err != nil {
			return err
		}
		d, err := m.ConfigureCtx(ctx, photonoc.Requirements{TargetBER: ber, Objective: photonoc.MinPower})
		if err != nil {
			return err
		}
		t.AddRowf(bits, fmt.Sprintf("%.1f", dac.StepW()*1e6), d.Eval.Code.Name(),
			fmt.Sprintf("%.1f", d.QuantizedOpticalW*1e6),
			fmt.Sprintf("%.3f", d.QuantizationWasteW*1e3))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	stats := eng.CacheStats()
	fmt.Printf("engine cache: %d solves, %d reuses across DAC resolutions\n", stats.Misses, stats.Hits)
	return nil
}

func sweepSpacing(ctx context.Context, ber float64) error {
	t := report.NewTable(fmt.Sprintf("WDM grid spacing sensitivity @ BER %.0e (uncoded and H(7,4))", ber),
		"spacing nm", "worst χ", "scheme", "OPlaser µW", "feasible")
	codes := []photonoc.Code{photonoc.Uncoded64(), photonoc.Hamming74()}
	for _, sp := range []float64{0.4, 0.6, 0.8, 1.2, 1.6} {
		cfg := photonoc.DefaultConfig()
		cfg.Channel.Grid.SpacingNM = sp
		chi, _, err := cfg.Channel.WorstCrosstalk()
		if err != nil {
			return err
		}
		eng, err := newEngine(cfg)
		if err != nil {
			return err
		}
		evs, err := eng.Sweep(ctx, codes, []float64{ber})
		if err != nil {
			return err
		}
		for _, ev := range evs {
			t.AddRowf(fmt.Sprintf("%.1f", sp), fmt.Sprintf("%.4f", chi), ev.Code.Name(),
				fmt.Sprintf("%.1f", ev.Op.LaserOpticalW*1e6), fmt.Sprintf("%v", ev.Feasible))
		}
	}
	return t.Render(os.Stdout)
}

func sweepLength(ctx context.Context, ber float64) error {
	t := report.NewTable(fmt.Sprintf("Waveguide length sensitivity @ BER %.0e", ber),
		"length cm", "budget dB", "scheme", "OPlaser µW", "Plaser mW", "feasible")
	codes := []photonoc.Code{photonoc.Uncoded64(), photonoc.Hamming74()}
	for _, cm := range []float64{2, 4, 6, 8, 10, 12} {
		cfg := photonoc.DefaultConfig()
		cfg.Channel.Waveguide.LengthCM = cm
		eng, err := newEngine(cfg)
		if err != nil {
			return err
		}
		evs, err := eng.Sweep(ctx, codes, []float64{ber})
		if err != nil {
			return err
		}
		for _, ev := range evs {
			plaser := "-"
			if ev.Feasible {
				plaser = fmt.Sprintf("%.2f", ev.LaserPowerW*1e3)
			}
			t.AddRowf(fmt.Sprintf("%.0f", cm), fmt.Sprintf("%.2f", ev.Op.BudgetDB),
				ev.Code.Name(), fmt.Sprintf("%.1f", ev.Op.LaserOpticalW*1e6), plaser,
				fmt.Sprintf("%v", ev.Feasible))
		}
	}
	return t.Render(os.Stdout)
}
