// Command onocbench regenerates the paper's tables and figures from the
// command line:
//
//	onocbench -experiment all          # everything
//	onocbench -experiment fig5         # one artifact
//	onocbench -experiment table1 -csv  # machine-readable output
//
// Experiments: table1, fig3, fig4, fig5, fig6a, fig6b, headline, boundary,
// verilog (structural Verilog of the H(7,4) codec), report (full markdown
// experiment report), all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"photonoc"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/mathx"
	"photonoc/internal/photonics"
	"photonoc/internal/report"
	"photonoc/internal/synth"
)

func main() {
	experiment := flag.String("experiment", "all", "table1|fig3|fig4|fig5|fig6a|fig6b|headline|boundary|verilog|report|all")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables where applicable")
	jsonBench := flag.Bool("json", false, "measure the tracked solve-pipeline benchmarks (cold/warm sweep, FER inversion, Monte-Carlo block) and emit them as JSON (see BENCH_cold_sweep.json)")
	ber := flag.Float64("ber", 1e-11, "target BER for fig6a/headline")
	configPath := flag.String("config", "", "load a study configuration (JSON from SaveConfig) instead of the paper defaults")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS); of the -json metrics it sizes noc_batch, noc_tune and the served engine")
	flag.Parse()

	// Ctrl-C cancels mid-experiment: the context threads through every
	// engine sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := photonoc.DefaultConfig()
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "onocbench: %v\n", err)
			os.Exit(1)
		}
		cfg, err = photonoc.LoadConfig(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "onocbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonBench {
		if err := runBenchJSON(os.Stdout, cfg, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "onocbench: -json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := []photonoc.Option{photonoc.WithConfig(cfg)}
	if *workers != 0 { // let negative values hit the engine's typed validation
		opts = append(opts, photonoc.WithWorkers(*workers))
	}
	eng, err := photonoc.New(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "onocbench: %v\n", err)
		os.Exit(1)
	}
	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		fmt.Printf("\n===== %s =====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "onocbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error { return table1(*csvOut) })
	run("fig3", func() error { return fig3() })
	run("fig4", func() error { return fig4() })
	run("fig5", func() error { return fig5(ctx, eng, *csvOut) })
	run("fig6a", func() error { return fig6a(ctx, eng, *ber, *csvOut) })
	run("fig6b", func() error { return fig6b(ctx, eng) })
	run("headline", func() error { return headline(ctx, eng, *ber) })
	run("boundary", func() error { return boundary(&cfg) })
	run("verilog", func() error { return verilog() })
	run("report", func() error { return cfg.WriteReport(os.Stdout) })

	switch *experiment {
	case "all", "table1", "fig3", "fig4", "fig5", "fig6a", "fig6b", "headline", "boundary", "verilog", "report":
	default:
		fmt.Fprintf(os.Stderr, "onocbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// boundary prints the laser-limited reachable-BER boundary per scheme —
// the continuous version of the paper's "1e-12 unreachable without ECC".
func boundary(cfg *core.LinkConfig) error {
	t := report.NewTable("Laser-limited BER boundary (tightest reachable target BER)",
		"scheme", "boundary", "note")
	for _, code := range ecc.PaperSchemes() {
		b, err := cfg.TightestBER(code)
		if err != nil {
			return err
		}
		note := ""
		if b <= 1e-18 {
			note = "search floor — no laser-limited ceiling"
		}
		t.AddRowf(code.Name(), fmt.Sprintf("%.2e", b), note)
	}
	return t.Render(os.Stdout)
}

// verilog dumps the structural Verilog of the paper's H(7,4) codec blocks.
func verilog() error {
	lib := synth.DefaultLibrary()
	for _, n := range []*synth.Netlist{
		synth.BuildEncoder(ecc.MustHamming74()),
		synth.BuildDecoder(ecc.MustHamming74()),
	} {
		if err := synth.ExportVerilog(os.Stdout, n, lib); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func table1(csvOut bool) error {
	rows, totals, err := synth.Table1(synth.DefaultLibrary())
	if err != nil {
		return err
	}
	t := report.NewTable("Table I — synthesis results (model vs paper)",
		"section", "block", "area µm²", "paper", "CP ps", "paper", "dyn µW", "paper")
	for _, r := range rows {
		t.AddRowf(r.Section, r.Block,
			fmt.Sprintf("%.0f", r.AreaUM2), fmt.Sprintf("%.0f", r.PaperAreaUM2),
			fmt.Sprintf("%.0f", r.CriticalPathPS), fmt.Sprintf("%.0f", r.PaperCPPS),
			fmt.Sprintf("%.2f", r.DynamicUW), fmt.Sprintf("%.2f", r.PaperDynamicUW))
	}
	for _, tot := range totals {
		t.AddRowf(tot.Section, "Total "+tot.Mode+" com.", "", "", "", "",
			fmt.Sprintf("%.2f", tot.DynamicUW), fmt.Sprintf("%.2f", tot.PaperDynamicUW))
	}
	if csvOut {
		return t.WriteCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

func fig3() error {
	ring := photonics.PaperModulator(1536.0)
	off := ring.ThroughSpectrum(1535.4, 1536.4, 401, false)
	on := ring.ThroughSpectrum(1535.4, 1536.4, 401, true)
	toSeries := func(name string, pts []photonics.SpectrumPoint) report.Series {
		s := report.Series{Name: name}
		for _, p := range pts {
			s.X = append(s.X, p.LambdaNM)
			s.Y = append(s.Y, p.ThroughDB)
		}
		return s
	}
	return report.ASCIIPlot(os.Stdout,
		fmt.Sprintf("Fig 3 — MR transmission; ER %.2f dB (paper 6.9)", ring.ExtinctionRatioDB()),
		[]report.Series{toSeries("ON", on), toSeries("OFF", off)},
		report.PlotOptions{Width: 76, Height: 18, XLabel: "λ nm", YLabel: "T dB"})
}

func fig4() error {
	laser := photonics.PaperLaser()
	curve, err := laser.Curve(800e-6, 81, 0.25)
	if err != nil {
		return err
	}
	s := report.Series{Name: "Plaser mW"}
	for _, p := range curve {
		s.X = append(s.X, p.OpticalW*1e6)
		s.Y = append(s.Y, p.ElectricalW*1e3)
		s.Mask = append(s.Mask, p.Feasible)
	}
	return report.ASCIIPlot(os.Stdout, "Fig 4 — Plaser vs OPlaser (25% activity)",
		[]report.Series{s}, report.PlotOptions{Width: 76, Height: 18, XLabel: "OPlaser µW", YLabel: "Plaser mW"})
}

func fig5(ctx context.Context, eng *photonoc.Engine, csvOut bool) error {
	pts, err := core.Fig5With(ctx, eng, mathx.Logspace(1e-12, 1e-3, 10))
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 5 — Plaser [mW] vs target BER", "BER", "scheme", "Plaser mW", "OPlaser µW", "feasible")
	for _, p := range pts {
		t.AddRowf(fmt.Sprintf("%.0e", p.TargetBER), p.Scheme,
			fmt.Sprintf("%.2f", p.LaserPowerW*1e3),
			fmt.Sprintf("%.1f", p.LaserOpticalW*1e6),
			fmt.Sprintf("%v", p.Feasible))
	}
	if csvOut {
		return t.WriteCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

func fig6a(ctx context.Context, eng *photonoc.Engine, ber float64, csvOut bool) error {
	bars, err := core.Fig6aWith(ctx, eng, ber)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Fig 6a — channel power breakdown @ BER %.0e", ber),
		"scheme", "Penc+dec µW", "PMR mW", "Plaser mW", "total mW", "CT", "pJ/bit")
	for _, bar := range bars {
		t.AddRowf(bar.Scheme,
			fmt.Sprintf("%.2f", bar.InterfaceW*1e6),
			fmt.Sprintf("%.2f", bar.ModulatorW*1e3),
			fmt.Sprintf("%.2f", bar.LaserW*1e3),
			fmt.Sprintf("%.2f", bar.TotalW*1e3),
			fmt.Sprintf("%.3f", bar.CT),
			fmt.Sprintf("%.2f", bar.EnergyPerBitPJ))
	}
	if csvOut {
		return t.WriteCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

func fig6b(ctx context.Context, eng *photonoc.Engine) error {
	pts, err := core.TradeoffPlaneWith(ctx, eng, ecc.PaperSchemes(), []float64{1e-6, 1e-8, 1e-10, 1e-12})
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 6b — power/performance trade-off",
		"BER", "scheme", "CT", "Pchannel mW", "Pareto")
	for _, p := range pts {
		power, pareto := "-", "infeasible"
		if p.Feasible {
			power = fmt.Sprintf("%.2f", p.ChannelPowerW*1e3)
			pareto = fmt.Sprintf("%v", p.OnPareto)
		}
		t.AddRowf(fmt.Sprintf("%.0e", p.TargetBER), p.Scheme, fmt.Sprintf("%.3f", p.CT), power, pareto)
	}
	return t.Render(os.Stdout)
}

func headline(ctx context.Context, eng *photonoc.Engine, ber float64) error {
	cfg := eng.Config()
	h, err := core.HeadlineWith(ctx, eng, &cfg, ber)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Section V-C headline @ BER %.0e", ber), "metric", "value")
	t.AddRowf("laser share (uncoded)", fmt.Sprintf("%.1f%%", h.LaserShareUncoded*100))
	t.AddRowf("channel reduction H(71,64)", fmt.Sprintf("%.1f%%", h.ChannelReduction["H(71,64)"]*100))
	t.AddRowf("channel reduction H(7,4)", fmt.Sprintf("%.1f%%", h.ChannelReduction["H(7,4)"]*100))
	t.AddRowf("per-waveguide uncoded", fmt.Sprintf("%.0f mW", h.PerWaveguideW["w/o ECC"]*1e3))
	t.AddRowf("per-waveguide H(71,64)", fmt.Sprintf("%.0f mW", h.PerWaveguideW["H(71,64)"]*1e3))
	t.AddRowf("interconnect saving", fmt.Sprintf("%.1f W", h.InterconnectSavingW))
	t.AddRowf("best energy scheme", h.BestEnergyScheme)
	return t.Render(os.Stdout)
}
