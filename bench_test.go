package photonoc

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section V) plus the ablations listed in DESIGN.md. Each
// benchmark measures the compute cost of its experiment and prints the
// reproduced rows/series once per `go test -bench` invocation, so the
// console output can be compared line by line with the paper.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/mathx"
	"photonoc/internal/mc"
	"photonoc/internal/netsim"
	"photonoc/internal/noise"
	"photonoc/internal/photonics"
	"photonoc/internal/report"
	"photonoc/internal/synth"
)

var benchPrinted sync.Map

// printOnce runs f the first time key is seen, so repeated b.N iterations
// and -count runs do not spam the log.
func printOnce(key string, f func()) {
	if _, loaded := benchPrinted.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n", key)
		f()
	}
}

// fig5Grid is the paper's BER sweep for Figure 5.
func fig5Grid() []float64 { return mathx.Logspace(1e-12, 1e-3, 10) }

// BenchmarkTable1Synthesis regenerates Table I (28nm FDSOI synthesis of the
// interfaces) from gate netlists.
func BenchmarkTable1Synthesis(b *testing.B) {
	lib := synth.DefaultLibrary()
	var rows []synth.Table1Row
	var totals []synth.Table1Totals
	var err error
	for i := 0; i < b.N; i++ {
		rows, totals, err = synth.Table1(lib)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Table I — interface synthesis (model vs paper)", func() {
		t := report.NewTable("Ndata=64b, FIP=1GHz, Fmod=10Gb/s, 28nm FDSOI",
			"block", "area µm²", "paper", "CP ps", "paper", "static nW", "paper", "dyn µW", "paper", "slack ps")
		for _, r := range rows {
			t.AddRowf(r.Block,
				fmt.Sprintf("%.0f", r.AreaUM2), fmt.Sprintf("%.0f", r.PaperAreaUM2),
				fmt.Sprintf("%.0f", r.CriticalPathPS), fmt.Sprintf("%.0f", r.PaperCPPS),
				fmt.Sprintf("%.2f", r.StaticNW), fmt.Sprintf("%.2f", r.PaperStaticNW),
				fmt.Sprintf("%.2f", r.DynamicUW), fmt.Sprintf("%.2f", r.PaperDynamicUW),
				fmt.Sprintf("%+.0f", r.SlackPS))
		}
		for _, tot := range totals {
			t.AddRowf(fmt.Sprintf("Total %s, %s com.", tot.Section, tot.Mode),
				"", "", "", "", "", "",
				fmt.Sprintf("%.2f", tot.DynamicUW), fmt.Sprintf("%.2f", tot.PaperDynamicUW), "")
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkFig3RingSpectrum regenerates Figure 3: the micro-ring through
// transmission in ON and OFF states.
func BenchmarkFig3RingSpectrum(b *testing.B) {
	ring := photonics.PaperModulator(1536.0)
	var off, on []photonics.SpectrumPoint
	for i := 0; i < b.N; i++ {
		off = ring.ThroughSpectrum(1535.4, 1536.4, 401, false)
		on = ring.ThroughSpectrum(1535.4, 1536.4, 401, true)
	}
	printOnce("Fig 3 — MR optical transmission (ON/OFF)", func() {
		toSeries := func(name string, pts []photonics.SpectrumPoint) report.Series {
			s := report.Series{Name: name}
			for _, p := range pts {
				s.X = append(s.X, p.LambdaNM)
				s.Y = append(s.Y, p.ThroughDB)
			}
			return s
		}
		_ = report.ASCIIPlot(os.Stdout, fmt.Sprintf("ER at signal λ: %.2f dB (paper: 6.9)", ring.ExtinctionRatioDB()),
			[]report.Series{toSeries("ON", on), toSeries("OFF", off)},
			report.PlotOptions{Width: 72, Height: 16, XLabel: "λ nm", YLabel: "T dB"})
	})
}

// BenchmarkFig4LaserPower regenerates Figure 4: Plaser versus OPlaser at
// 25% chip activity.
func BenchmarkFig4LaserPower(b *testing.B) {
	laser := photonics.PaperLaser()
	var curve []photonics.CurvePoint
	var err error
	for i := 0; i < b.N; i++ {
		curve, err = laser.Curve(800e-6, 81, 0.25)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Fig 4 — Plaser vs OPlaser (25% activity)", func() {
		s := report.Series{Name: "Plaser mW"}
		for _, p := range curve {
			s.X = append(s.X, p.OpticalW*1e6)
			s.Y = append(s.Y, p.ElectricalW*1e3)
			s.Mask = append(s.Mask, p.Feasible)
		}
		_ = report.ASCIIPlot(os.Stdout, "linear to ≈500 µW, thermal blow-up beyond; rated cap 700 µW",
			[]report.Series{s}, report.PlotOptions{Width: 72, Height: 16, XLabel: "OPlaser µW", YLabel: "Plaser mW"})
		t := report.NewTable("samples", "OPlaser µW", "Plaser mW")
		for i := 0; i < len(curve); i += 10 {
			p := curve[i]
			if p.Feasible {
				t.AddRowf(fmt.Sprintf("%.0f", p.OpticalW*1e6), fmt.Sprintf("%.2f", p.ElectricalW*1e3))
			} else {
				t.AddRowf(fmt.Sprintf("%.0f", p.OpticalW*1e6), "infeasible")
			}
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkFig5LaserPowerVsBER regenerates Figure 5: Plaser for each scheme
// across target BER 1e-12 … 1e-3.
func BenchmarkFig5LaserPowerVsBER(b *testing.B) {
	cfg := DefaultConfig()
	var pts []core.Fig5Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = Fig5With(context.Background(), reference(b, &cfg), fig5Grid())
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Fig 5 — Plaser vs target BER", func() {
		names := []string{"w/o ECC", "H(71,64)", "H(7,4)"}
		series := make([]report.Series, len(names))
		for i, n := range names {
			series[i] = report.Series{Name: n + " mW"}
		}
		for _, p := range pts {
			for i, n := range names {
				if p.Scheme != n {
					continue
				}
				series[i].X = append(series[i].X, p.TargetBER)
				series[i].Y = append(series[i].Y, p.LaserPowerW*1e3)
				series[i].Mask = append(series[i].Mask, p.Feasible)
			}
		}
		_ = report.RenderColumns(os.Stdout,
			"paper anchors @1e-11: 14.35 / 7.12 / 6.64 mW; w/o ECC infeasible at 1e-12",
			"BER", "%.0e", "%.2f", series)
		_ = report.ASCIIPlot(os.Stdout, "", series,
			report.PlotOptions{Width: 72, Height: 16, LogX: true, XLabel: "BER", YLabel: "Plaser mW"})
	})
}

// BenchmarkFig6aPowerBreakdown regenerates Figure 6a: the channel power
// decomposition per wavelength at BER 1e-11.
func BenchmarkFig6aPowerBreakdown(b *testing.B) {
	cfg := DefaultConfig()
	var bars []core.Fig6aBar
	var err error
	for i := 0; i < b.N; i++ {
		bars, err = Fig6aWith(context.Background(), reference(b, &cfg), 1e-11)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Fig 6a — Pchannel breakdown @ BER 1e-11", func() {
		t := report.NewTable("paper: Plaser 14.35/7.12/6.64 mW, −45% H(71,64), −49% H(7,4)",
			"scheme", "Penc+dec µW", "PMR mW", "Plaser mW", "total mW", "Δ vs uncoded", "CT", "pJ/bit")
		for _, bar := range bars {
			t.AddRowf(bar.Scheme,
				fmt.Sprintf("%.2f", bar.InterfaceW*1e6),
				fmt.Sprintf("%.2f", bar.ModulatorW*1e3),
				fmt.Sprintf("%.2f", bar.LaserW*1e3),
				fmt.Sprintf("%.2f", bar.TotalW*1e3),
				fmt.Sprintf("%+.1f%%", -bar.ReductionVsBase*100),
				fmt.Sprintf("%.3f", bar.CT),
				fmt.Sprintf("%.2f", bar.EnergyPerBitPJ))
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkFig6bParetoTradeoff regenerates Figure 6b: the (CT, Pchannel)
// plane for BER 1e-6 … 1e-12 with Pareto membership.
func BenchmarkFig6bParetoTradeoff(b *testing.B) {
	cfg := DefaultConfig()
	bers := []float64{1e-6, 1e-8, 1e-10, 1e-12}
	var pts []core.Fig6bPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = TradeoffPlaneWith(context.Background(), reference(b, &cfg), ecc.PaperSchemes(), bers)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Fig 6b — power/performance trade-off", func() {
		t := report.NewTable("paper: for each BER all schemes are Pareto-optimal",
			"BER", "scheme", "CT", "Pchannel mW", "on Pareto front")
		for _, p := range pts {
			power := "-"
			pareto := "infeasible"
			if p.Feasible {
				power = fmt.Sprintf("%.2f", p.ChannelPowerW*1e3)
				pareto = fmt.Sprintf("%v", p.OnPareto)
			}
			t.AddRowf(fmt.Sprintf("%.0e", p.TargetBER), p.Scheme,
				fmt.Sprintf("%.3f", p.CT), power, pareto)
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkHeadlineSavings regenerates the Section V-C prose numbers:
// laser share, per-waveguide power, interconnect saving, energy/bit.
func BenchmarkHeadlineSavings(b *testing.B) {
	cfg := DefaultConfig()
	var h core.Headline
	var err error
	for i := 0; i < b.N; i++ {
		h, err = HeadlineWith(context.Background(), reference(b, &cfg), &cfg, 1e-11)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Section V-C — headline numbers", func() {
		t := report.NewTable("paper: laser 92%, waveguide 251→136 mW, saving ≈22 W, H(71,64) best pJ/bit",
			"metric", "model", "paper")
		t.AddRowf("laser share of uncoded channel", fmt.Sprintf("%.1f%%", h.LaserShareUncoded*100), "92%")
		t.AddRowf("channel reduction H(71,64)", fmt.Sprintf("%.1f%%", h.ChannelReduction["H(71,64)"]*100), "45%")
		t.AddRowf("channel reduction H(7,4)", fmt.Sprintf("%.1f%%", h.ChannelReduction["H(7,4)"]*100), "49%")
		t.AddRowf("per-waveguide power, uncoded", fmt.Sprintf("%.0f mW", h.PerWaveguideW["w/o ECC"]*1e3), "251 mW")
		t.AddRowf("per-waveguide power, H(71,64)", fmt.Sprintf("%.0f mW", h.PerWaveguideW["H(71,64)"]*1e3), "136 mW")
		t.AddRowf("interconnect saving (12 ONI × 16 wg)", fmt.Sprintf("%.1f W", h.InterconnectSavingW), "≈22 W")
		t.AddRowf("best energy/bit scheme", h.BestEnergyScheme, "H(71,64)")
		for _, name := range []string{"w/o ECC", "H(71,64)", "H(7,4)"} {
			paper := map[string]string{"w/o ECC": "3.92", "H(71,64)": "3.76", "H(7,4)": "5.58"}[name]
			t.AddRowf("energy/bit "+name, fmt.Sprintf("%.2f pJ/b", h.EnergyPerBitPJ[name]), paper+" pJ/b (see EXPERIMENTS.md)")
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkAblationActivity sweeps the chip activity of the laser thermal
// model (Fig. 4 extension): hotter electrical layers shrink the feasible
// optical range.
func BenchmarkAblationActivity(b *testing.B) {
	laser := photonics.PaperLaser()
	activities := []float64{0, 0.25, 0.5, 0.75}
	var curves [][]photonics.CurvePoint
	for i := 0; i < b.N; i++ {
		curves = curves[:0]
		for _, a := range activities {
			c, err := laser.Curve(800e-6, 41, a)
			if err != nil {
				b.Fatal(err)
			}
			curves = append(curves, c)
		}
	}
	printOnce("Ablation A1 — laser curve vs chip activity", func() {
		t := report.NewTable("thermal rollover shrinks with activity",
			"activity", "max optical µW", "Plaser @300µW mW")
		for i, a := range activities {
			maxOp, err := laser.MaxOpticalW(a)
			if err != nil {
				b.Fatal(err)
			}
			var at300 string
			for _, p := range curves[i] {
				if p.Feasible && p.OpticalW >= 300e-6 {
					at300 = fmt.Sprintf("%.2f", p.ElectricalW*1e3)
					break
				}
			}
			t.AddRowf(fmt.Sprintf("%.0f%%", a*100), fmt.Sprintf("%.0f", maxOp*1e6), at300)
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkAblationDACResolution sweeps the laser controller resolution
// (A2): coarser DACs waste electrical power by over-provisioning OPlaser.
func BenchmarkAblationDACResolution(b *testing.B) {
	cfg := DefaultConfig()
	bits := []int{2, 3, 4, 6, 8}
	bers := []float64{1e-6, 1e-8, 1e-10, 1e-11}
	type row struct {
		bits  int
		waste float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, nb := range bits {
			m, err := manager.NewWithEvaluator(&cfg, ecc.PaperSchemes(), manager.DAC{Bits: nb, MaxOpticalW: 700e-6}, reference(b, &cfg))
			if err != nil {
				b.Fatal(err)
			}
			var waste float64
			for _, ber := range bers {
				d, err := m.Configure(manager.Requirements{TargetBER: ber, Objective: manager.MinPower})
				if err != nil {
					b.Fatal(err)
				}
				waste += d.QuantizationWasteW
			}
			rows = append(rows, row{bits: nb, waste: waste / float64(len(bers))})
		}
	}
	printOnce("Ablation A2 — laser DAC resolution", func() {
		t := report.NewTable("mean electrical power wasted to quantization (min-power policy)",
			"DAC bits", "step µW", "mean waste mW")
		for _, r := range rows {
			d := manager.DAC{Bits: r.bits, MaxOpticalW: 700e-6}
			t.AddRowf(r.bits, fmt.Sprintf("%.1f", d.StepW()*1e6), fmt.Sprintf("%.3f", r.waste*1e3))
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkAblationCodeFamilies puts the extension codes on the Fig. 6b
// plane (A3): double-error-correcting BCH dominates H(7,4).
func BenchmarkAblationCodeFamilies(b *testing.B) {
	cfg := DefaultConfig()
	var pts []core.Fig6bPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = TradeoffPlaneWith(context.Background(), reference(b, &cfg), ecc.ExtendedSchemes(), []float64{1e-9})
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Ablation A3 — extended code families @ BER 1e-9", func() {
		t := report.NewTable("BCH(31,21) dominates the paper's H(7,4): less time AND less power",
			"scheme", "CT", "Pchannel mW", "on Pareto front")
		for _, p := range pts {
			t.AddRowf(p.Scheme, fmt.Sprintf("%.3f", p.CT),
				fmt.Sprintf("%.2f", p.ChannelPowerW*1e3), fmt.Sprintf("%v", p.OnPareto))
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkAblationCrosstalk disables inter-channel crosstalk (A4) by
// narrowing the drop filters until the Lorentzian tails vanish, isolating
// the OPcrosstalk term of Eq. 4.
func BenchmarkAblationCrosstalk(b *testing.B) {
	withXT := DefaultConfig()
	noXT := DefaultConfig()
	noXT.Channel.DropFilter.FWHMNM = 0.001 // tails ≈ 0 ⇒ χ ≈ 0
	type pair struct{ with, without core.Evaluation }
	results := map[string]pair{}
	with, without := compile(b, &withXT), compile(b, &noXT)
	for i := 0; i < b.N; i++ {
		for _, code := range ecc.PaperSchemes() {
			a, err := with.Evaluate(code, 1e-11)
			if err != nil {
				b.Fatal(err)
			}
			c, err := without.Evaluate(code, 1e-11)
			if err != nil {
				b.Fatal(err)
			}
			results[code.Name()] = pair{with: a, without: c}
		}
	}
	printOnce("Ablation A4 — crosstalk contribution @ BER 1e-11", func() {
		t := report.NewTable("worst-case χ ≈ 1.2% of received power",
			"scheme", "OPlaser µW (χ on)", "OPlaser µW (χ≈0)", "penalty %")
		for _, name := range []string{"w/o ECC", "H(71,64)", "H(7,4)"} {
			p := results[name]
			pen := (p.with.Op.LaserOpticalW/p.without.Op.LaserOpticalW - 1) * 100
			t.AddRowf(name,
				fmt.Sprintf("%.1f", p.with.Op.LaserOpticalW*1e6),
				fmt.Sprintf("%.1f", p.without.Op.LaserOpticalW*1e6),
				fmt.Sprintf("%.2f", pen))
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkAblationChannelSpacing sweeps the WDM grid pitch (A7): denser
// combs raise the Lorentzian crosstalk and the parked-ring tails, pushing
// the laser budget up until the eye closes.
func BenchmarkAblationChannelSpacing(b *testing.B) {
	type row struct {
		spacingNM float64
		chi       float64
		budgetDB  float64
		opUW      float64
		feasible  bool
	}
	var rows []row
	spacings := []float64{0.4, 0.6, 0.8, 1.2, 1.6}
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, sp := range spacings {
			cfg := DefaultConfig()
			cfg.Channel.Grid.SpacingNM = sp
			chi, _, err := cfg.Channel.WorstCrosstalk()
			if err != nil {
				b.Fatal(err)
			}
			ev, err := compile(b, &cfg).Evaluate(ecc.MustUncoded64(), 1e-11)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{
				spacingNM: sp,
				chi:       chi,
				budgetDB:  ev.Op.BudgetDB,
				opUW:      ev.Op.LaserOpticalW * 1e6,
				feasible:  ev.Feasible,
			})
		}
	}
	printOnce("Ablation A7 — WDM channel spacing (uncoded @ 1e-11)", func() {
		t := report.NewTable("denser grids pay in crosstalk and parked-ring loss",
			"spacing nm", "worst χ", "budget dB", "OPlaser µW", "feasible")
		for _, r := range rows {
			t.AddRowf(fmt.Sprintf("%.1f", r.spacingNM), fmt.Sprintf("%.4f", r.chi),
				fmt.Sprintf("%.2f", r.budgetDB), fmt.Sprintf("%.1f", r.opUW),
				fmt.Sprintf("%v", r.feasible))
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkBoundaryBER traces the laser-limited reachable-BER boundary per
// scheme — the continuous form of the paper's feasibility cliff.
func BenchmarkBoundaryBER(b *testing.B) {
	cfg := DefaultConfig()
	type row struct {
		scheme   string
		boundary float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, code := range ecc.PaperSchemes() {
			bound, err := cfg.TightestBER(code)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{scheme: code.Name(), boundary: bound})
		}
	}
	printOnce("Boundary — tightest reachable BER per scheme", func() {
		t := report.NewTable("paper: 1e-11 feasible w/o ECC, 1e-12 not; codes remove the ceiling",
			"scheme", "boundary BER")
		for _, r := range rows {
			note := fmt.Sprintf("%.2e", r.boundary)
			if r.boundary <= 1e-18 {
				note += " (search floor)"
			}
			t.AddRowf(r.scheme, note)
		}
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkMonteCarloValidation cross-checks the analytic BER models
// against simulation (A5): plain Monte-Carlo at moderate SNR, importance
// sampling in the deep tail.
func BenchmarkMonteCarloValidation(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < b.N; i++ {
		if _, err := noise.MonteCarloRawBER(4, 20000, rng); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Validation A5 — Monte-Carlo vs analytic BER", func() {
		t := report.NewTable("raw channel (Eq. 3) and coded (Eq. 2) models vs simulation",
			"experiment", "analytic", "simulated", "95% CI")
		r := rand.New(rand.NewSource(7))
		for _, snr := range []float64{2, 4, 6} {
			res, err := noise.MonteCarloRawBER(snr, 2_000_000, r)
			if err != nil {
				b.Fatal(err)
			}
			t.AddRowf(fmt.Sprintf("raw BER @ SNR %.0f", snr),
				fmt.Sprintf("%.3e", res.Expected), fmt.Sprintf("%.3e", res.BER),
				fmt.Sprintf("[%.2e, %.2e]", res.LowCI, res.HighCI))
		}
		// A hard-decision OOK channel at SNR 2 is a BSC at Eq. 3's raw BER.
		for _, c := range []ecc.Code{ecc.MustHamming74(), ecc.MustHamming7164()} {
			res, err := mc.Run(context.Background(), c, ecc.RawBERFromSNR(2), mc.Options{
				Frames: 100000, Seed: r.Int63(), Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRowf(fmt.Sprintf("coded BER %s @ SNR 2", c.Name()),
				fmt.Sprintf("%.3e", res.ExpectedBER), fmt.Sprintf("%.3e", res.BER),
				fmt.Sprintf("[%.2e, %.2e]", res.BERLow, res.BERHigh))
		}
		is, err := noise.ImportanceSampledRawBER(22.5, 2_000_000, 3.0, r)
		if err != nil {
			b.Fatal(err)
		}
		t.AddRowf("raw BER @ SNR 22.5 (importance sampled)",
			fmt.Sprintf("%.3e", is.Expected), fmt.Sprintf("%.3e", is.BER),
			fmt.Sprintf("[%.2e, %.2e]", is.LowCI, is.HighCI))
		_ = t.Render(os.Stdout)
	})
}

// BenchmarkWaterfallCurves plots the classic coding waterfall: post-decoding
// BER versus SNR for each scheme (analytic Eq. 2/3 chain), the view that
// makes the coding gain visually obvious.
func BenchmarkWaterfallCurves(b *testing.B) {
	snrs := mathx.Linspace(2, 26, 13)
	var series []report.Series
	for i := 0; i < b.N; i++ {
		series = series[:0]
		for _, code := range ecc.PaperSchemes() {
			s := report.Series{Name: code.Name()}
			for _, snr := range snrs {
				p := ecc.RawBERFromSNR(snr)
				post := ecc.PlanFor(code).PostDecodeBER(p)
				s.X = append(s.X, snr)
				s.Y = append(s.Y, math.Log10(math.Max(post, 1e-30)))
			}
			series = append(series, s)
		}
	}
	printOnce("Waterfall — log10(BER) vs SNR per scheme", func() {
		_ = report.RenderColumns(os.Stdout, "coding gain read horizontally at fixed BER",
			"SNR", "%.0f", "%.1f", series)
		_ = report.ASCIIPlot(os.Stdout, "", series,
			report.PlotOptions{Width: 72, Height: 16, XLabel: "SNR", YLabel: "log10 BER"})
	})
}

// BenchmarkEnergyPerBitVsBER extends the Fig. 6a energy annotation into
// full curves: energy per payload bit across the BER axis per scheme.
func BenchmarkEnergyPerBitVsBER(b *testing.B) {
	cfg := DefaultConfig()
	bers := mathx.Logspace(1e-12, 1e-4, 9)
	var pts []core.EnergyPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = EnergySweepWith(context.Background(), reference(b, &cfg), &cfg, ecc.PaperSchemes(), bers)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Energy per bit vs target BER", func() {
		names := []string{"w/o ECC", "H(71,64)", "H(7,4)"}
		series := make([]report.Series, len(names))
		for i, n := range names {
			series[i] = report.Series{Name: n + " pJ/b"}
		}
		for _, p := range pts {
			for i, n := range names {
				if p.Scheme != n {
					continue
				}
				series[i].X = append(series[i].X, p.TargetBER)
				series[i].Y = append(series[i].Y, p.EnergyPerBitJ*1e12)
				series[i].Mask = append(series[i].Mask, p.Feasible)
			}
		}
		_ = report.RenderColumns(os.Stdout, "H(71,64) stays the most efficient across the sweep",
			"BER", "%.0e", "%.2f", series)
	})
}

// BenchmarkNetworkSimulation runs the traffic extension (A6): adaptive
// manager versus static schemes, with and without idle-laser shutdown.
func BenchmarkNetworkSimulation(b *testing.B) {
	base := netsim.DefaultConfig()
	base.Messages = 3000
	for i := 0; i < b.N; i++ {
		if _, err := netsim.RunCtx(context.Background(), base, reference(b, &base.Link)); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Extension A6 — application traffic on the interconnect", func() {
		t := report.NewTable("12 ONIs, 4 KiB msgs, BER 1e-11, uniform load 0.4 (10k msgs)",
			"policy", "mean lat µs", "p95 lat µs", "misses", "energy/bit pJ", "scheme mix")
		run := func(name string, mutate func(*netsim.Config)) {
			cfg := netsim.DefaultConfig()
			cfg.Messages = 10000
			cfg.DeadlineSlack = 1.4
			mutate(&cfg)
			res, err := netsim.RunCtx(context.Background(), cfg, reference(b, &cfg.Link))
			if err != nil {
				b.Fatal(err)
			}
			t.AddRowf(name,
				fmt.Sprintf("%.3f", res.MeanLatencySec*1e6),
				fmt.Sprintf("%.3f", res.P95LatencySec*1e6),
				res.DeadlineMisses,
				fmt.Sprintf("%.2f", res.EnergyPerBitJ*1e12),
				fmt.Sprintf("%v", res.SchemeUse))
		}
		run("adaptive (deadline-aware)", func(c *netsim.Config) { c.AdaptToDeadline = true })
		run("static min-energy", func(c *netsim.Config) { c.Objective = manager.MinEnergy })
		run("static min-power", func(c *netsim.Config) { c.Objective = manager.MinPower })
		run("static min-latency", func(c *netsim.Config) { c.Objective = manager.MinLatency })
		run("adaptive + idle lasers off [9]", func(c *netsim.Config) {
			c.AdaptToDeadline = true
			c.IdleLaserOff = true
		})
		_ = t.Render(os.Stdout)
	})
}
