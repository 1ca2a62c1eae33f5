// Command onocnet evaluates whole network-on-chip topologies built from the
// paper's calibrated MWSR channel: per-link scheme/laser decisions, traffic
// loads, saturation throughput, latency percentiles and the network energy
// budget — analytically, or cross-validated against the network-scale
// discrete-event simulator with -sim.
//
//	onocnet -topology mesh -tiles 64 -ber 1e-11
//	onocnet -topology crossbar -tiles 16 -pattern hotspot -hotspot 3
//	onocnet -topology ring -tiles 8 -sweep 1e-12,1e-9 -points 7
//	onocnet -topology bus -tiles 12 -links        # per-link detail
//	onocnet -topology mesh -tiles 16 -sim         # analytic vs DES
//	onocnet -remote http://127.0.0.1:9137 -tiles 64   # solve on an onocd daemon
//
// Each invocation is one onocd.NoCRequest, run on an in-process engine or,
// with -remote, on the daemon (sharing its memo cache across invocations
// and clients); only the topology geometry and the rendered tables are
// computed locally, from the backend's own link configuration.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"photonoc"

	"photonoc/internal/manager"
	"photonoc/internal/mathx"
	"photonoc/internal/onocd"
	"photonoc/internal/report"
)

// errFlagParse signals main that the FlagSet already printed the
// diagnostic (and usage), so it must not be reported a second time.
var errFlagParse = errors.New("onocnet: flag parse error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "onocnet: %v\n", err)
		}
		os.Exit(1)
	}
}

// run parses the flags and executes one invocation against out. It is the
// whole CLI behind main, factored out so the golden-file tests can pin the
// rendered tables byte for byte.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("onocnet", flag.ContinueOnError)
	topology := fs.String("topology", "mesh", "bus|crossbar|ring|mesh")
	tiles := fs.Int("tiles", 16, "network tiles")
	columns := fs.Int("columns", 0, "mesh columns (0 = most square)")
	pitch := fs.Float64("pitch", 0, "tile pitch in cm (0 = spread the base waveguide)")
	ber := fs.Float64("ber", 1e-11, "target BER")
	sweep := fs.String("sweep", "", "BER sweep range lo,hi (overrides -ber)")
	points := fs.Int("points", 5, "sweep points")
	pattern := fs.String("pattern", "uniform", "uniform|hotspot|permutation|streaming")
	hotspot := fs.Int("hotspot", 0, "hotspot destination tile")
	hotFrac := fs.Float64("hotfrac", 0.30, "hotspot traffic fraction in (0,1)")
	objective := fs.String("objective", "min-energy", "min-power|min-energy|min-latency")
	rate := fs.Float64("rate", 0, "injection rate per tile in bits/s (0 = half of saturation)")
	useDAC := fs.Bool("dac", false, "quantize laser settings through the paper's 6-bit DAC")
	perLink := fs.Bool("links", false, "print the per-link table")
	remote := fs.String("remote", "", "base URL of an onocd daemon to evaluate against instead of the in-process engine")
	sim := fs.Bool("sim", false, "run the discrete-event simulator and print it against the analytic aggregates")
	messages := fs.Int("messages", 0, "messages to simulate with -sim (0 = 20000)")
	seed := fs.Int64("seed", 1, "simulation seed for -sim")
	qmax := fs.Int("qmax", 0, "per-link queue bound for -sim (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, a successful exit
		}
		return errFlagParse
	}

	// Validate everything derivable from the flags alone before building
	// anything or writing any output, so a failed invocation never emits a
	// plausible-looking partial result.
	kind, err := photonoc.ParseNoCKind(*topology)
	if err != nil {
		return err
	}
	pat, err := photonoc.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	if *messages < 0 {
		return fmt.Errorf("-messages %d must be non-negative", *messages)
	}
	if *qmax < 0 {
		return fmt.Errorf("-qmax %d must be non-negative", *qmax)
	}
	if *rate < 0 || math.IsNaN(*rate) || math.IsInf(*rate, 0) {
		return fmt.Errorf("-rate %g must be a non-negative finite number", *rate)
	}
	var sweepBERs []float64
	if *sweep != "" {
		if *sim {
			return fmt.Errorf("-sim simulates one operating point and cannot be combined with -sweep (drop one of the two)")
		}
		lo, hi, perr := parseRange(*sweep)
		if perr != nil {
			return perr
		}
		if lo <= 0 || hi <= 0 || math.IsNaN(lo) || math.IsNaN(hi) {
			return fmt.Errorf("sweep bounds %g,%g must be positive", lo, hi)
		}
		if *points < 2 {
			return fmt.Errorf("-points %d: a sweep needs at least 2 points", *points)
		}
		sweepBERs = mathx.Logspace(lo, hi, *points)
	}
	if _, err := manager.ParseObjective(*objective); err != nil {
		return err
	}

	traffic, err := pat.Matrix(*tiles, *hotspot, *hotFrac)
	if err != nil {
		return err
	}

	be, conf, banner, err := onocd.Open(ctx, *remote)
	if err != nil {
		return err
	}
	// The geometry is built here from the backend's own link configuration,
	// so the header and the per-link table describe exactly the network the
	// backend evaluates.
	net, err := photonoc.BuildNoC(photonoc.NoCConfig{Kind: kind, Tiles: *tiles, Columns: *columns, TilePitchCM: *pitch, Base: conf.Config})
	if err != nil {
		return fmt.Errorf("%w: %v", photonoc.ErrInvalidConfig, err)
	}
	fmt.Fprint(out, banner)
	fmt.Fprintf(out, "topology %s: %d tiles, %d links, %d waveguides (%s traffic)\n",
		kind, net.Tiles(), net.NumLinks(), len(net.Waveguides()), pat)

	req := onocd.NoCRequest{
		Topology:       kind.String(),
		Tiles:          *tiles,
		Columns:        *columns,
		TilePitchCM:    *pitch,
		Objective:      *objective,
		Traffic:        traffic,
		RateBitsPerSec: *rate,
		UseDAC:         *useDAC,
	}
	if sweepBERs != nil {
		req.TargetBERs = sweepBERs
		t := report.NewTable("Network sweep",
			"BER", "feasible", "schemes", "sat Gb/s/tile", "pJ/bit", "p50 µs", "p99 µs")
		if err := be.NetworkSweep(ctx, req, func(_ int, _ float64, res photonoc.NoCResult) error {
			addSweepRow(t, res)
			return nil
		}); err != nil {
			return err
		}
		return t.Render(out)
	}

	req.TargetBER = *ber
	res, err := be.NetworkEval(ctx, req)
	if err != nil {
		return err
	}
	if err := printResult(out, net, res, *perLink); err != nil {
		return err
	}
	if !*sim {
		return nil
	}
	req.Messages, req.Seed, req.MaxQueueDepth = *messages, *seed, *qmax
	simRes, err := be.NetworkSim(ctx, req)
	if err != nil {
		return err
	}
	return printSim(out, res, simRes)
}

// parseRange splits "lo,hi" into its bounds.
func parseRange(s string) (lo, hi float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("sweep range %q: want lo,hi", s)
	}
	if lo, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return 0, 0, fmt.Errorf("sweep bound %q: %v", parts[0], err)
	}
	if hi, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return 0, 0, fmt.Errorf("sweep bound %q: %v", parts[1], err)
	}
	return lo, hi, nil
}

// addSweepRow renders one point of the BER sweep.
func addSweepRow(t *report.Table, res photonoc.NoCResult) {
	if !res.Feasible {
		t.AddRowf(fmt.Sprintf("%.1e", res.TargetBER), "no", res.InfeasibleReason, "-", "-", "-", "-")
		return
	}
	t.AddRowf(fmt.Sprintf("%.1e", res.TargetBER), "yes", schemeMix(res.SchemeUse),
		fmt.Sprintf("%.2f", res.SaturationInjectionBitsPerSec/1e9),
		fmt.Sprintf("%.2f", res.EnergyPerBitJ*1e12),
		fmt.Sprintf("%.3f", res.P50LatencySec*1e6),
		fmt.Sprintf("%.3f", res.P99LatencySec*1e6))
}

// schemeMix formats per-scheme link counts.
func schemeMix(use map[string]int) string {
	parts := make([]string, 0, len(use))
	for name, count := range use {
		parts = append(parts, fmt.Sprintf("%s×%d", name, count))
	}
	if len(parts) == 0 {
		return "-"
	}
	sort.Strings(parts) // deterministic order across map iterations
	return strings.Join(parts, " ")
}

// printResult renders one network operating point.
func printResult(out io.Writer, net *photonoc.NoC, res photonoc.NoCResult, perLink bool) error {
	if !res.Feasible {
		fmt.Fprintf(out, "infeasible at BER %.1e: %s\n", res.TargetBER, res.InfeasibleReason)
		return nil
	}
	t := report.NewTable(fmt.Sprintf("Network operating point @ BER %.0e", res.TargetBER), "metric", "value")
	t.AddRowf("scheme mix", schemeMix(res.SchemeUse))
	t.AddRowf("saturation injection", fmt.Sprintf("%.2f Gb/s per tile", res.SaturationInjectionBitsPerSec/1e9))
	t.AddRowf("evaluated injection", fmt.Sprintf("%.2f Gb/s per tile", res.InjectionRateBitsPerSec/1e9))
	t.AddRowf("delivered payload", fmt.Sprintf("%.1f Gb/s", res.DeliveredBitsPerSec/1e9))
	t.AddRowf("laser power", fmt.Sprintf("%.1f mW", res.LaserPowerW*1e3))
	t.AddRowf("modulator power", fmt.Sprintf("%.1f mW", res.ModulatorPowerW*1e3))
	t.AddRowf("interface power", fmt.Sprintf("%.3f mW", res.InterfacePowerW*1e3))
	t.AddRowf("network power", fmt.Sprintf("%.1f mW", res.NetworkPowerW*1e3))
	t.AddRowf("energy per bit", fmt.Sprintf("%.2f pJ (active %.2f pJ)", res.EnergyPerBitJ*1e12, res.ActiveEnergyPerBitJ*1e12))
	t.AddRowf("latency mean / p50 / p95 / p99", fmt.Sprintf("%.3f / %.3f / %.3f / %.3f µs",
		res.MeanLatencySec*1e6, res.P50LatencySec*1e6, res.P95LatencySec*1e6, res.P99LatencySec*1e6))
	if res.Saturated {
		t.AddRowf("saturated", "yes — queue waits unbounded at this rate")
	}
	if err := t.Render(out); err != nil {
		return err
	}
	if !perLink {
		return nil
	}
	links := net.Links()
	lt := report.NewTable("Per-link detail", "link", "reader", "λ", "len cm", "scheme", "Plaser µW", "util", "cap Gb/s")
	for i, d := range res.Decisions {
		load := res.Loads[i]
		l := links[i]
		lt.AddRowf(fmt.Sprintf("%d", d.Link),
			fmt.Sprintf("%d", l.Reader),
			fmt.Sprintf("%d", len(l.Lambdas)),
			fmt.Sprintf("%.2f", l.LengthCM),
			d.Eval.Code.Name(),
			fmt.Sprintf("%.1f", d.LaserPowerW*1e6),
			fmt.Sprintf("%.2f", load.Utilization),
			fmt.Sprintf("%.1f", load.CapacityBitsPerSec/1e9))
	}
	return lt.Render(out)
}

// printSim renders the discrete-event run next to the analytic aggregates
// of the same operating point.
func printSim(out io.Writer, ana photonoc.NoCResult, sim photonoc.NoCSimResults) error {
	t := report.NewTable(fmt.Sprintf("Analytic vs simulated @ %.2f Gb/s per tile", ana.InjectionRateBitsPerSec/1e9),
		"metric", "analytic", "simulated")
	anaMaxUtil, anaMeanUtil := 0.0, 0.0
	for _, l := range ana.Loads {
		anaMeanUtil += l.Utilization / float64(len(ana.Loads))
		if l.Utilization > anaMaxUtil {
			anaMaxUtil = l.Utilization
		}
	}
	t.AddRowf("scheme mix", schemeMix(ana.SchemeUse), schemeMix(sim.SchemeUse))
	t.AddRowf("mean link utilization", fmt.Sprintf("%.3f", anaMeanUtil), fmt.Sprintf("%.3f", sim.MeanUtilization))
	t.AddRowf("max link utilization", fmt.Sprintf("%.3f", anaMaxUtil), fmt.Sprintf("%.3f", sim.MaxUtilization))
	t.AddRowf("mean latency", fmt.Sprintf("%.4f µs", ana.MeanLatencySec*1e6), fmt.Sprintf("%.4f µs", sim.MeanLatencySec*1e6))
	t.AddRowf("p50 latency", fmt.Sprintf("%.4f µs", ana.P50LatencySec*1e6), fmt.Sprintf("%.4f µs", sim.P50LatencySec*1e6))
	t.AddRowf("p99 latency", fmt.Sprintf("%.4f µs", ana.P99LatencySec*1e6), fmt.Sprintf("%.4f µs", sim.P99LatencySec*1e6))
	t.AddRowf("energy per bit", fmt.Sprintf("%.2f pJ", ana.EnergyPerBitJ*1e12), fmt.Sprintf("%.2f pJ", sim.EnergyPerBitJ*1e12))
	t.AddRowf("messages", "-", fmt.Sprintf("%d delivered / %d injected", sim.Messages, sim.Injected))
	if sim.Dropped > 0 {
		t.AddRowf("dropped", "-", fmt.Sprintf("%d (bounded queues)", sim.Dropped))
	}
	maxDepth := 0
	for _, l := range sim.PerLink {
		if l.MaxQueueDepth > maxDepth {
			maxDepth = l.MaxQueueDepth
		}
	}
	t.AddRowf("max queue depth", "-", fmt.Sprintf("%d", maxDepth))
	return t.Render(out)
}
