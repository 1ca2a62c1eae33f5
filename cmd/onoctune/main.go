// Command onoctune runs design-space autotuner campaigns: a deterministic
// multi-objective particle swarm over the joint NoC design space (topology
// family, tile count, mesh shape, wavelength grid, scheme-roster subset,
// DAC resolution), evaluated generation-by-generation as Engine.NetworkBatchEach
// populations and archived as a Pareto front over energy per bit, p99
// latency and saturation throughput.
//
//	onoctune -ber 1e-11 -particles 8 -generations 10 -seed 7
//	onoctune -kinds bus,ring -tiles 8,16 -dacbits 0,6
//	onoctune -pattern hotspot -hotspot 3 -json
//	onoctune -remote http://127.0.0.1:9137 -ber 1e-11
//
// Campaigns are deterministic from -seed: the same flags produce the
// identical front regardless of -workers, and with -remote the daemon
// streams back exactly the campaign a local run would produce (the
// "remote engine" banner aside, output is byte-identical).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"photonoc"

	"photonoc/internal/onocd"
	"photonoc/internal/report"
	"photonoc/internal/tune"
)

// errFlagParse signals main that the FlagSet already printed the
// diagnostic (and usage), so it must not be reported a second time.
var errFlagParse = errors.New("onoctune: flag parse error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "onoctune: %v\n", err)
		}
		os.Exit(1)
	}
}

// run parses the flags and executes one campaign against out. It is the
// whole CLI behind main, factored out so the golden-file tests can pin the
// rendered tables byte for byte.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("onoctune", flag.ContinueOnError)
	ber := fs.Float64("ber", 1e-11, "target post-decoding BER")
	seed := fs.Int64("seed", 1, "campaign root seed")
	particles := fs.Int("particles", 0, "swarm size (0 = 16)")
	generations := fs.Int("generations", 0, "campaign length (0 = 20)")
	archive := fs.Int("archive", 0, "Pareto archive capacity (0 = 64)")
	kinds := fs.String("kinds", "", "comma-separated topology families (default bus,ring,mesh)")
	tiles := fs.String("tiles", "", "comma-separated tile counts (default 8,12,16)")
	wavelengths := fs.String("wavelengths", "", "comma-separated wavelength-grid sizes, 0 = the engine's grid (default 0)")
	dacbits := fs.String("dacbits", "", "comma-separated DAC resolutions, 0 = exact analytic settings (default 0,4,6,8)")
	rosters := fs.String("rosters", "", "roster subsets: scheme names ';'-separated within a roster, '|' between rosters (default: full roster plus each single scheme)")
	pattern := fs.String("pattern", "uniform", "uniform|hotspot|permutation|streaming")
	hotspot := fs.Int("hotspot", 0, "hotspot destination tile")
	hotFrac := fs.Float64("hotfrac", 0.30, "hotspot traffic fraction in (0,1)")
	objective := fs.String("objective", "min-energy", "min-power|min-energy|min-latency")
	msgBits := fs.Int("msgbits", 0, "message size in bits for the latency model (0 = 4 KiB)")
	workers := fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS; ignored with -remote)")
	remote := fs.String("remote", "", "base URL of an onocd daemon to run the campaign on instead of the in-process engine")
	jsonOut := fs.Bool("json", false, "emit the final front as JSON instead of tables (no progress lines)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, a successful exit
		}
		return errFlagParse
	}

	// The flags become one onocd.NoCTuneRequest. Its conversion and the
	// campaign's own option check validate it on either backend before the
	// first generation.
	pat, err := photonoc.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	kindList, err := splitList(*kinds)
	if err != nil {
		return fmt.Errorf("-kinds: %v", err)
	}
	tileList, err := intList(*tiles)
	if err != nil {
		return fmt.Errorf("-tiles: %v", err)
	}
	waveList, err := intList(*wavelengths)
	if err != nil {
		return fmt.Errorf("-wavelengths: %v", err)
	}
	dacList, err := intList(*dacbits)
	if err != nil {
		return fmt.Errorf("-dacbits: %v", err)
	}
	req := onocd.NoCTuneRequest{
		TargetBER:       *ber,
		Objective:       *objective,
		Pattern:         pat.String(),
		HotspotNode:     *hotspot,
		HotspotFraction: *hotFrac,
		MessageBits:     *msgBits,
		Seed:            *seed,
		Particles:       *particles,
		Generations:     *generations,
		ArchiveCap:      *archive,
		Kinds:           kindList,
		Tiles:           tileList,
		Wavelengths:     waveList,
		DACBits:         dacList,
		Rosters:         parseRosters(*rosters),
	}

	var engOpts []photonoc.Option
	if *workers != 0 {
		engOpts = append(engOpts, photonoc.WithWorkers(*workers))
	}
	be, _, banner, err := onocd.Open(ctx, *remote, engOpts...)
	if err != nil {
		return err
	}

	gens := *generations
	if gens == 0 {
		gens = tune.DefaultGenerations
	}
	parts := *particles
	if parts == 0 {
		parts = tune.DefaultParticles
	}
	res, err := be.Tune(ctx, req, func(gen int, front []tune.Point) error {
		if *jsonOut {
			return nil
		}
		if gen == 0 {
			// The banners wait for the first generation, so a campaign
			// the backend refuses leaves no output behind.
			fmt.Fprint(out, banner)
			fmt.Fprintf(out, "autotune: %d particles × %d generations, %s, BER %.0e (%s traffic, seed %d)\n",
				parts, gens, *objective, *ber, pat, *seed)
		}
		e, p99, sat := frontExtremes(front)
		fmt.Fprintf(out, "gen %*d/%d: front %2d | min %6.2f pJ/bit | min %7.3f µs p99 | max %7.2f Gb/s sat\n",
			len(strconv.Itoa(gens)), gen+1, gens, len(front), e*1e12, p99*1e6, sat/1e9)
		return nil
	})
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(onocd.TuneSummary(res))
	}
	return printFront(out, res)
}

// frontExtremes summarizes a front for the progress line: the best value
// of each objective across its points.
func frontExtremes(front []tune.Point) (minEnergy, minP99, maxSat float64) {
	minEnergy, minP99, maxSat = math.Inf(1), math.Inf(1), math.Inf(-1)
	for i := range front {
		minEnergy = math.Min(minEnergy, front[i].EnergyPerBitJ)
		minP99 = math.Min(minP99, front[i].P99LatencySec)
		maxSat = math.Max(maxSat, front[i].SaturationBitsPerSec)
	}
	return minEnergy, minP99, maxSat
}

// printFront renders the final Pareto front table.
func printFront(out io.Writer, res *tune.Result) error {
	t := report.NewTable(
		fmt.Sprintf("Pareto front: %d points (%d evaluated, %d infeasible)",
			len(res.Front), res.Evaluated, res.Infeasible),
		"design", "pJ/bit", "p99 µs", "sat Gb/s/tile")
	for i := range res.Front {
		p := &res.Front[i]
		t.AddRowf(p.Spec.String(),
			fmt.Sprintf("%.2f", p.EnergyPerBitJ*1e12),
			fmt.Sprintf("%.3f", p.P99LatencySec*1e6),
			fmt.Sprintf("%.2f", p.SaturationBitsPerSec/1e9))
	}
	return t.Render(out)
}

// splitList splits a comma-separated flag, rejecting empty entries.
func splitList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
		if parts[i] == "" {
			return nil, fmt.Errorf("empty entry in %q", s)
		}
	}
	return parts, nil
}

// intList parses a comma-separated integer list.
func intList(s string) ([]int, error) {
	parts, err := splitList(s)
	if err != nil || parts == nil {
		return nil, err
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("entry %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseRosters splits the -rosters flag: scheme names ';'-separated within
// a roster, '|' between rosters (scheme names contain commas). The names
// resolve against the extended registry in the request's conversion.
func parseRosters(s string) [][]string {
	if s == "" {
		return nil
	}
	var names [][]string
	for _, group := range strings.Split(s, "|") {
		var roster []string
		for _, n := range strings.Split(group, ";") {
			roster = append(roster, strings.TrimSpace(n))
		}
		names = append(names, roster)
	}
	return names
}
