// Command onocsim drives synthetic application traffic over the 12-ONI
// MWSR interconnect with the runtime energy/performance manager in the
// loop.
//
//	onocsim -pattern uniform -load 0.4 -messages 20000
//	onocsim -pattern hotspot -hotspot 3 -load 0.25
//	onocsim -pattern streaming -deadline 2.0 -adaptive -idleoff
//	onocsim -remote http://127.0.0.1:9137 -load 0.4
//
// The simulator adopts its backend's link configuration and scheme roster
// and solves the roster once through it: an in-process engine or, with
// -remote, the daemon's shared memo cache over HTTP. The per-transfer
// decisions and the event loop run locally either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"photonoc/internal/manager"
	"photonoc/internal/netsim"
	"photonoc/internal/onocd"
	"photonoc/internal/report"
)

// errFlagParse signals main that the FlagSet already printed the
// diagnostic, so it must not be reported a second time.
var errFlagParse = errors.New("onocsim: flag parse error")

func main() {
	// Ctrl-C aborts the event loop between transfers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "onocsim: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole CLI behind main, factored out for tests.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("onocsim", flag.ContinueOnError)
	pattern := fs.String("pattern", "uniform", "uniform|hotspot|permutation|streaming")
	hotspot := fs.Int("hotspot", 0, "hotspot destination node")
	hotFrac := fs.Float64("hotfrac", 0.30, "hotspot traffic fraction in (0,1)")
	load := fs.Float64("load", 0.4, "offered payload utilization per channel (0,1)")
	messages := fs.Int("messages", 20000, "messages to simulate")
	msgBytes := fs.Int("msgbytes", 4096, "payload per message in bytes")
	ber := fs.Float64("ber", 1e-11, "target BER")
	deadline := fs.Float64("deadline", 0, "deadline slack factor (0 = no deadlines)")
	adaptive := fs.Bool("adaptive", false, "deadline-aware scheme adaptation")
	idleOff := fs.Bool("idleoff", false, "turn lasers off on idle channels [9]")
	objective := fs.String("objective", "min-energy", "min-power|min-energy|min-latency")
	seed := fs.Int64("seed", 1, "random seed")
	remote := fs.String("remote", "", "base URL of an onocd daemon to resolve manager decisions against")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse
	}

	cfg := netsim.DefaultConfig()
	cfg.Load = *load
	cfg.Messages = *messages
	cfg.MessageBits = *msgBytes * 8
	cfg.TargetBER = *ber
	cfg.DeadlineSlack = *deadline
	cfg.AdaptToDeadline = *adaptive
	cfg.IdleLaserOff = *idleOff
	cfg.HotspotNode = *hotspot
	cfg.HotspotFraction = *hotFrac
	cfg.Seed = *seed

	var err error
	if cfg.Pattern, err = netsim.ParsePattern(*pattern); err != nil {
		return err
	}
	if cfg.Objective, err = manager.ParseObjective(*objective); err != nil {
		return err
	}

	// The backend is the simulator's core.Evaluator: the in-process
	// engine's memo cache, or one /v1/sweep round trip per missing point
	// against the daemon's.
	be, conf, banner, err := onocd.Open(ctx, *remote)
	if err != nil {
		return err
	}
	cfg.Link = conf.Config
	if cfg.Schemes, err = onocd.ResolveSchemes(conf.Schemes); err != nil {
		return err
	}
	res, err := netsim.RunCtx(ctx, cfg, be)
	if err != nil {
		return err
	}

	fmt.Fprint(out, banner)
	t := report.NewTable(
		fmt.Sprintf("onocsim — %s traffic, load %.2f, %d msgs, BER %.0e", *pattern, *load, *messages, *ber),
		"metric", "value")
	t.AddRowf("simulated time", fmt.Sprintf("%.3f ms", res.SimTimeSec*1e3))
	t.AddRowf("throughput", fmt.Sprintf("%.2f Gb/s", res.ThroughputBitsPerSec/1e9))
	t.AddRowf("channel utilization", fmt.Sprintf("%.1f%%", res.ChannelUtilization*100))
	t.AddRowf("mean latency", fmt.Sprintf("%.3f µs", res.MeanLatencySec*1e6))
	t.AddRowf("p50 / p95 / p99 latency", fmt.Sprintf("%.3f / %.3f / %.3f µs",
		res.P50LatencySec*1e6, res.P95LatencySec*1e6, res.P99LatencySec*1e6))
	t.AddRowf("mean queue wait", fmt.Sprintf("%.3f µs", res.MeanQueueWaitSec*1e6))
	if cfg.DeadlineSlack > 0 {
		t.AddRowf("deadline misses", fmt.Sprintf("%d / %d", res.DeadlineMisses, res.Messages))
	}
	t.AddRowf("laser energy", fmt.Sprintf("%.3f mJ", res.LaserEnergyJ*1e3))
	t.AddRowf("modulator energy", fmt.Sprintf("%.3f mJ", res.ModulatorEnergyJ*1e3))
	t.AddRowf("interface energy", fmt.Sprintf("%.6f mJ", res.InterfaceEnergyJ*1e3))
	t.AddRowf("idle energy", fmt.Sprintf("%.3f mJ", res.IdleEnergyJ*1e3))
	t.AddRowf("energy per payload bit", fmt.Sprintf("%.2f pJ", res.EnergyPerBitJ*1e12))
	t.AddRowf("scheme mix", fmt.Sprintf("%v", res.SchemeUse))
	return t.Render(out)
}
