// Command onocd serves the photonoc Engine as a long-running HTTP/JSON
// daemon: batch and streaming sweeps, runtime-manager decisions, whole-NoC
// evaluation and simulation, and Monte-Carlo validation, behind admission
// control, per-request deadlines, a Prometheus /metrics endpoint and hot
// configuration reload.
//
//	onocd -addr :9137
//	onocd -addr 127.0.0.1:0 -workers 8 -cache 65536       # OS-picked port
//	onocd -config link.json -timeout 10s -max-inflight 32
//	onocd -log-level debug -log-format text -pprof        # telemetry knobs
//	kill -HUP $(pidof onocd)                              # re-read -config
//
// Routes: POST /v1/sweep[/stream], /v1/decide, /v1/noc/eval, /v1/noc/sweep
// (NDJSON), /v1/noc/sim, /v1/validate; GET /v1/config, /healthz, /statusz,
// /metrics, and (with -pprof) /debug/pprof/*. Errors arrive as
// {"error":{code,message,status}} envelopes. Structured JSON logs go to
// stderr: one access-log line per request carrying the W3C trace ID from
// the caller's traceparent header (or a freshly rooted one), per-request
// engine-work attribution (cold solves, cache hits, coalesces), and warn
// lines for slow requests, shed load and injected faults.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"photonoc"

	"photonoc/internal/core"
	"photonoc/internal/faultinject"
	"photonoc/internal/obs"
	"photonoc/internal/onocd"
)

// errFlagParse signals main that the FlagSet already printed the
// diagnostic, so it must not be reported a second time.
var errFlagParse = errors.New("onocd: flag parse error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "onocd: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole daemon behind main, factored out so tests can drive a
// full serve/drain cycle. It blocks until ctx is cancelled (SIGINT/SIGTERM
// in production), then drains in-flight requests and returns.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("onocd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9137", "listen address (port 0 = OS-assigned)")
	configPath := fs.String("config", "", "link configuration JSON (default: the paper's configuration); re-read on SIGHUP")
	workers := fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 0, "memo-cache entries (0 = engine default)")
	maxInFlight := fs.Int("max-inflight", 0, "admission-control concurrency limit (0 = default)")
	timeout := fs.Duration("timeout", 0, "per-request deadline ceiling (0 = default 30s)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	faultRate := fs.Float64("fault-rate", 0, "chaos testing: inject faults (latency, 429/503, resets, stream truncation) into this fraction of requests (0 = off)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the deterministic fault injector (with -fault-rate)")
	logLevel := fs.String("log-level", "info", "structured log level: debug|info|warn|error")
	logFormat := fs.String("log-format", "json", "structured log format: json|text")
	slowRequest := fs.Duration("slow-request", 0, "log requests slower than this at warn level (0 = default 1s, negative = off)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/* (CPU, heap, goroutine profiles); exempt from admission control")
	gzipMin := fs.Int("gzip-min-bytes", 0, "compress JSON responses at or above this size when the client accepts gzip (0 = default 1024, negative = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		return err
	}

	loadConfig := func() (core.LinkConfig, error) {
		if *configPath == "" {
			return core.LinkConfig{}, nil // zero value = engine default
		}
		f, err := os.Open(*configPath)
		if err != nil {
			return core.LinkConfig{}, err
		}
		defer f.Close()
		return photonoc.LoadConfig(f)
	}
	cfg, err := loadConfig()
	if err != nil {
		return err
	}

	if *faultRate < 0 || *faultRate >= 1 {
		return fmt.Errorf("-fault-rate %v must be in [0, 1)", *faultRate)
	}
	var injector *faultinject.Injector
	if *faultRate > 0 {
		injector = faultinject.New(faultinject.Options{
			Seed:   *faultSeed,
			Rates:  faultinject.Spread(*faultRate),
			Logger: logger,
		})
	}

	srv, err := onocd.NewServer(onocd.Options{
		Config:         cfg,
		Workers:        *workers,
		CacheEntries:   *cache,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		FaultInjector:  injector,
		Logger:         logger,
		SlowRequest:    *slowRequest,
		EnablePprof:    *pprofOn,
		GzipMinBytes:   *gzipMin,
	})
	if err != nil {
		return err
	}
	if injector != nil {
		fmt.Fprintf(out, "onocd: CHAOS MODE — injecting faults into %.0f%% of requests (seed %d); do not point production clients here\n",
			*faultRate*100, *faultSeed)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is machine-readable on purpose: the CI
	// smoke test and the load harness scrape the OS-assigned port from it.
	fmt.Fprintf(out, "onocd: serving on http://%s (engine %s, %d workers)\n",
		l.Addr(), srv.Engine().ConfigFingerprint()[:12], srv.Engine().Workers())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()

	// SIGHUP hot reload: re-read -config and swap the engine generation.
	// In-flight requests finish on the generation they started with.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	for {
		select {
		case <-hup:
			cfg, err := loadConfig()
			if err != nil {
				fmt.Fprintf(out, "onocd: reload failed (keeping the serving engine): %v\n", err)
				continue
			}
			if err := srv.Reload(cfg); err != nil {
				fmt.Fprintf(out, "onocd: reload rejected (keeping the serving engine): %v\n", err)
				continue
			}
			fmt.Fprintf(out, "onocd: reloaded engine %s\n", srv.Engine().ConfigFingerprint()[:12])
		case err := <-serveErr:
			return fmt.Errorf("serve: %w", err)
		case <-ctx.Done():
			srv.SetDraining(true)
			fmt.Fprintf(out, "onocd: draining (budget %s)\n", *drainTimeout)
			shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			if err := hs.Shutdown(shutdownCtx); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			fmt.Fprintln(out, "onocd: drained, bye")
			return nil
		}
	}
}
