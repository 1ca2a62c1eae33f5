// Command onocload is the closed-loop load harness for onocd: N client
// goroutines each keep exactly one request in flight against the daemon's
// /v1/sweep route and the harness reports throughput (QPS) and latency
// percentiles (p50/p90/p99/max), plus the daemon-side cache hit rate over
// the measured phase.
//
//	onocload -addr http://127.0.0.1:9137 -clients 8 -requests 5000
//	onocload -selfhost -clients 16 -requests 2000
//	onocload -selfhost -requests 1000 -assert-all-2xx -assert-warm-hitrate 0.9
//	onocload -selfhost -fault-rate 0.1 -chaos-seed 7 -streams 24 -stream-truncate 0.5 \
//	         -assert-all-2xx -assert-max-amplification 1.5 -assert-resumed 1 -json
//
// The working set is the cross product of -bers and the daemon roster; a
// warm-up pass touches every point once (cold solves), then the measured
// phase replays it round-robin — the steady serving state where the
// memo cache and its coalescing of concurrent misses carry the load. The -assert-*
// flags turn the run into the CI smoke test: non-zero exit when a request
// fails or the warm hit rate falls short.
//
// Chaos mode (-fault-rate, selfhost only) wires a deterministic seeded
// fault injector into the daemon — latency spikes, 429/503 envelopes,
// connection resets, mid-stream truncations — and the resilient client must
// absorb every one of them: -assert-all-2xx demands zero client-visible
// failures, -assert-max-amplification bounds retry amplification
// (attempts/requests), and -assert-resumed demands that interrupted NDJSON
// streams actually resumed via start_index. -streams adds a resumable
// /v1/noc/batch phase, with -stream-truncate forcing a fraction of first
// responses to be cut mid-line even against a healthy daemon.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"

	"photonoc/internal/faultinject"
	"photonoc/internal/obs"
	"photonoc/internal/onocd"
)

// errFlagParse signals main that the FlagSet already printed the
// diagnostic, so it must not be reported a second time.
var errFlagParse = errors.New("onocload: flag parse error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "onocload: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole harness behind main, factored out for tests.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("onocload", flag.ContinueOnError)
	addr := fs.String("addr", "", "base URL of the daemon, e.g. http://127.0.0.1:9137")
	selfhost := fs.Bool("selfhost", false, "spin up an in-process daemon on a loopback port instead of -addr")
	clients := fs.Int("clients", 8, "concurrent closed-loop clients")
	requests := fs.Int("requests", 1000, "measured requests (after warm-up)")
	bers := fs.String("bers", "1e-11", "comma-separated target BERs forming the working set")
	workers := fs.Int("workers", 0, "selfhosted engine workers (0 = GOMAXPROCS)")
	faultRate := fs.Float64("fault-rate", 0, "selfhost chaos: fraction of requests receiving an injected fault (0 = off)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the deterministic fault injector (with -fault-rate)")
	streams := fs.Int("streams", 0, "resumable /v1/noc/batch NDJSON streams to run after the load phase")
	streamTrunc := fs.Float64("stream-truncate", 0, "fraction of -streams whose first response is forcibly cut mid-line (needs >= 2 -bers)")
	jsonOut := fs.Bool("json", false, "append a machine-readable JSON summary line")
	assert2xx := fs.Bool("assert-all-2xx", false, "exit non-zero unless every measured request and stream succeeded")
	assertHit := fs.Float64("assert-warm-hitrate", 0, "exit non-zero unless the measured-phase cache hit rate reaches this fraction")
	assertAmp := fs.Float64("assert-max-amplification", 0, "exit non-zero if retry amplification (attempts/requests) exceeds this ratio")
	assertResumed := fs.Int("assert-resumed", 0, "exit non-zero unless at least this many interrupted streams resumed")
	assertTraceLogs := fs.Bool("assert-trace-logs", false, "exit non-zero unless every structured log line parses as JSON and at least one client retry shares a trace ID with a daemon access-log line (needs -selfhost and -fault-rate)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse
	}
	if (*addr == "") == !*selfhost {
		return errors.New("pass exactly one of -addr or -selfhost")
	}
	if *clients < 1 || *requests < 1 {
		return fmt.Errorf("-clients %d and -requests %d must be positive", *clients, *requests)
	}
	if *faultRate < 0 || *faultRate >= 1 {
		return fmt.Errorf("-fault-rate %v must be in [0, 1)", *faultRate)
	}
	if *faultRate > 0 && !*selfhost {
		return errors.New("-fault-rate injects server-side faults and needs -selfhost (start onocd with -fault-rate for remote chaos)")
	}
	if *streamTrunc < 0 || *streamTrunc > 1 {
		return fmt.Errorf("-stream-truncate %v must be in [0, 1]", *streamTrunc)
	}
	if *streams < 0 {
		return fmt.Errorf("-streams %d must be non-negative", *streams)
	}
	if *assertTraceLogs && (!*selfhost || *faultRate <= 0) {
		return errors.New("-assert-trace-logs joins client retry logs with daemon access logs and needs -selfhost and -fault-rate")
	}
	grid, err := parseBERs(*bers)
	if err != nil {
		return err
	}

	// With -assert-trace-logs, both sides log JSON into in-memory buffers the
	// assertion joins after the run.
	var daemonBuf, clientBuf lockedBuffer
	var daemonLog *slog.Logger
	if *assertTraceLogs {
		daemonLog, err = obs.NewLogger(&daemonBuf, slog.LevelInfo, obs.FormatJSON)
		if err != nil {
			return err
		}
	}

	var injector *faultinject.Injector
	if *faultRate > 0 {
		injector = faultinject.New(faultinject.Options{
			Seed:   *chaosSeed,
			Rates:  faultinject.Spread(*faultRate),
			Logger: daemonLog,
		})
	}
	base := *addr
	if *selfhost {
		_, hs, url, err := onocd.ListenLocal(onocd.Options{Workers: *workers, FaultInjector: injector, Logger: daemonLog})
		if err != nil {
			return err
		}
		defer hs.Close()
		base = url
		fmt.Fprintf(out, "selfhosted daemon on %s\n", base)
		if injector != nil {
			fmt.Fprintf(out, "chaos: injecting faults into %.0f%% of requests (seed %d)\n", *faultRate*100, *chaosSeed)
		}
	}
	c := onocd.NewClient(base)
	c.HTTP = &http.Client{Timeout: 2 * time.Minute}
	if *assertTraceLogs {
		if c.Logger, err = obs.NewLogger(&clientBuf, slog.LevelInfo, obs.FormatJSON); err != nil {
			return err
		}
	}
	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("daemon not healthy: %w", err)
	}

	makeReq := func(i int) onocd.SweepRequest {
		return onocd.SweepRequest{TargetBERs: []float64{grid[i%len(grid)]}}
	}

	// Warm-up: touch every working-set point once, sequentially — these are
	// the cold solves, excluded from the measured phase.
	warmStart := time.Now()
	for i := range grid {
		if _, err := c.Sweep(ctx, makeReq(i)); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	statsBefore, statszErr := c.Statusz(ctx)
	fmt.Fprintf(out, "warm-up: %d points in %s\n", len(grid), time.Since(warmStart).Round(time.Millisecond))

	stats, err := onocd.RunLoad(ctx, c, onocd.LoadOptions{
		Clients:     *clients,
		Requests:    *requests,
		MakeRequest: makeReq,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "measured: %d clients, closed loop\n", *clients)
	stats.WriteTable(out, "warm")
	if stats.FirstError != "" {
		fmt.Fprintf(out, "first error: %s\n", stats.FirstError)
	}

	hitRate := math.NaN()
	if statszErr == nil {
		if statsAfter, err := c.Statusz(ctx); err == nil {
			hits := statsAfter.Cache.Hits - statsBefore.Cache.Hits
			misses := statsAfter.Cache.Misses - statsBefore.Cache.Misses
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
			fmt.Fprintf(out, "daemon cache: %.1f%% hit rate over the measured phase (%d shared solves total)\n",
				hitRate*100, statsAfter.Cache.SharedSolves)
		}
	}

	// Stream phase: resumable /v1/noc/batch calls over a crossbar candidate
	// per working-set BER, optionally with forced first-response cuts.
	var sstats onocd.StreamLoadStats
	if *streams > 0 {
		items := make([]onocd.NoCBatchItem, len(grid))
		for i, ber := range grid {
			items[i] = onocd.NoCBatchItem{NoCRequest: onocd.NoCRequest{Topology: "crossbar", Tiles: 16, TargetBER: ber}}
		}
		sstats, err = onocd.RunStreamLoad(ctx, base, c.HTTP, onocd.StreamLoadOptions{
			Streams:          *streams,
			TruncateFraction: *streamTrunc,
			Items:            items,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "streams: %d runs (%d force-cut), %d items delivered, %d failures, %d truncations, %d resumed\n",
			sstats.Streams, sstats.ForcedTruncations, sstats.Items, sstats.Failures, sstats.Truncated, sstats.Resumed)
		if sstats.FirstError != "" {
			fmt.Fprintf(out, "first stream error: %s\n", sstats.FirstError)
		}
	}

	// Phase breakdown from the daemon's engine-instrumentation metrics: how
	// much of the run's work ran cold, hit the cache, or coalesced.
	var phases *onocd.PhaseBreakdown
	if pb, err := onocd.ScrapePhases(ctx, c.HTTP, base); err == nil {
		phases = &pb
		fmt.Fprintf(out, "phases: %d cold solves (%.2f ms mean), %d cache hits, %d coalesced\n",
			pb.ColdSolves, pb.ColdSolveMeanMS, pb.CacheHits, pb.CoalescedSolves)
	} else {
		fmt.Fprintf(out, "phases: /metrics scrape failed: %v\n", err)
	}

	// Resilience summary across the load client and all stream clients.
	cs := c.Stats()
	totalRequests := cs.Requests + sstats.Requests
	totalAttempts := cs.Attempts + sstats.Attempts
	amplification := 1.0
	if totalRequests > 0 {
		amplification = float64(totalAttempts) / float64(totalRequests)
	}
	resumed := cs.ResumedStreams + sstats.Resumed
	trips := cs.Breaker.Trips + sstats.BreakerTrips
	fmt.Fprintf(out, "resilience: %d attempts / %d requests (%.2fx amplification), %d retries, %d breaker trips, %d resumed streams\n",
		totalAttempts, totalRequests, amplification, cs.Retries+sstats.Retries, trips, resumed)

	if *jsonOut {
		summary := struct {
			Load          onocd.LoadStats       `json:"load"`
			HitRate       float64               `json:"hit_rate"`
			Client        onocd.ClientStats     `json:"client"`
			Streams       onocd.StreamLoadStats `json:"streams"`
			Amplification float64               `json:"amplification"`
			Phases        *onocd.PhaseBreakdown `json:"phases,omitempty"`
			Faults        *faultinject.Counts   `json:"faults,omitempty"`
		}{stats, hitRate, cs, sstats, amplification, phases, nil}
		if math.IsNaN(summary.HitRate) {
			summary.HitRate = -1
		}
		if injector != nil {
			fc := injector.Counts()
			summary.Faults = &fc
		}
		enc := json.NewEncoder(out)
		if err := enc.Encode(summary); err != nil {
			return err
		}
	}

	if *assert2xx && (stats.Non2xx > 0 || sstats.Failures > 0) {
		first := stats.FirstError
		if first == "" {
			first = sstats.FirstError
		}
		return fmt.Errorf("assert-all-2xx: %d of %d requests and %d of %d streams failed (first: %s)",
			stats.Non2xx, stats.Requests, sstats.Failures, sstats.Streams, first)
	}
	if *assertHit > 0 {
		if math.IsNaN(hitRate) {
			return errors.New("assert-warm-hitrate: could not read cache stats from /statusz")
		}
		if hitRate < *assertHit {
			return fmt.Errorf("assert-warm-hitrate: %.3f < %.3f", hitRate, *assertHit)
		}
	}
	if *assertAmp > 0 && amplification > *assertAmp {
		return fmt.Errorf("assert-max-amplification: %.3f > %.3f (%d attempts for %d requests)",
			amplification, *assertAmp, totalAttempts, totalRequests)
	}
	if *assertResumed > 0 && resumed < uint64(*assertResumed) {
		return fmt.Errorf("assert-resumed: %d resumed streams < %d", resumed, *assertResumed)
	}
	if *assertTraceLogs {
		joined, err := verifyTraceLogs(daemonBuf.bytes(), clientBuf.bytes())
		if err != nil {
			return fmt.Errorf("assert-trace-logs: %w", err)
		}
		fmt.Fprintf(out, "trace logs: %d retried traces joined across client and daemon logs\n", joined)
	}
	return nil
}

// lockedBuffer is a mutex-guarded bytes.Buffer: slog handlers write one
// record per Write call, so a lock per write keeps concurrent daemon
// handler goroutines from interleaving JSON lines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// verifyTraceLogs enforces the observability contract of a chaos run: every
// log line on both sides is standalone JSON, and at least one client retry
// carries a trace ID that also appears on a daemon access-log line — the
// join that reconstructs a fault's lifecycle from logs alone. Returns the
// number of retried traces that joined.
func verifyTraceLogs(daemonRaw, clientRaw []byte) (int, error) {
	parse := func(side string, raw []byte) ([]map[string]any, error) {
		var out []map[string]any
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				return nil, fmt.Errorf("%s log line is not JSON: %v: %s", side, err, sc.Text())
			}
			out = append(out, m)
		}
		return out, sc.Err()
	}
	daemonRecs, err := parse("daemon", daemonRaw)
	if err != nil {
		return 0, err
	}
	clientRecs, err := parse("client", clientRaw)
	if err != nil {
		return 0, err
	}
	served := make(map[string]bool)
	for _, m := range daemonRecs {
		if m["msg"] == "request" {
			if id, _ := m["trace_id"].(string); id != "" {
				served[id] = true
			}
		}
	}
	joined := make(map[string]bool)
	retries := 0
	for _, m := range clientRecs {
		if m["msg"] != "retry" {
			continue
		}
		retries++
		if id, _ := m["trace_id"].(string); served[id] {
			joined[id] = true
		}
	}
	if retries == 0 {
		return 0, errors.New("no client retry events logged; the chaos run exercised nothing")
	}
	if len(joined) == 0 {
		return 0, fmt.Errorf("%d retries logged but none share a trace ID with a daemon access-log line", retries)
	}
	return len(joined), nil
}

// parseBERs splits the comma-separated working set.
func parseBERs(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	grid := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-bers %q: %v", p, err)
		}
		grid = append(grid, v)
	}
	return grid, nil
}
