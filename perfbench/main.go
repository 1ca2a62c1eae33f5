// Command perfbench is the repository benchmark. It runs one workload per
// process, times it from outside by calling the public entry points of each
// layer, checks every output, and prints its metrics as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - serve-warm: a closed loop of 2 clients against an in-process onocd
//     daemon; every request is a memo-cache hit after setup.
//   - tune-cold: one seeded default-size autotuner campaign per op, each on
//     a fresh Engine.
//   - referee: tuner front points and fixed fixtures, each evaluated
//     analytically, simulated by the network DES and checked by Monte-Carlo.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same op
// sequence twice, untraced and then traced, keeps spans in memory, writes
// them to --spans-dir, and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spansDir string

	// The benchmark's own tests shrink a run and break it on purpose. ops
	// overrides the timed op count (0 sizes the run as seconds × the
	// workload's nominal rate; either way the count is fixed before timing
	// starts, so every run of a seed covers the same ops). setups overrides
	// how many times the start state is built (0 = 15; setup_s is the
	// median). corrupt perturbs one expected value, so a correct program
	// must fail an op.
	ops     int
	setups  int
	corrupt bool
}

// workload is one traffic mix. Ops are numbered; op i is a pure function
// of the seed and i, so two passes over 0..n-1 do identical work.
type workload interface {
	// setup builds the start state from scratch, closing any previous one.
	setup(ctx context.Context) error
	// warmup runs the untimed warm-up ops.
	warmup(ctx context.Context) error
	// op runs and checks op i. It returns the latency of the calls under
	// test (excluding the check); an error counts the op failed.
	op(ctx context.Context, i int) (time.Duration, error)
	// counters snapshots cumulative counters (exact and sampled).
	counters(ctx context.Context) (map[string]float64, error)
	// layers derives the per-layer metrics from the traced pass.
	layers(a analysis, untraced, traced passResult) map[string]float64
	// recheck re-runs a few ops and compares their outputs with the timed
	// pass; it returns how many it re-ran and a note for the log.
	recheck(ctx context.Context) (int, string, error)
	// accuracy computes paper_err_pct and model_gap_pct.
	accuracy(ctx context.Context) (paperErr, modelGap float64, err error)
	// corrupt perturbs an expected value that op 0 is checked against.
	corrupt()
	close()
}

// spec is a workload's fixed shape.
type spec struct {
	name string
	// clients is the number of goroutines issuing ops (closed loop).
	clients int
	// rate is the nominal ops/s that sizes a run from --seconds.
	rate float64
	// exact lists the counters whose pass deltas are a pure function of the
	// seed. A traced run executes its op sequence twice (untraced, then
	// traced) and fails its self-check if one of these differs between the
	// two. Every other counter is sampled: it depends on scheduling, such
	// as which worker wins a cache race or when the collector runs.
	exact []string
	// zero lists the counters that must not move in a timed pass: the
	// warm workloads never solve cold once set up.
	zero  []string
	build func(cfg config, tr *tracer) workload
}

var workloads = []spec{
	{
		name: "serve-warm", clients: 2, rate: 600,
		exact: []string{"requests", "cold_solves", "hits", "resp_bytes"},
		zero:  []string{"cold_solves", "coalesced", "retries"},
		build: newServeWarm,
	},
	{
		name: "tune-cold", clients: 1, rate: 110,
		exact: []string{"campaigns", "cold_solves", "infeasible", "evaluated"},
		build: newTuneCold,
	},
	{
		name: "referee", clients: 1, rate: 60,
		exact: []string{"checks", "cold_solves", "hits", "sim_messages", "mc_frames"},
		zero:  []string{"cold_solves", "shared"},
		build: newReferee,
	},
}

func lookup(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// passResult is one timed pass over ops 0..n-1.
type passResult struct {
	ops, failed int
	firstErr    error
	elapsed     time.Duration
	lats        []time.Duration
	rt          runtimeStats
	counters    map[string]float64
}

// logCPU writes where the pass's CPU went, per op.
func (p passResult) logCPU(out io.Writer) {
	n := float64(max(p.ops, 1))
	fmt.Fprintf(out, "# cpu per op: user %.4f ms, sys %.4f ms, %.1f minor faults, %.1f KiB allocated; %.1f GCs per kop, GC %.1f%% of busy CPU\n",
		p.rt.userCPU*1e3/n, p.rt.sysCPU*1e3/n, p.rt.minFaults/n, p.rt.allocBytes/1024/n,
		p.rt.gcCycles*1000/n, 100*ratio(p.rt.gcCPU, p.rt.busyCPU))
}

func (p passResult) opsPerSec() float64 { return ratio(float64(p.ops), p.elapsed.Seconds()) }

// runPass drives ops 0..n-1 with sp.clients closed-loop goroutines. A pass
// that runs past limit stops early, so a badly regressed program still
// ends; the ops it did not reach are not attempted.
func runPass(ctx context.Context, sp spec, w workload, tr *tracer, n int, limit time.Duration) (passResult, error) {
	c0, err := w.counters(ctx)
	if err != nil {
		return passResult{}, err
	}
	runtime.GC()
	m0 := readRuntime()
	var (
		next     atomic.Int64
		failed   atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
		lats     = make([][]time.Duration, sp.clients)
	)
	start := time.Now()
	deadline := start.Add(limit)
	for cl := range sp.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil || time.Now().After(deadline) {
					return
				}
				octx, root := tr.root(ctx, int64(i))
				d, err := w.op(octx, i)
				root.end()
				lats[cl] = append(lats[cl], d)
				if err != nil {
					failed.Add(1)
					errOnce.Do(func() { firstErr = fmt.Errorf("op %d: %w", i, err) })
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	m1 := readRuntime()
	c1, err := w.counters(ctx)
	if err != nil {
		return passResult{}, err
	}
	p := passResult{
		failed:   int(failed.Load()),
		firstErr: firstErr,
		elapsed:  elapsed,
		rt:       m1.sub(m0),
		counters: make(map[string]float64, len(c1)),
	}
	p.lats = slices.Concat(lats...)
	p.ops = len(p.lats)
	for k, v := range c1 {
		p.counters[k] = v - c0[k]
	}
	return p, ctx.Err()
}

// runtimeStats are cumulative process counters, read around a pass so the
// log can tell a slower host (more CPU per op) from a busier collector.
type runtimeStats struct {
	allocBytes, gcCycles float64
	// gcCPU and busyCPU are the collector's and the whole runtime's
	// non-idle CPU seconds (runtime/metrics estimates).
	gcCPU, busyCPU float64
	// userCPU and sysCPU are the process's CPU seconds and minFaults its
	// minor page faults (getrusage).
	userCPU, sysCPU, minFaults float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeStats{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		busyCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
		userCPU:    time.Duration(ru.Utime.Nano()).Seconds(),
		sysCPU:     time.Duration(ru.Stime.Nano()).Seconds(),
		minFaults:  float64(ru.Minflt),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles,
		gcCPU: a.gcCPU - b.gcCPU, busyCPU: a.busyCPU - b.busyCPU,
		userCPU: a.userCPU - b.userCPU, sysCPU: a.sysCPU - b.sysCPU, minFaults: a.minFaults - b.minFaults,
	}
}

// heapAllocs is the cumulative heap allocation in bytes.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes one benchmark invocation and returns its report. Progress
// and diagnostics go to out.
func run(ctx context.Context, cfg config, out io.Writer) (report, error) {
	sp, ok := lookup(cfg.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.setups < 1 {
		cfg.setups = 15
	}
	n := cfg.ops
	if n <= 0 {
		n = max(1, int(float64(cfg.seconds)*sp.rate))
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d ops=%d trace=%v go=%s gomaxprocs=%d numcpu=%d\n",
		sp.name, cfg.seed, n, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	tr := newTracer()
	w := sp.build(cfg, tr)
	defer w.close()
	setups := make([]time.Duration, cfg.setups)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(t0)
	}
	if err := w.warmup(ctx); err != nil {
		return report{}, fmt.Errorf("warm-up: %w", err)
	}
	if cfg.corrupt {
		w.corrupt()
	}

	// The timed phase may run for twelve times its nominal length, but never
	// so long that the process misses its three-minute budget; a traced run
	// splits the limit between its two passes.
	limit := min(12*time.Duration(cfg.seconds)*time.Second, 100*time.Second)
	if cfg.trace {
		limit /= 2
	}
	rep := report{Correct: true}
	fail := func(format string, args ...any) {
		rep.Correct = false
		fmt.Fprintf(out, "# CHECK FAILED: "+format+"\n", args...)
	}
	count := func(p passResult, want int) {
		rep.Attempted += p.ops
		rep.Failed += p.failed
		if p.failed > 0 {
			fail("%d of %d ops failed; first: %v", p.failed, p.ops, p.firstErr)
		}
		if p.ops < want {
			fail("pass stopped after %d of %d ops at the %v limit", p.ops, want, limit)
		}
		for _, k := range sp.zero {
			if v := p.counters[k]; v != 0 {
				fail("counter %s moved by %v in a timed pass, want 0", k, v)
			}
		}
	}

	values := map[string]float64{}
	if !cfg.trace {
		p, err := runPass(ctx, sp, w, tr, n, limit)
		if err != nil {
			return report{}, err
		}
		count(p, n)
		values["ops_per_s"] = p.opsPerSec()
		values["p50_ms"] = ms(quantile(p.lats, 0.5))
		values["p90_ms"] = ms(quantile(p.lats, 0.9))
		fmt.Fprintf(out, "# timed: %d ops in %.3fs (%.2f ops/s), p50 %.4f ms, p90 %.4f ms over %d samples\n",
			p.ops, p.elapsed.Seconds(), values["ops_per_s"], values["p50_ms"], values["p90_ms"], p.ops)
		p.logCPU(out)
	} else {
		half := max(1, n/2)
		pa, err := runPass(ctx, sp, w, tr, half, limit)
		if err != nil {
			return report{}, err
		}
		tr.on.Store(true)
		pb, err := runPass(ctx, sp, w, tr, half, limit)
		tr.on.Store(false)
		if err != nil {
			return report{}, err
		}
		count(pa, half)
		count(pb, half)
		for _, k := range sp.exact {
			if pa.counters[k] != pb.counters[k] {
				fail("exact count %s differs between passes: %v vs %v", k, pa.counters[k], pb.counters[k])
			}
		}
		a := tr.analyze()
		values = w.layers(a, pa, pb)
		values["trace.ops_per_s_delta"] = pb.opsPerSec() - pa.opsPerSec()
		values["trace.span_coverage"] = a.coverage
		if a.coverage < 0.9 {
			fail("layer spans cover %.3f of op time, want >= 0.9", a.coverage)
		}
		printLayers(out, a, pa, pb)
		printCounts(out, sp, pb)
		if cfg.spansDir != "" {
			path, err := tr.write(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, cfg.seed))
			if err != nil {
				return report{}, err
			}
			fmt.Fprintf(out, "# spans written to %s\n", path)
		}
	}

	k, note, err := w.recheck(ctx)
	if note != "" {
		fmt.Fprintf(out, "# %s\n", note)
	}
	rep.Attempted += k
	if err != nil {
		rep.Failed++
		fail("recheck: %v", err)
	}
	if !cfg.trace {
		// Read the high-water mark before the accuracy figures, whose
		// reference simulations belong to no workload.
		values["peak_rss_mib"] = peakRSSMiB()
		paperErr, modelGap, err := w.accuracy(ctx)
		if err != nil {
			return report{}, fmt.Errorf("accuracy: %w", err)
		}
		values["paper_err_pct"] = paperErr
		values["model_gap_pct"] = modelGap
		values["setup_s"] = quantile(setups, 0.5).Seconds()
		fmt.Fprintf(out, "# setups: %v\n", setups)
		rep.Metrics = fill(endToEnd, values)
	} else {
		rep.Metrics = fill(perLayer, values)
	}
	return rep, nil
}

// printLayers writes every span name's count, mean duration and mean self
// time, and the two passes' throughput.
func printLayers(out io.Writer, a analysis, pa, pb passResult) {
	names := make([]string, 0, len(a.layers))
	for k := range a.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		l := a.layers[k]
		fmt.Fprintf(out, "# span %-20s n=%-7d mean %.4f ms  self %.4f ms\n", k, l.n, l.meanMS(), l.meanSelfMS())
	}
	fmt.Fprintf(out, "# untraced %.2f ops/s, traced %.2f ops/s, coverage %.4f\n", pa.opsPerSec(), pb.opsPerSec(), a.coverage)
}

// printCounts writes the traced pass's counter deltas, each labelled exact
// (listed in sp.exact: a pure function of the seed, checked between the
// two halves) or sampled (it depends on scheduling).
func printCounts(out io.Writer, sp spec, p passResult) {
	names := make([]string, 0, len(p.counters))
	for k := range p.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		label := "sampled"
		if slices.Contains(sp.exact, k) {
			label = "exact"
		}
		fmt.Fprintf(out, "# count %s %s: %v\n", k, label, p.counters[k])
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "serve-warm | tune-cold | referee")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal run length; sizes the fixed op count")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", "", "directory for the traced run's spans (empty = do not write)")
	flag.Parse()
	cfg.trace = *traceFlag != 0
	if cfg.seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	rep, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode report:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
