package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"photonoc"
)

// The default campaign size (the tuner's defaults, spelled out so the
// checks do not depend on them silently changing).
const (
	campaignParticles   = 16
	campaignGenerations = 20
)

// campaignOptions are the campaign every tune-cold op runs.
func campaignOptions(seed int64) photonoc.TuneOptions {
	return photonoc.TuneOptions{Seed: seed, TargetBER: 1e-11, Particles: campaignParticles, Generations: campaignGenerations}
}

// campaignSeed is the campaign seed of op i (never 0, which Tune would
// read as "default").
func campaignSeed(seed int64, i int) int64 {
	return int64(draw(seed, streamCampaign, i)>>2) + 1
}

// Setup campaigns use their own fixed seeds, so set-up work is the same
// for every workload seed.
const setupCampaigns = 6

// tuneCold is the tune-cold workload: one seeded campaign per op on a
// fresh Engine.
type tuneCold struct {
	cfg config
	tr  *tracer
	obs *engineCounter // non-nil in trace runs

	mu      sync.Mutex
	digests map[int]uint64 // op → front digest, for recheck
	expectN int            // particles × generations
}

func newTuneCold(cfg config, tr *tracer) workload {
	w := &tuneCold{cfg: cfg, tr: tr, digests: map[int]uint64{}}
	if cfg.trace {
		w.obs = &engineCounter{tr: tr}
	}
	w.expectN = campaignParticles * campaignGenerations
	return w
}

// corrupt perturbs the expected evaluation count every campaign is checked
// against.
func (w *tuneCold) corrupt() { w.expectN++ }

// campaign runs one campaign on a fresh Engine and checks its result.
func (w *tuneCold) campaign(ctx context.Context, seed int64) (time.Duration, uint64, error) {
	var opts []photonoc.Option
	if w.obs != nil {
		opts = append(opts, photonoc.WithObserver(w.obs))
	}
	t0 := time.Now()
	_, sp := w.tr.start(ctx, "engine.new")
	eng, err := photonoc.New(opts...)
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	to := campaignOptions(seed)
	rctx, sp := w.tr.start(ctx, "tune.run")
	if ref, ok := refFrom(rctx); ok {
		gens := &genSpans{tr: w.tr, parent: ref, obs: w.obs}
		gens.open()
		to.OnGeneration = gens.next
	}
	res, err := eng.Tune(rctx, to)
	sp.end()
	d := time.Since(t0)
	if err != nil {
		return d, 0, err
	}
	if w.obs != nil {
		w.obs.evaluated.Add(int64(res.Evaluated))
		w.obs.infeasible.Add(int64(res.Infeasible))
		w.obs.campaigns.Add(1)
	}
	digest, err := checkFront(res, w.expectN)
	return d, digest, err
}

// checkFront verifies a campaign result and returns its front digest: a
// non-empty, mutually non-dominated front, and particles × generations
// candidates evaluated.
func checkFront(res *photonoc.TuneResult, wantEvaluated int) (uint64, error) {
	if res.Evaluated != wantEvaluated {
		return 0, fmt.Errorf("evaluated %d candidates, want %d", res.Evaluated, wantEvaluated)
	}
	if len(res.Front) == 0 {
		return 0, fmt.Errorf("empty front")
	}
	h := fnv.New64a()
	for i := range res.Front {
		p := &res.Front[i]
		for j := range res.Front {
			if i != j && dominates(&res.Front[j], p) {
				return 0, fmt.Errorf("front point %d (%s) is dominated by point %d", i, p.Spec.String(), j)
			}
		}
		fmt.Fprintf(h, "%s|%x|%x|%x;", p.Spec.String(),
			math.Float64bits(p.EnergyPerBitJ), math.Float64bits(p.P99LatencySec), math.Float64bits(p.SaturationBitsPerSec))
	}
	return h.Sum64(), nil
}

// dominates reports whether a is no worse than b on every objective
// (energy and p99 down, saturation up) and better on one.
func dominates(a, b *photonoc.TunePoint) bool {
	le := a.EnergyPerBitJ <= b.EnergyPerBitJ && a.P99LatencySec <= b.P99LatencySec && a.SaturationBitsPerSec >= b.SaturationBitsPerSec
	lt := a.EnergyPerBitJ < b.EnergyPerBitJ || a.P99LatencySec < b.P99LatencySec || a.SaturationBitsPerSec > b.SaturationBitsPerSec
	return le && lt
}

func (w *tuneCold) setup(ctx context.Context) error {
	for i := range setupCampaigns {
		if _, _, err := w.campaign(ctx, int64(1000+i)); err != nil {
			return fmt.Errorf("setup campaign %d: %w", i, err)
		}
	}
	return nil
}

// warmup is part of setup: the setup campaigns fill the process-wide plan
// registries that the first campaigns would otherwise pay for.
func (w *tuneCold) warmup(context.Context) error { return nil }

func (w *tuneCold) op(ctx context.Context, i int) (time.Duration, error) {
	d, digest, err := w.campaign(ctx, campaignSeed(w.cfg.seed, i))
	if err == nil {
		w.mu.Lock()
		w.digests[i] = digest
		w.mu.Unlock()
	}
	return d, err
}

func (w *tuneCold) counters(context.Context) (map[string]float64, error) {
	if w.obs == nil {
		return map[string]float64{}, nil
	}
	return w.obs.snapshot(), nil
}

func (w *tuneCold) layers(a analysis, untraced, traced passResult) map[string]float64 {
	c := traced.counters
	n := c["campaigns"]
	gens := a.layer("tune.gen")
	gen0 := a.layer("tune.gen0")
	return map[string]float64{
		"engine.new_ms":              a.layer("engine.new").meanMS(),
		"engine.hit_ratio":           ratio(c["hits"], c["hits"]+c["misses"]),
		"engine.cold_solves":         ratio(c["cold_solves"], n),
		"engine.cold_solve_ms":       ratio(c["cold_solve_ns"]/1e6, n),
		"engine.shared_solves":       ratio(c["shared"], n),
		"engine.session_reuse_cells": ratio(c["reuse_cells"], n),
		"tune.run_ms":                a.layer("tune.run").meanMS(),
		"tune.gen0_ms":               gen0.meanMS(),
		"tune.gen_ms":                gens.meanMS(),
		"tune.infeasible_ratio":      ratio(c["infeasible"], c["evaluated"]),
		"tune.alloc_kib":             ratio(untraced.rt.allocBytes/1024, float64(untraced.ops)),
	}
}

// recheck re-runs the first two campaigns and requires the same fronts.
// Its note is the digest over every timed campaign's front, in op order:
// two runs of one seed print the same digest.
func (w *tuneCold) recheck(ctx context.Context) (int, string, error) {
	w.mu.Lock()
	h := fnv.New64a()
	n := 0
	for ; ; n++ {
		d, ok := w.digests[n]
		if !ok {
			break
		}
		fmt.Fprintf(h, "%x;", d)
	}
	note := fmt.Sprintf("front digest over %d campaigns: %016x", n, h.Sum64())
	want := make([]uint64, min(n, 2))
	for i := range want {
		want[i] = w.digests[i]
	}
	w.mu.Unlock()
	for i, d := range want {
		_, got, err := w.campaign(ctx, campaignSeed(w.cfg.seed, i))
		if err != nil {
			return i + 1, note, fmt.Errorf("op %d: %w", i, err)
		}
		if got != d {
			return i + 1, note, fmt.Errorf("op %d: front digest %016x on rerun, %016x when timed", i, got, d)
		}
	}
	return len(want), note, nil
}

func (w *tuneCold) accuracy(ctx context.Context) (float64, float64, error) {
	return inProcessAccuracy(ctx)
}

func (w *tuneCold) close() {}

// genSpans turns OnGeneration callbacks into one span per generation: a
// generation runs from the previous callback (or the campaign start) to
// its own callback. Generation 0 is named tune.gen0, the rest tune.gen.
type genSpans struct {
	tr     *tracer
	parent spanRef
	obs    *engineCounter
	cur    span
}

func (g *genSpans) open() {
	g.cur = span{Name: "tune.gen0", Op: g.parent.op, ID: g.tr.newID(), Parent: g.parent.id, Start: g.tr.now()}
	if g.obs != nil {
		g.obs.gen.Store(g.cur.ID)
	}
}

func (g *genSpans) next(gen int, _ []photonoc.TunePoint) error {
	now := g.tr.now()
	g.cur.End = now
	g.tr.add(g.cur)
	var id int64
	if gen+1 < campaignGenerations {
		g.cur = span{Name: "tune.gen", Op: g.parent.op, ID: g.tr.newID(), Parent: g.parent.id, Start: now}
		id = g.cur.ID
	}
	if g.obs != nil {
		g.obs.gen.Store(id)
	}
	return nil
}

// engineCounter is the benchmark's Observer: it counts engine events and,
// while tracing, records each cold solve as a span under the current
// generation (or under the span its context carries).
type engineCounter struct {
	tr  *tracer
	gen atomic.Int64 // span ID of the running tune generation, 0 if none

	coldSolves, coldNS, hits, misses, shared, reuse atomic.Int64
	campaigns, evaluated, infeasible                atomic.Int64
}

func (o *engineCounter) ColdSolve(ctx context.Context, _ string, d time.Duration) {
	o.coldSolves.Add(1)
	o.coldNS.Add(int64(d))
	if !o.tr.on.Load() {
		return
	}
	ref, ok := refFrom(ctx)
	if !ok {
		return
	}
	parent := ref.id
	if g := o.gen.Load(); g != 0 {
		parent = g
	}
	end := o.tr.now()
	o.tr.add(span{Name: "engine.cold_solve", Op: ref.op, ID: o.tr.newID(), Parent: parent, Start: end - int64(d), End: end})
}

func (o *engineCounter) CacheHit(context.Context, int)         { o.hits.Add(1) }
func (o *engineCounter) CacheMiss(context.Context, int)        { o.misses.Add(1) }
func (o *engineCounter) SharedSolve(context.Context)           { o.shared.Add(1) }
func (o *engineCounter) SessionReuse(_ context.Context, n int) { o.reuse.Add(int64(n)) }

func (o *engineCounter) snapshot() map[string]float64 {
	return map[string]float64{
		"cold_solves":   float64(o.coldSolves.Load()),
		"cold_solve_ns": float64(o.coldNS.Load()),
		"hits":          float64(o.hits.Load()),
		"misses":        float64(o.misses.Load()),
		"shared":        float64(o.shared.Load()),
		"reuse_cells":   float64(o.reuse.Load()),
		"campaigns":     float64(o.campaigns.Load()),
		"evaluated":     float64(o.evaluated.Load()),
		"infeasible":    float64(o.infeasible.Load()),
	}
}
