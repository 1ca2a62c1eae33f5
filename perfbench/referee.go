package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"photonoc"
	"photonoc/internal/ecc"
)

// Referee settings. Each check simulates refMessages messages at half the
// analytic saturation rate and Monte-Carlo-validates the winning scheme
// over refFrames frames at the raw BER where its planned FER is refFER.
const (
	refMessages = 20000
	refFrames   = 1 << 18
	refFER      = 0.05
	refShards   = 8
	// refCampaignSeed fixes the seed campaign, so every run referees the
	// same designs and set-up work does not depend on the workload seed;
	// the workload seed picks the op order and the DES and MC streams.
	refCampaignSeed = 7
)

// Tolerances of one referee check, and why they hold for every seed. One
// run makes tens of thousands of link checks and the runs that judge a
// change make millions, so a 5σ band (a false alarm in about two million)
// fails correct runs.
//
//   - Link utilization: the DES measures a link's busy fraction as the
//     messages it served times the service time over the horizon T. With
//     Poisson sources the served count has mean n = served·u/û (u analytic,
//     û measured), and T, the time the run's N messages take to arrive,
//     varies too, so û has a relative standard deviation of √(1/n + 1/N).
//     The band is 7σ of that plus a rounding floor.
//   - Mean latency: within 10% of the analytic M/D/1 figure, the band the
//     network DES acceptance test documents for the open-system effects
//     (token pipeline, finite horizon) the M/D/1 abstraction ignores. The
//     observed gaps are a few percent.
//   - Frame error rate: the plan's FER must lie inside the 6σ Wilson
//     interval of the measured frame errors (a false alarm about once in
//     five hundred million checks). The frame-error law is exact for the
//     bounded-distance decoders of the paper's roster.
const (
	utilSigmas = 7.0
	utilFloor  = 0.002
	latencyTol = 0.10
	ferZ       = 6.0
)

// refItem is one design the referee checks: a tuner front point rebuilt
// from its spec, or a fixture.
type refItem struct {
	label string
	eng   *photonoc.Engine
	topo  photonoc.NoCConfig
	opts  photonoc.NoCEvalOptions

	ana    photonoc.NoCResult // the analytic evaluation made in setup
	code   photonoc.Code      // the scheme most links run
	rawBER float64
}

// referee is the referee workload.
type referee struct {
	cfg config
	tr  *tracer
	obs *engineCounter // non-nil in trace runs

	full  *photonoc.Engine
	items []refItem
	front int // how many items are front points

	checks, simMessages, simAlloc, mcFrames atomic.Int64
	maxGapPPM                               atomic.Int64
}

func newReferee(cfg config, tr *tracer) workload {
	w := &referee{cfg: cfg, tr: tr}
	if cfg.trace {
		w.obs = &engineCounter{tr: tr}
	}
	return w
}

func (w *referee) newEngine(codes ...photonoc.Code) (*photonoc.Engine, error) {
	opts := []photonoc.Option{photonoc.WithSchemes(codes...)}
	if w.obs != nil {
		opts = append(opts, photonoc.WithObserver(w.obs))
	}
	return photonoc.New(opts...)
}

// setup runs the seed campaign, rebuilds each front point by hand from
// its spec on an Engine restricted to the point's roster, adds the
// fixtures, and evaluates every item analytically.
func (w *referee) setup(ctx context.Context) error {
	paper := photonoc.PaperSchemes()
	byName := map[string]photonoc.Code{}
	for _, c := range paper {
		byName[c.Name()] = c
	}
	full, err := w.newEngine(paper...)
	if err != nil {
		return err
	}
	res, err := full.Tune(ctx, campaignOptions(refCampaignSeed))
	if err != nil {
		return fmt.Errorf("seed campaign: %w", err)
	}

	engines := map[string]*photonoc.Engine{}
	var items []refItem
	for _, pt := range res.Front {
		key := strings.Join(pt.Spec.Roster, ";")
		eng, ok := engines[key]
		if !ok {
			codes := make([]photonoc.Code, len(pt.Spec.Roster))
			for k, name := range pt.Spec.Roster {
				if codes[k], ok = byName[name]; !ok {
					return fmt.Errorf("front point %s names unknown scheme %q", pt.Spec.String(), name)
				}
			}
			if eng, err = w.newEngine(codes...); err != nil {
				return err
			}
			engines[key] = eng
		}
		it := refItem{
			label: pt.Spec.String(),
			eng:   eng,
			topo:  photonoc.NoCConfig{Kind: pt.Spec.Kind, Tiles: pt.Spec.Tiles, Columns: pt.Spec.Columns},
			opts:  photonoc.NoCEvalOptions{TargetBER: 1e-11},
		}
		if pt.Spec.Wavelengths > 0 {
			it.topo.Base = eng.Config()
			it.topo.Base.Channel.Grid.Count = pt.Spec.Wavelengths
		}
		if pt.Spec.DACBits > 0 {
			it.opts.DAC = &photonoc.DAC{Bits: pt.Spec.DACBits, MaxOpticalW: photonoc.PaperDAC().MaxOpticalW}
		}
		items = append(items, it)
	}
	w.front = len(items)
	for _, topo := range fixtures {
		items = append(items, refItem{label: fmt.Sprintf("fixture %s/%d", topo.Kind, topo.Tiles), eng: full, topo: topo,
			opts: photonoc.NoCEvalOptions{TargetBER: 1e-11}})
	}

	rawBER := map[string]float64{}
	for i := range items {
		it := &items[i]
		if it.ana, err = it.eng.Network(ctx, it.topo, it.opts); err != nil {
			return fmt.Errorf("%s: %w", it.label, err)
		}
		if !it.ana.Feasible || it.ana.Saturated {
			return fmt.Errorf("%s: analytic evaluation infeasible or saturated", it.label)
		}
		it.code = byName[dominantScheme(it.ana.SchemeUse)]
		if it.code == nil {
			return fmt.Errorf("%s: no winning scheme", it.label)
		}
		p, ok := rawBER[it.code.Name()]
		if !ok {
			if p, err = ecc.PlanFor(it.code).RequiredRawBERForFER(refFER); err != nil {
				return err
			}
			rawBER[it.code.Name()] = p
		}
		it.rawBER = p
	}
	w.full, w.items = full, items
	return nil
}

// corrupt perturbs the analytic evaluation op 0 is checked against.
func (w *referee) corrupt() {
	w.items[draw(w.cfg.seed, streamItem, 0)%uint64(len(w.items))].ana.MeanLatencySec *= 1 + 1e-9
}

// dominantScheme is the scheme the most links run (ties to the smaller
// name).
func dominantScheme(use map[string]int) string {
	names := make([]string, 0, len(use))
	for k := range use {
		names = append(names, k)
	}
	sort.Strings(names)
	best := ""
	for _, k := range names {
		if best == "" || use[k] > use[best] {
			best = k
		}
	}
	return best
}

// warmup checks every item once with seeds no timed op uses.
func (w *referee) warmup(ctx context.Context) error {
	for i := range w.items {
		if _, err := w.check(ctx, &w.items[i], -1-i); err != nil {
			return fmt.Errorf("%s: %w", w.items[i].label, err)
		}
	}
	return nil
}

func (w *referee) op(ctx context.Context, i int) (time.Duration, error) {
	it := &w.items[draw(w.cfg.seed, streamItem, i)%uint64(len(w.items))]
	d, err := w.check(ctx, it, i)
	if err != nil {
		err = fmt.Errorf("%s: %w", it.label, err)
	}
	return d, err
}

// check referees one item: analytic re-evaluation, DES and Monte-Carlo,
// with the DES and MC seeds of sequence number k. The returned latency
// covers the three calls, not the checks between them.
func (w *referee) check(ctx context.Context, it *refItem, k int) (time.Duration, error) {
	var busy time.Duration
	timed := func(name string, call func(context.Context) error) error {
		cctx, sp := w.tr.start(ctx, name)
		t0 := time.Now()
		err := call(cctx)
		busy += time.Since(t0)
		sp.end()
		return err
	}

	var ana photonoc.NoCResult
	if err := timed("noc.network", func(ctx context.Context) (err error) {
		ana, err = it.eng.Network(ctx, it.topo, it.opts)
		return err
	}); err != nil {
		return busy, err
	}
	if !sameNoC(&ana, &it.ana) {
		return busy, fmt.Errorf("analytic evaluation differs from the one made in setup")
	}

	var sim photonoc.NoCSimResults
	if err := timed("netsim.simulate", func(ctx context.Context) (err error) {
		a0 := heapAllocs()
		sim, err = it.eng.SimulateNetwork(ctx, it.topo, photonoc.NoCSimOptions{
			TargetBER: it.opts.TargetBER, Objective: it.opts.Objective, DAC: it.opts.DAC,
			Messages: refMessages, Seed: int64(draw(w.cfg.seed, streamSim, k) >> 1),
		})
		w.simAlloc.Add(int64(heapAllocs() - a0))
		return err
	}); err != nil {
		return busy, err
	}
	w.simMessages.Add(sim.Messages)
	if err := agree(&ana, &sim); err != nil {
		return busy, err
	}
	gap := math.Abs(sim.MeanLatencySec/ana.MeanLatencySec - 1)
	for ppm := int64(gap * 1e6); ; {
		cur := w.maxGapPPM.Load()
		if ppm <= cur || w.maxGapPPM.CompareAndSwap(cur, ppm) {
			break
		}
	}

	var mc photonoc.MCResult
	if err := timed("mc.validate", func(ctx context.Context) (err error) {
		mc, err = it.eng.ValidateMC(ctx, it.code, it.rawBER, photonoc.MCOptions{
			Frames: refFrames, Shards: refShards, Seed: int64(draw(w.cfg.seed, streamMC, k) >> 1),
		})
		return err
	}); err != nil {
		return busy, err
	}
	w.mcFrames.Add(mc.Frames)
	lo, hi := wilson(mc.FrameErrors, mc.Frames, ferZ)
	if mc.ExpectedFER < lo || mc.ExpectedFER > hi {
		return busy, fmt.Errorf("MC FER %d/%d, %g-sigma interval [%g, %g] excludes the planned FER %g of %s at raw BER %g",
			mc.FrameErrors, mc.Frames, ferZ, lo, hi, mc.ExpectedFER, it.code.Name(), it.rawBER)
	}
	w.checks.Add(1)
	return busy, nil
}

// agree checks a lossless DES run against the analytic evaluation within
// the documented tolerances.
func agree(ana *photonoc.NoCResult, sim *photonoc.NoCSimResults) error {
	if sim.Dropped != 0 || sim.Messages != sim.Injected {
		return fmt.Errorf("DES dropped %d of %d messages", sim.Dropped, sim.Injected)
	}
	if len(sim.PerLink) != len(ana.Loads) {
		return fmt.Errorf("DES reports %d links, analytic %d", len(sim.PerLink), len(ana.Loads))
	}
	for i, load := range ana.Loads {
		l := sim.PerLink[i]
		tol := utilFloor
		if l.Messages > 0 && l.Utilization > 0 && load.Utilization > 0 {
			n := float64(l.Messages) * load.Utilization / l.Utilization
			tol += utilSigmas * load.Utilization * math.Sqrt(1/n+1/float64(sim.Messages))
		}
		if d := math.Abs(l.Utilization - load.Utilization); d > tol {
			return fmt.Errorf("link %d utilization: analytic %.4f, DES %.4f (|Δ| %.4f > %.4f)", i, load.Utilization, l.Utilization, d, tol)
		}
	}
	if rel := math.Abs(sim.MeanLatencySec/ana.MeanLatencySec - 1); rel > latencyTol {
		return fmt.Errorf("mean latency: analytic %.4g s, DES %.4g s (%.1f%% > %.0f%%)",
			ana.MeanLatencySec, sim.MeanLatencySec, rel*100, latencyTol*100)
	}
	return nil
}

// wilson is the Wilson score interval of k successes in n trials at z
// standard deviations.
func wilson(k, n int64, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p, nf := float64(k)/float64(n), float64(n)
	den := 1 + z*z/nf
	mid := (p + z*z/(2*nf)) / den
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / den
	return max(0, mid-half), min(1, mid+half)
}

func (w *referee) counters(context.Context) (map[string]float64, error) {
	c := map[string]float64{
		"checks":          float64(w.checks.Load()),
		"sim_messages":    float64(w.simMessages.Load()),
		"sim_alloc_bytes": float64(w.simAlloc.Load()),
		"mc_frames":       float64(w.mcFrames.Load()),
	}
	if w.obs != nil {
		for k, v := range w.obs.snapshot() {
			c[k] = v
		}
	}
	return c, nil
}

func (w *referee) layers(a analysis, _, traced passResult) map[string]float64 {
	c := traced.counters
	sim, mc := a.layer("netsim.simulate"), a.layer("mc.validate")
	return map[string]float64{
		"engine.hit_ratio":   ratio(c["hits"], c["hits"]+c["misses"]),
		"engine.cold_solves": ratio(c["cold_solves"], c["checks"]),
		"noc.network_ms":     a.layer("noc.network").meanMS(),
		"netsim.simulate_ms": sim.meanMS(),
		"netsim.msgs_per_s":  ratio(c["sim_messages"], sim.total.Seconds()),
		"netsim.alloc_kib":   ratio(c["sim_alloc_bytes"]/1024, float64(sim.n)),
		"mc.validate_ms":     mc.meanMS(),
		"mc.frames_per_s":    ratio(c["mc_frames"], mc.total.Seconds()),
	}
}

// recheck re-runs the first two ops; their checks must pass again.
func (w *referee) recheck(ctx context.Context) (int, string, error) {
	note := fmt.Sprintf("referee: %d front points + %d fixtures, largest op latency gap %.3f%%",
		w.front, len(fixtures), float64(w.maxGapPPM.Load())/1e4)
	for i := range 2 {
		if _, err := w.op(ctx, i); err != nil {
			return i + 1, note, fmt.Errorf("op %d: %w", i, err)
		}
	}
	return 2, note, nil
}

func (w *referee) accuracy(ctx context.Context) (float64, float64, error) {
	paperErr, err := paperErrPct(ctx, w.full)
	if err != nil {
		return 0, 0, err
	}
	modelGap, err := modelGapPct(ctx, w.full)
	return paperErr, modelGap, err
}

func (w *referee) close() {}
