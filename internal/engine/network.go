package engine

import (
	"context"
	"fmt"
	"reflect"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/noc"
)

// NetworkResult is one streamed network-sweep outcome: the aggregated
// evaluation of the whole topology at one target BER. Index is the position
// in the equivalent batch NetworkSweep slice (BER order); a terminal
// failure arrives as the final NetworkResult with Err set.
type NetworkResult struct {
	Index     int
	TargetBER float64
	Result    noc.Result
	Err       error
}

// netBuildKey identifies one built topology for the engine's build memo:
// the scalar topology parameters plus the base configuration fingerprint.
type netBuildKey struct {
	kind           noc.Kind
	tiles, columns int
	pitchCM        float64
	baseFP         string
}

// BuildNetwork compiles a topology configuration against this engine: a
// zero Base adopts the engine's link configuration (the common case — the
// engine's calibrated channel becomes the prototype every link derives
// from). The returned network is immutable and reusable across
// evaluations; repeated builds of the same topology (Network/NetworkSweep
// call it per evaluation) are served from a memo, so a fixed topology
// re-evaluated across traffic matrices or rates never re-derives links,
// wavelength blocks or routes.
func (e *Engine) BuildNetwork(cfg noc.Config) (*noc.Network, error) {
	baseFP := e.fingerprint
	adoptBase := reflect.ValueOf(cfg.Base).IsZero()
	if !adoptBase {
		baseFP = core.Fingerprint(cfg.Base)
	}
	key := netBuildKey{kind: cfg.Kind, tiles: cfg.Tiles, columns: cfg.Columns, pitchCM: cfg.TilePitchCM, baseFP: baseFP}
	if net, ok := e.netBuilt.lookup(key); ok {
		return net, nil
	}
	// Adopt the engine configuration only on a memo miss: the copy
	// allocates, and the warm path — every steady-state session
	// evaluation — must not.
	if adoptBase {
		cfg.Base = e.Config()
	}
	net, err := noc.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return e.netBuilt.add(key, net), nil
}

// compiledForLink returns the compiled solve plan of one link, memoized by
// configuration fingerprint. Links matching the engine's own configuration
// (the degenerate bus case) are served from the engine's plan, so their
// solves are bit-identical to — and cache-shared with — single-link sweeps.
func (e *Engine) compiledForLink(l *noc.Link) (*core.Compiled, error) {
	if l.Fingerprint == e.fingerprint {
		return e.compiled, nil
	}
	if c, ok := e.netPlans.lookup(l.Fingerprint); ok {
		return c, nil
	}
	cfg := l.Config
	c, err := cfg.Compile()
	if err != nil {
		return nil, fmt.Errorf("%w: link %d: %v", ErrInvalidConfig, l.ID, err)
	}
	return e.netPlans.add(l.Fingerprint, c), nil
}

// netGrid is one prepared network-sweep workload: the built network, the
// per-link compiled plans, and the (BER × link × scheme) point lattice.
type netGrid struct {
	net      *noc.Network
	links    []noc.Link
	compiled []*core.Compiled
	schemes  []ecc.Code
	bers     []float64
}

// pointsPerBER returns the solve count of one BER plane.
func (g *netGrid) pointsPerBER() int { return len(g.links) * len(g.schemes) }

// prepareNetwork validates a network sweep request and compiles every
// distinct link configuration once on the coordinating goroutine.
func (e *Engine) prepareNetwork(cfg noc.Config, targetBERs []float64) (*netGrid, error) {
	if len(targetBERs) == 0 {
		return nil, fmt.Errorf("%w: empty BER grid", ErrInvalidInput)
	}
	for _, ber := range targetBERs {
		if err := validateBER(ber); err != nil {
			return nil, err
		}
	}
	net, err := e.BuildNetwork(cfg)
	if err != nil {
		return nil, err
	}
	g := &netGrid{
		net:     net,
		links:   net.Links(),
		schemes: e.schemes,
		bers:    append([]float64(nil), targetBERs...),
	}
	g.compiled = make([]*core.Compiled, len(g.links))
	for i := range g.links {
		if g.compiled[i], err = e.compiledForLink(&g.links[i]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// solvePoint solves lattice point i (BER-major, then link, then scheme)
// into evals, which is indexed evals[ber][link][scheme].
func (e *Engine) solvePoint(ctx context.Context, g *netGrid, evals [][][]core.Evaluation, i int) error {
	perBER := g.pointsPerBER()
	b := i / perBER
	rem := i % perBER
	l := rem / len(g.schemes)
	s := rem % len(g.schemes)
	ev, err := e.evaluateCompiled(ctx, g.links[l].Fingerprint, g.compiled[l], g.schemes[s], g.bers[b])
	if err != nil {
		return err
	}
	evals[b][l][s] = ev
	return nil
}

// newEvalLattice allocates evals[ber][link][scheme].
func (g *netGrid) newEvalLattice() [][][]core.Evaluation {
	evals := make([][][]core.Evaluation, len(g.bers))
	for b := range evals {
		evals[b] = make([][]core.Evaluation, len(g.links))
		for l := range evals[b] {
			evals[b][l] = make([]core.Evaluation, len(g.schemes))
		}
	}
	return evals
}

// aggregateBER folds one solved BER plane into its network Result.
func (g *netGrid) aggregateBER(b int, evals [][][]core.Evaluation, opts noc.EvalOptions) (noc.Result, error) {
	opts.TargetBER = g.bers[b]
	decisions, err := noc.Decide(g.net, evals[b], opts)
	if err != nil {
		return noc.Result{}, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	res, err := noc.Aggregate(g.net, decisions, opts)
	if err != nil {
		return noc.Result{}, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	return res, nil
}

// Network evaluates one topology at opts.TargetBER: every link is solved
// against the engine's scheme roster across the worker pool (links sharing
// a configuration fingerprint share memo-cache entries), the per-link
// winners are picked with the manager's selection rule, and the traffic
// matrix is folded into network energy, saturation throughput and latency
// figures. A link with no feasible scheme does not error: the Result comes
// back with Feasible == false, mirroring single-link evaluations.
func (e *Engine) Network(ctx context.Context, cfg noc.Config, opts noc.EvalOptions) (noc.Result, error) {
	if err := validateBER(opts.TargetBER); err != nil {
		return noc.Result{}, err
	}
	results, err := e.NetworkSweep(ctx, cfg, []float64{opts.TargetBER}, opts)
	if err != nil {
		return noc.Result{}, err
	}
	return results[0], nil
}

// NetworkSweep evaluates the topology across a grid of target BERs. All
// (BER, link, scheme) solves fan across the worker pool as one batch; the
// per-BER aggregation is sequential and deterministic, so the result slice
// is identical regardless of the worker count. opts.TargetBER is ignored —
// each grid point uses its own BER.
func (e *Engine) NetworkSweep(ctx context.Context, cfg noc.Config, targetBERs []float64, opts noc.EvalOptions) ([]noc.Result, error) {
	g, err := e.prepareNetwork(cfg, targetBERs)
	if err != nil {
		return nil, err
	}
	evals := g.newEvalLattice()
	if err := e.forEach(ctx, len(g.bers)*g.pointsPerBER(), func(ctx context.Context, i int) error {
		return e.solvePoint(ctx, g, evals, i)
	}); err != nil {
		return nil, err
	}
	out := make([]noc.Result, len(g.bers))
	for b := range g.bers {
		if out[b], err = g.aggregateBER(b, evals, opts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NetworkSweepStream is the streaming variant of NetworkSweep: it returns
// immediately with a channel yielding one aggregated NetworkResult per
// target BER, in grid order, as soon as each BER plane (and all its
// predecessors) has been solved. The channel is buffered for the whole
// grid; on error or cancellation the stream ends early with a final
// NetworkResult carrying Err, and the channel is always closed.
func (e *Engine) NetworkSweepStream(ctx context.Context, cfg noc.Config, targetBERs []float64, opts noc.EvalOptions) <-chan NetworkResult {
	g, err := e.prepareNetwork(cfg, targetBERs)
	if err != nil {
		out := make(chan NetworkResult, 1)
		out <- NetworkResult{Index: 0, Err: err}
		close(out)
		return out
	}
	out := make(chan NetworkResult, len(g.bers)+1)
	go func() {
		defer close(out)
		evals := g.newEvalLattice()
		perBER := g.pointsPerBER()
		total := perBER * len(g.bers)

		// Workers report solved point indices; the coordinator counts down
		// each BER plane and releases aggregated results in grid order.
		done := make(chan int, total)
		var poolErr error
		go func() {
			defer close(done)
			poolErr = e.forEach(ctx, total, func(ctx context.Context, i int) error {
				if err := e.solvePoint(ctx, g, evals, i); err != nil {
					return err
				}
				done <- i
				return nil
			})
		}()

		remaining := make([]int, len(g.bers))
		for b := range remaining {
			remaining[b] = perBER
		}
		next := 0
		for i := range done {
			b := i / perBER
			remaining[b]--
			for next < len(g.bers) && remaining[next] == 0 {
				res, err := g.aggregateBER(next, evals, opts)
				if err != nil {
					out <- NetworkResult{Index: next, TargetBER: g.bers[next], Err: err}
					return
				}
				out <- NetworkResult{Index: next, TargetBER: g.bers[next], Result: res}
				next++
			}
		}
		if next < len(g.bers) {
			err := poolErr
			if err == nil {
				err = ctx.Err()
			}
			if err == nil {
				err = fmt.Errorf("photonoc: network sweep aborted at BER index %d", next)
			}
			out <- NetworkResult{Index: next, TargetBER: g.bers[next], Err: err}
		}
	}()
	return out
}
