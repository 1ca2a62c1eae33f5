package engine

import (
	"context"
	"fmt"
	"iter"
	"math"
	"reflect"

	"photonoc/internal/core"
	"photonoc/internal/noc"
	"photonoc/internal/onoc"
)

// netBuildKey identifies one built topology for the engine's build memo:
// the scalar topology parameters plus the base configuration fingerprint.
type netBuildKey struct {
	kind           noc.Kind
	tiles, columns int
	pitchCM        float64
	baseFP         string
}

// builtNet is one entry of the engine's build memo: the built network and
// its links' interned plans in link-ID order, so a candidate on a topology
// the engine has built does no per-link lookup.
type builtNet struct {
	net   *noc.Network
	links []linkPlan
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
	b, err := e.build(cfg)
	if err != nil {
		return nil, err
	}
	return b.net, nil
}

// build returns the memoized build of a topology, building it and
// interning its links' plans on a miss.
func (e *Engine) build(cfg noc.Config) (*builtNet, error) {
	baseFP := e.fingerprint
	adoptBase := reflect.ValueOf(cfg.Base).IsZero()
	if !adoptBase {
		baseFP = core.Fingerprint(cfg.Base)
	}
	key := netBuildKey{kind: cfg.Kind, tiles: cfg.Tiles, columns: cfg.Columns, pitchCM: cfg.TilePitchCM, baseFP: baseFP}
	b, _, err := e.netBuilt.do(key, func() (*builtNet, error) {
		// The network shares the engine's private copy read-only: links
		// hand out deep copies (noc.Link.Config).
		if adoptBase {
			cfg.Base = e.cfg
		}
		net, err := noc.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		b := &builtNet{net: net, links: make([]linkPlan, net.NumLinks())}
		for l := range b.links {
			if b.links[l], err = e.linkPlanFor(baseFP, net.LinkRef(l)); err != nil {
				return nil, err
			}
		}
		return b, nil
	})
	return *b, err
}

// blockKey identifies one wavelength block of one base configuration: the
// base's fingerprint and the block's first index and width in its grid.
type blockKey struct {
	baseFP       string
	first, count int
}

// blockPlan is one interned wavelength block: the ID its links' keys carry,
// the configuration whose clocks and interface powers its links' solves use
// (the engine's own, or a private copy of a foreign base), and its block
// plan.
type blockPlan struct {
	id   uint64
	cfg  *core.LinkConfig
	plan *onoc.BlockPlan
}

// linkKey identifies one network link by the values that set it apart from
// the other links of its block.
type linkKey struct {
	block            uint64
	lengthBits       uint64
	onis, waveguides int
}

// linkPlanFor interns one link of a network built on the base with
// fingerprint baseFP: its block plan, compiled on first use in O(G²), then
// its link plan, derived from the block in O(G). A link whose values equal
// the engine's own configuration (the degenerate bus case) gets ID 0 and
// the engine's plan, so its solves are bit-identical to — and cache-shared
// with — single-link sweeps.
func (e *Engine) linkPlanFor(baseFP string, l *noc.Link) (linkPlan, error) {
	own := &e.cfg.Channel
	first, count := l.Lambdas[0], len(l.Lambdas)
	lengthBits, onis, waveguides := math.Float64bits(l.LengthCM), l.ONIs(), l.WaveguidesPerChannel()
	if baseFP == e.fingerprint && first == 0 && count == own.Grid.Count &&
		lengthBits == math.Float64bits(own.Waveguide.LengthCM) && onis == own.Topo.ONIs &&
		waveguides == own.Topo.WaveguidesPerChannel {
		return linkPlan{compiled: e.compiled}, nil
	}
	bp, _, err := e.blocks.do(blockKey{baseFP: baseFP, first: first, count: count}, func() (*blockPlan, error) {
		ch := l.Channel()
		plan, err := ch.CompileBlock()
		if err != nil {
			return nil, fmt.Errorf("%w: link %d: %v", ErrInvalidConfig, l.ID, err)
		}
		cfg := &e.cfg
		if baseFP != e.fingerprint {
			foreign := l.Config()
			cfg = &foreign
		}
		return &blockPlan{id: e.lastID.Add(1), cfg: cfg, plan: plan}, nil
	})
	if err != nil {
		return linkPlan{}, err
	}
	block := *bp
	lp, _, err := e.netPlans.do(linkKey{block: block.id, lengthBits: lengthBits, onis: onis, waveguides: waveguides}, func() (linkPlan, error) {
		plan, err := block.plan.Link(l.LengthCM, onis, waveguides)
		if err != nil {
			return linkPlan{}, fmt.Errorf("%w: link %d: %v", ErrInvalidConfig, l.ID, err)
		}
		return linkPlan{id: e.lastID.Add(1), compiled: core.NewCompiled(block.cfg, plan)}, nil
	})
	return *lp, err
}

// Network evaluates one topology at opts.TargetBER: every link is solved
// against the engine's scheme roster (links sharing a configuration share
// its interned ID and so its memo-cache entries), the per-link winners are picked
// with the manager's selection rule, and the traffic matrix is folded into
// network energy, saturation throughput and latency figures. A link with
// no feasible scheme does not error: the Result comes back with
// Feasible == false, mirroring single-link evaluations.
//
// The evaluation runs on the caller's goroutine, on a pooled
// NetworkSession; every cell goes through the memo cache.
func (e *Engine) Network(ctx context.Context, cfg noc.Config, opts noc.EvalOptions) (noc.Result, error) {
	s := e.acquireSession()
	defer e.releaseSession(s)
	res, err := s.Evaluate(ctx, NetworkCandidate{Topology: cfg, Opts: opts})
	if err != nil {
		return noc.Result{}, err
	}
	return res.Clone(), nil
}

// checkNetworkSweep validates a network sweep request up front: a
// non-empty grid of valid BERs over a topology that builds.
func (e *Engine) checkNetworkSweep(cfg noc.Config, targetBERs []float64) error {
	if len(targetBERs) == 0 {
		return fmt.Errorf("%w: empty BER grid", ErrInvalidInput)
	}
	for _, ber := range targetBERs {
		if err := validateBER(ber); err != nil {
			return err
		}
	}
	_, err := e.BuildNetwork(cfg)
	return err
}

// NetworkSweep evaluates the topology across a grid of target BERs, in
// grid order on the caller's goroutine: it collects NetworkSweepStream.
// Each BER is evaluated exactly as Network evaluates it, so the result
// slice is identical regardless of the worker count. opts.TargetBER is
// ignored — each grid point uses its own BER. With the memo cache disabled
// (WithCache(0)), every BER is a cold solve, still in order on one
// goroutine; use NetworkBatch to spread cold solves over the workers.
func (e *Engine) NetworkSweep(ctx context.Context, cfg noc.Config, targetBERs []float64, opts noc.EvalOptions) ([]noc.Result, error) {
	out := make([]noc.Result, 0, len(targetBERs))
	for res, err := range e.NetworkSweepStream(ctx, cfg, targetBERs, opts) {
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// NetworkSweepStream is the streaming variant of NetworkSweep: the
// returned iterator evaluates the topology when it is ranged over, at each
// target BER in grid order on one pooled NetworkSession of the ranging
// goroutine, and yields each aggregated result, detached from the session,
// as soon as it is evaluated: the i-th pair is grid point i. An invalid
// request or a failed evaluation (cancellation included) ends the stream
// with one pair carrying the error; breaking out of the range stops the
// sweep at once. The BER slice is read when the iterator runs.
func (e *Engine) NetworkSweepStream(ctx context.Context, cfg noc.Config, targetBERs []float64, opts noc.EvalOptions) iter.Seq2[noc.Result, error] {
	return func(yield func(noc.Result, error) bool) {
		if err := e.checkNetworkSweep(cfg, targetBERs); err != nil {
			yield(noc.Result{}, err)
			return
		}
		s := e.acquireSession()
		defer e.releaseSession(s)
		cand := NetworkCandidate{Topology: cfg, Opts: opts}
		for _, ber := range targetBERs {
			cand.Opts.TargetBER = ber
			res, err := s.Evaluate(ctx, cand)
			if err != nil {
				yield(noc.Result{}, err)
				return
			}
			if !yield(res.Clone(), nil) {
				return
			}
		}
	}
}
