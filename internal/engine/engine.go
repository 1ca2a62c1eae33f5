package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

// DefaultCacheEntries is the memo-cache capacity when WithCache is not
// given: comfortably larger than any paper-scale design sweep (8 schemes ×
// a few hundred BER points) while bounding memory for adversarial callers.
const DefaultCacheEntries = 4096

// Engine is a concurrent, memoizing solver over one link configuration and
// one scheme roster. It is safe for use by multiple goroutines; the
// configuration is deep-copied at construction, compiled once into a solve
// plan (link budgets, crosstalk) and never mutated. Everything the engine
// memoizes — solved points, FER plans, block and link plans, built
// networks — belongs to it, so a new Engine starts from nothing.
type Engine struct {
	cfg         core.LinkConfig // the engine's private copy, never mutated
	compiled    *core.Compiled  // over cfg
	schemes     []ecc.Code
	workers     int
	cache       *memo[cacheKey, core.Evaluation] // nil when disabled via WithCache(0)
	fingerprint string

	// obs receives instrumentation events; nil (the default) disables the
	// hooks behind a single pointer comparison per event site.
	obs Observer

	// Cold-solve accounting: every solve that actually runs the compiled
	// pipeline (a cache miss, or any solve with the cache disabled).
	// sharedSolves counts evaluations served by joining another
	// goroutine's in-flight solve instead.
	coldSolves   atomic.Uint64
	coldSolveNS  atomic.Int64
	sharedSolves atomic.Uint64

	// sessions pools NetworkSessions for every network call, keeping
	// their grown buffers and laser memos warm across calls.
	sessions sync.Pool

	// Registries, each filled on first use: schemes by name with their
	// FER plans; wavelength blocks by (base fingerprint, first λ, count)
	// with their block plans; network links by (block ID, length, ONIs,
	// waveguides per channel) with their compiled solve plans, a link
	// matching the engine's own configuration being ID 0, served from
	// e.compiled; and built topologies with their links' plans, so repeated
	// evaluations of one network never re-derive links or routes and never
	// look a link up.
	plans    memo[string, *schemePlan]
	blocks   memo[blockKey, *blockPlan]
	netPlans memo[linkKey, linkPlan]
	netBuilt memo[netBuildKey, *builtNet]

	// lastID is the last interned ID handed out. The counter never resets:
	// a registry that is flushed and meets a configuration again stamps it
	// with a fresh ID, so no ID ever names two configurations and no memo
	// key can alias. It is 64 bits wide so that a long-lived engine cannot
	// wrap it.
	lastID atomic.Uint64
}

// schemePlan is one interned scheme: the ID the memo cache keys it by, its
// FER plan, and the code-side points solved from that plan by target BER
// bits, which every link solving the scheme at that BER shares.
type schemePlan struct {
	id     uint64
	plan   *ecc.FERPlan
	points memo[uint64, core.CodePoint]
}

// evaluate solves the scheme at targetBER on one compiled link, solving
// the code side once per target BER. Errors are not memoized.
func (sp *schemePlan) evaluate(compiled *core.Compiled, targetBER float64) (core.Evaluation, error) {
	pt, _, err := sp.points.do(math.Float64bits(targetBER), func() (core.CodePoint, error) {
		return core.SolveCodePoint(sp.plan, targetBER)
	})
	if err != nil {
		return core.Evaluation{}, err
	}
	return compiled.EvaluatePoint(sp.plan.Code(), targetBER, *pt)
}

// linkPlan is one interned link configuration: the ID the memo cache keys
// it by (0 for the engine's own configuration) and its compiled solve plan.
type linkPlan struct {
	id       uint64
	compiled *core.Compiled
}

// settings accumulates functional options before validation.
type settings struct {
	cfg          core.LinkConfig
	schemes      []ecc.Code
	workers      int
	cacheEntries int
	obs          Observer
}

// Option configures an Engine under construction.
type Option func(*settings) error

// WithConfig sets the link configuration (default: core.DefaultConfig).
func WithConfig(cfg core.LinkConfig) Option {
	return func(s *settings) error {
		s.cfg = cfg
		return nil
	}
}

// WithSchemes sets the scheme roster (default: the paper's three schemes).
// An explicitly empty roster is rejected.
func WithSchemes(codes ...ecc.Code) Option {
	return func(s *settings) error {
		if len(codes) == 0 {
			return fmt.Errorf("%w: empty scheme roster", ErrInvalidConfig)
		}
		for i, c := range codes {
			if c == nil {
				return fmt.Errorf("%w: nil scheme at index %d", ErrInvalidConfig, i)
			}
		}
		s.schemes = append([]ecc.Code(nil), codes...)
		return nil
	}
}

// WithWorkers sets the worker-pool size (default: GOMAXPROCS): at most
// that many goroutines claim a validation grid's points or an MC run's
// shards one at a time, in index order, and a batch's candidates in one
// contiguous chunk each (one worker runs on the caller's goroutine;
// NetworkBatchStream runs the pool on a goroutine of its own while the
// caller's puts the results in order).
// Sweeps, network sweeps and single Network or SimulateNetwork calls run
// on the caller's goroutine: with the memo cache on, a cell costs about a
// microsecond, less than handing it to another goroutine.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n <= 0 {
			return fmt.Errorf("%w: worker count %d must be positive", ErrInvalidConfig, n)
		}
		s.workers = n
		return nil
	}
}

// WithCache sets the memo-cache capacity in entries. Zero disables
// memoization; negative capacities are rejected.
func WithCache(entries int) Option {
	return func(s *settings) error {
		if entries < 0 {
			return fmt.Errorf("%w: cache capacity %d must be non-negative", ErrInvalidConfig, entries)
		}
		s.cacheEntries = entries
		return nil
	}
}

// New builds an Engine from functional options, validating the assembled
// configuration at the boundary: errors wrap ErrInvalidConfig.
func New(opts ...Option) (*Engine, error) {
	s := settings{
		cfg:          core.DefaultConfig(),
		schemes:      ecc.PaperSchemes(),
		workers:      runtime.GOMAXPROCS(0),
		cacheEntries: DefaultCacheEntries,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("%w: nil option", ErrInvalidConfig)
		}
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}

	// Compile the engine's private copy once: the link budgets, crosstalk
	// fractions and eye fractions every solve reads.
	e := &Engine{
		cfg:      s.cfg.Clone(),
		schemes:  s.schemes,
		workers:  s.workers,
		obs:      s.obs,
		plans:    memo[string, *schemePlan]{capacity: registryCap},
		blocks:   memo[blockKey, *blockPlan]{capacity: registryCap},
		netPlans: memo[linkKey, linkPlan]{capacity: registryCap},
		netBuilt: memo[netBuildKey, *builtNet]{capacity: registryCap},
	}
	link, err := e.cfg.Channel.Compile()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	e.compiled = core.NewCompiled(&e.cfg, link)
	e.fingerprint = core.Fingerprint(e.cfg)
	if s.cacheEntries > 0 {
		e.cache = &memo[cacheKey, core.Evaluation]{capacity: s.cacheEntries}
	}
	return e, nil
}

// Fingerprint computes the configuration digest of an arbitrary
// configuration — the same digest an Engine over cfg interns it by.
func Fingerprint(cfg core.LinkConfig) string { return core.Fingerprint(cfg) }

// Config returns a copy of the engine's link configuration.
func (e *Engine) Config() core.LinkConfig { return e.cfg.Clone() }

// Schemes returns a copy of the registered scheme roster.
func (e *Engine) Schemes() []ecc.Code { return append([]ecc.Code(nil), e.schemes...) }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// ConfigFingerprint returns the engine's configuration digest, the
// identity its own configuration (interned ID 0) stands for.
func (e *Engine) ConfigFingerprint() string { return e.fingerprint }

// CacheStats snapshots the memo-cache accounting, the engine's cold-solve
// timing and its registries' sizes, hits and misses. With the cache
// disabled the memo's hit/miss/entry fields report zeroes; the cold-solve
// fields still accumulate, since every solve is then cold.
func (e *Engine) CacheStats() CacheStats {
	var s CacheStats
	if e.cache != nil {
		s = e.cache.stats()
	}
	s.ColdSolves = e.coldSolves.Load()
	s.ColdSolveTime = time.Duration(e.coldSolveNS.Load())
	s.SharedSolves = e.sharedSolves.Load()
	plans, blocks, links, nets := e.plans.stats(), e.blocks.stats(), e.netPlans.stats(), e.netBuilt.stats()
	s.FERPlans, s.FERPlanHits, s.FERPlanMisses = plans.Entries, plans.Hits, plans.Misses
	s.BlockPlans, s.BlockPlanHits, s.BlockPlanMisses = blocks.Entries, blocks.Hits, blocks.Misses
	s.LinkPlans, s.LinkPlanHits, s.LinkPlanMisses = links.Entries, links.Hits, links.Misses
	s.Networks, s.NetworkHits, s.NetworkMisses = nets.Entries, nets.Hits, nets.Misses
	return s
}

// schemeFor returns the engine's interned plan for code, compiling its FER
// plan on first use. Schemes are identified by name: two distinct codes must
// not share one.
func (e *Engine) schemeFor(code ecc.Code) *schemePlan {
	sp, _, _ := e.plans.do(code.Name(), func() (*schemePlan, error) {
		return &schemePlan{
			id:     e.lastID.Add(1),
			plan:   ecc.PlanFor(code),
			points: memo[uint64, core.CodePoint]{capacity: registryCap},
		}, nil
	})
	return *sp
}

// solveCold runs a compiled pipeline for one grid point, accounting the
// wall time under the engine's cold-solve statistics. The context is the
// evaluation's — the observer uses it to attribute the solve to a request.
func (e *Engine) solveCold(ctx context.Context, compiled *core.Compiled, sp *schemePlan, targetBER float64) (core.Evaluation, error) {
	start := time.Now()
	ev, err := sp.evaluate(compiled, targetBER)
	elapsed := time.Since(start)
	e.coldSolves.Add(1)
	e.coldSolveNS.Add(int64(elapsed))
	if e.obs != nil {
		e.obs.ColdSolve(ctx, sp.plan.Code().Name(), elapsed)
	}
	return ev, err
}

// validateBER rejects target BERs the solver cannot mean anything for —
// the BSC inversion in the ecc layer is defined on (0, 0.5), matching the
// manager's request validation.
func validateBER(targetBER float64) error {
	if math.IsNaN(targetBER) || targetBER <= 0 || targetBER >= 0.5 {
		return fmt.Errorf("%w: target BER %g outside (0, 0.5)", ErrInvalidInput, targetBER)
	}
	return nil
}

// Evaluate solves one (scheme, target BER) operating point, consulting the
// memo cache first. It satisfies core.Evaluator, so the manager, the
// traffic simulator and every experiment harness can run through the
// engine. Infeasible operating points are not errors: they return with
// Evaluation.Feasible == false, exactly like core.Compiled.Evaluate.
func (e *Engine) Evaluate(ctx context.Context, code ecc.Code, targetBER float64) (core.Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return core.Evaluation{}, err
	}
	if code == nil {
		return core.Evaluation{}, fmt.Errorf("%w: nil code", ErrInvalidInput)
	}
	if err := validateBER(targetBER); err != nil {
		return core.Evaluation{}, err
	}
	var ev core.Evaluation
	err := e.evaluateCompiled(ctx, &ev, &linkPlan{compiled: e.compiled}, e.schemeFor(code), targetBER)
	return ev, err
}

// evaluateCompiled solves one operating point of one interned link
// configuration into dst through the memo cache, keyed by the link's and the
// scheme's interned IDs. The engine's own configuration (ID 0) and every
// per-link network configuration share this path — and therefore the memo
// cache — without aliasing. Concurrent identical misses coalesce onto one
// compiled solve inside the cache, the rest sharing its result
// (CacheStats.SharedSolves). With the cache disabled every solve is cold
// and uncoalesced — that is the benchmark configuration, where each call
// must really run the pipeline.
func (e *Engine) evaluateCompiled(ctx context.Context, dst *core.Evaluation, link *linkPlan, sp *schemePlan, targetBER float64) error {
	if e.cache == nil {
		ev, err := e.solveCold(ctx, link.compiled, sp, targetBER)
		*dst = ev
		return err
	}
	key := cacheKey{link: link.id, scheme: sp.id, ber: math.Float64bits(targetBER)}
	ev, how, err := e.cache.do(key, func() (core.Evaluation, error) {
		return e.solveCold(ctx, link.compiled, sp, targetBER)
	})
	*dst = *ev
	if how == shared {
		e.sharedSolves.Add(1)
	}
	if e.obs != nil {
		if how == hit {
			e.obs.CacheHit(ctx, 0)
		} else {
			e.obs.CacheMiss(ctx, 0)
		}
		if how == shared {
			e.obs.SharedSolve(ctx)
		}
	}
	return err
}
