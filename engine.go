package photonoc

import (
	"context"
	"fmt"
	"io"
	"reflect"

	"photonoc/internal/core"
	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/mc"
	"photonoc/internal/netsim"
)

// Typed errors of the Engine API boundary.
var (
	// ErrInvalidConfig reports an Engine that cannot be constructed:
	// invalid link configuration, empty scheme roster, non-positive
	// worker count or negative cache capacity.
	ErrInvalidConfig = engine.ErrInvalidConfig
	// ErrInvalidInput reports a per-call input the Engine refuses: a nil
	// code, a target BER outside (0, 0.5), an empty sweep grid.
	ErrInvalidInput = engine.ErrInvalidInput
	// ErrInfeasible reports that no registered scheme satisfies a
	// requested operating point. It wraps manager.ErrNoFeasibleScheme,
	// so errors.Is matches either sentinel.
	ErrInfeasible = engine.ErrInfeasible
	// ErrZeroTraffic reports a NoC evaluation whose traffic matrix injects
	// no traffic (every row sums to zero): saturation and throughput
	// figures are undefined, so the evaluation is refused instead of
	// reporting +Inf rates. It rides inside the ErrInvalidInput wrap, so
	// errors.Is matches either sentinel.
	ErrZeroTraffic = engine.ErrZeroTraffic
)

// DefaultCacheEntries is the memo-cache capacity used when WithCache is not
// given.
const DefaultCacheEntries = engine.DefaultCacheEntries

// Option configures an Engine under construction; see New.
type Option = engine.Option

// MCOptions configures a Monte-Carlo validation run; see Engine.ValidateMC.
// The zero value needs at least Frames set. Same Seed + same Shards pins the
// counts exactly, regardless of Workers.
type MCOptions = mc.Options

// MCResult is the outcome of a Monte-Carlo validation run: exact error
// counts, BER/FER with 95% Wilson confidence intervals, the analytic plan
// predictions, and throughput accounting.
type MCResult = mc.Result

// CacheStats is a snapshot of the Engine's memo-cache accounting and of its
// plan and network registries' sizes, hits and misses.
type CacheStats = engine.CacheStats

// Engine is the concurrent entry point of the package: a batch evaluator
// over the (scheme × target-BER) design space with a memo
// cache keyed by (configuration fingerprint, scheme, BER), context
// propagation and typed errors. One Engine owns one immutable link
// configuration and one scheme roster; it is safe for concurrent use, and
// the manager and the traffic simulator obtained from it share its cache,
// so repeated decisions and overlapping sweeps never re-solve the optical
// budget.
//
//	eng, err := photonoc.New(
//		photonoc.WithConfig(photonoc.DefaultConfig()),
//		photonoc.WithSchemes(photonoc.PaperSchemes()...),
//		photonoc.WithWorkers(4),
//		photonoc.WithCache(1024),
//	)
//	evs, err := eng.Sweep(ctx, nil, []float64{1e-9, 1e-11})
type Engine struct {
	*engine.Engine
}

// New builds an Engine from functional options. Without options it solves
// the paper's configuration over the paper's three schemes with GOMAXPROCS
// workers and a 4096-entry cache. Construction errors wrap
// ErrInvalidConfig.
func New(opts ...Option) (*Engine, error) {
	e, err := engine.New(opts...)
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: e}, nil
}

// WithConfig sets the Engine's link configuration (default:
// DefaultConfig). The configuration is deep-copied: later mutation by the
// caller does not reach the Engine.
func WithConfig(cfg LinkConfig) Option { return engine.WithConfig(cfg) }

// WithSchemes sets the Engine's scheme roster (default: PaperSchemes).
// An explicitly empty roster is rejected.
func WithSchemes(codes ...Code) Option { return engine.WithSchemes(codes...) }

// WithWorkers sets the worker-pool size (default: GOMAXPROCS): at most
// that many goroutines claim a validation grid's points or an MC run's
// shards one at a time, in index order, and a batch's candidates in one
// contiguous chunk each (one worker runs on the caller's goroutine).
// Sweeps, network sweeps and single Network or SimulateNetwork calls run
// on the caller's goroutine: with the memo cache on, a cell costs about a
// microsecond, less than handing it to another goroutine.
func WithWorkers(n int) Option { return engine.WithWorkers(n) }

// WithCache sets the memo-cache capacity in entries; zero disables
// memoization (default: engine.DefaultCacheEntries). Without the memo,
// sweeps and network sweeps solve every cell cold, in order on one
// goroutine; NetworkBatch spreads cold network solves over the workers.
func WithCache(entries int) Option { return engine.WithCache(entries) }

// Observer receives engine instrumentation events — cold-solve durations,
// cache hits and misses, coalesced solves. Hooks run
// synchronously on the solve path from many goroutines; implementations must
// be concurrency-safe and cheap. See WithObserver.
type Observer = engine.Observer

// WithObserver installs an instrumentation observer (default: none). A nil
// observer costs one pointer comparison per event site — the hot-path
// zero-allocation guarantees are unaffected.
func WithObserver(o Observer) Option { return engine.WithObserver(o) }

// Manager builds a runtime link manager whose per-request link solves go
// through this Engine — every Configure decision hits the Engine's memo
// cache. The manager shares the Engine's configuration and scheme roster.
func (e *Engine) Manager(dac DAC) (*Manager, error) {
	cfg := e.Config()
	return manager.NewWithEvaluator(&cfg, e.Schemes(), dac, e.Engine)
}

// adoptSimConfig enforces the simulation configuration contract: cfg.Link
// must either be the zero value (the Engine's configuration is adopted) or
// match the Engine's configuration exactly, and a nil cfg.Schemes roster
// defaults to the Engine's.
func (e *Engine) adoptSimConfig(cfg SimConfig) (SimConfig, error) {
	if reflect.ValueOf(cfg.Link).IsZero() {
		cfg.Link = e.Config()
	} else if engine.Fingerprint(cfg.Link) != e.ConfigFingerprint() {
		return SimConfig{}, fmt.Errorf(
			"%w: simulation link config differs from the engine's (set cfg.Link = eng.Config() or leave it zero)",
			ErrInvalidConfig)
	}
	if cfg.Schemes == nil {
		cfg.Schemes = e.Schemes()
	}
	return cfg, nil
}

// Simulate runs the discrete-event traffic simulator on this Engine: the
// run solves its roster once through the Engine's cache, and the manager
// decides every transfer from it. cfg.Link must either be the zero value
// (the Engine's configuration is used) or match the Engine's configuration
// exactly; a nil cfg.Schemes roster defaults to the Engine's. Cancellation
// of ctx aborts workload generation and the event loop.
func (e *Engine) Simulate(ctx context.Context, cfg SimConfig) (SimResults, error) {
	cfg, err := e.adoptSimConfig(cfg)
	if err != nil {
		return SimResults{}, err
	}
	return netsim.RunCtx(ctx, cfg, e.Engine)
}

// RecordSimTrace generates (without simulating) the arrival trace the
// configured workload would produce, under the same configuration
// contract as Simulate — a reusable artifact for SimulateTrace. Large
// workloads are materialized in memory; cancellation of ctx aborts the
// generation.
func (e *Engine) RecordSimTrace(ctx context.Context, cfg SimConfig) (SimTrace, error) {
	cfg, err := e.adoptSimConfig(cfg)
	if err != nil {
		return nil, err
	}
	return netsim.RecordTraceCtx(ctx, cfg)
}

// SimulateTrace replays a recorded traffic trace through this Engine,
// under the same configuration contract as Simulate.
func (e *Engine) SimulateTrace(ctx context.Context, cfg SimConfig, tr SimTrace) (SimResults, error) {
	cfg, err := e.adoptSimConfig(cfg)
	if err != nil {
		return SimResults{}, err
	}
	return netsim.RunTraceCtx(ctx, cfg, tr, e.Engine)
}

// ParetoFront filters evaluations (all at the same target BER) down to the
// non-dominated (CT, Pchannel) set, sorted by increasing CT.
func ParetoFront(evals []Evaluation) []Evaluation { return core.ParetoFront(evals) }

// LoadConfig parses a configuration written by LinkConfig.SaveConfig and
// validates it.
func LoadConfig(r io.Reader) (LinkConfig, error) { return core.LoadConfig(r) }
