package engine

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/fanout"
	"photonoc/internal/noc"
)

// NetworkCandidate is one point of a design-space population: a topology,
// an optional scheme roster restriction (nil means the engine roster), and
// the evaluation options — target BER, objective, traffic, rate, DAC.
type NetworkCandidate struct {
	Topology noc.Config
	Schemes  []ecc.Code
	Opts     noc.EvalOptions
}

// NetworkSession is the engine's one network evaluator: Network,
// NetworkSweep, SimulateNetwork and the NetworkBatch family all run on
// pooled sessions. It wraps a noc.EvalSession with the solve lattice of
// the current candidate: each Evaluate builds the candidate's network,
// solves every (link, scheme, BER) cell through the engine's coalescing
// memo cache, and runs Decide and Aggregate. Links that share a
// configuration share its interned ID and so its memo entries, and a
// session's buffers grow to its largest candidate and are then reused.
//
// A session is NOT safe for concurrent use, and the Result returned by
// Evaluate aliases session-owned storage — it is valid only until the next
// Evaluate call (Clone it to keep it). The Engine methods, which hold one
// pooled session per call or per contiguous chunk of the worker pool, are
// the concurrency-safe entry points.
type NetworkSession struct {
	e    *Engine
	eval *noc.EvalSession

	schemes []*schemePlan       // the current candidate's interned roster
	flat    []core.Evaluation   // current lattice, link-major: flat[l*S+s]
	rows    [][]core.Evaluation // re-sliced views into flat, one per link
}

// NewNetworkSession returns a fresh session bound to the engine. Buffers
// grow to the largest candidate evaluated through it and are then reused.
func (e *Engine) NewNetworkSession() *NetworkSession {
	return &NetworkSession{e: e, eval: noc.NewEvalSession()}
}

// growSlice resizes buf to n elements, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Evaluate solves one candidate. The returned Result aliases session
// storage and is valid until the next call on this session; use
// noc.Result.Clone to detach it.
func (s *NetworkSession) Evaluate(ctx context.Context, cand NetworkCandidate) (*noc.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	net, err := s.solve(ctx, cand)
	if err != nil {
		return nil, err
	}
	decisions, err := s.eval.Decide(net, s.rows, cand.Opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	res, err := s.eval.Aggregate(net, decisions, cand.Opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	return res, nil
}

// solve builds the candidate's network, interns its roster and fills
// s.rows with every (link, scheme) evaluation at the candidate's target
// BER through the engine's memo cache. It returns the built network.
func (s *NetworkSession) solve(ctx context.Context, cand NetworkCandidate) (*noc.Network, error) {
	ber := cand.Opts.TargetBER
	if err := validateBER(ber); err != nil {
		return nil, err
	}
	built, err := s.e.build(cand.Topology)
	if err != nil {
		return nil, err
	}
	schemes := cand.Schemes
	if schemes == nil {
		schemes = s.e.schemes
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("%w: empty scheme roster", ErrInvalidInput)
	}
	for i, c := range schemes {
		if c == nil {
			return nil, fmt.Errorf("%w: nil code at index %d", ErrInvalidInput, i)
		}
	}
	s.schemes = s.schemes[:0]
	for _, c := range schemes {
		s.schemes = append(s.schemes, s.e.schemeFor(c))
	}

	nlinks, nschemes := len(built.links), len(s.schemes)
	s.flat = growSlice(s.flat, nlinks*nschemes)
	s.rows = growSlice(s.rows, nlinks)
	for l := range built.links {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.rows[l] = s.flat[l*nschemes : (l+1)*nschemes : (l+1)*nschemes]
		for si, sp := range s.schemes {
			if err := s.e.evaluateCompiled(ctx, &s.rows[l][si], &built.links[l], sp, ber); err != nil {
				return nil, err
			}
		}
	}
	return built.net, nil
}

// acquireSession takes a pooled session (sessions keep their grown buffers
// and laser memo across calls, so repeated batches stay warm).
func (e *Engine) acquireSession() *NetworkSession {
	if s, ok := e.sessions.Get().(*NetworkSession); ok {
		return s
	}
	return e.NewNetworkSession()
}

func (e *Engine) releaseSession(s *NetworkSession) { e.sessions.Put(s) }

// NetworkBatchEach evaluates a candidate population on the worker pool
// like NetworkBatch, but instead of collecting copies it hands each outcome
// to visit with its population index: a result on success, or — only with
// BatchOptions.ContinueOnError — a *CandidateError on failure, after which
// the batch goes on. In strict mode the first failure aborts the batch and
// is returned; visit never sees an error. The returned error is otherwise
// terminal only: cancellation, never a per-candidate failure.
//
// Lifetime: the *noc.Result passed to visit is the worker session's
// scratch, valid only for the duration of that call — the worker's next
// candidate overwrites it. Read what you need inside visit, or Clone it.
// visit runs concurrently from different workers, exactly once per
// completed candidate, so it must be safe for concurrent calls with
// distinct indices (writing slot i of a pre-sized slice is).
//
// The pool splits the population into at most Workers contiguous chunks of
// ⌈n/Workers⌉ candidates, one goroutine and one pooled session per chunk,
// so each worker keeps one session's laser memo and scratch buffers warm
// across its candidates; a strict failure cancels the other chunks.
func (e *Engine) NetworkBatchEach(ctx context.Context, cands []NetworkCandidate, visit func(i int, res *noc.Result, cerr *CandidateError), opts ...BatchOptions) error {
	if len(cands) == 0 {
		return fmt.Errorf("%w: empty candidate population", ErrInvalidInput)
	}
	continueOnError := batchOptions(opts).ContinueOnError
	chunk := (len(cands) + e.workers - 1) / e.workers
	return fanout.Chunks(ctx, e.workers, len(cands), chunk, func(ctx context.Context, lo, hi int) error {
		sess := e.acquireSession()
		defer e.releaseSession(sess)
		for i := lo; i < hi; i++ {
			res, err := sess.Evaluate(ctx, cands[i])
			if err != nil {
				// The context going down means the whole batch is being torn
				// down (cancellation or a sibling chunk's strict failure) —
				// never record that as a candidate failure.
				if continueOnError && ctx.Err() == nil {
					visit(i, nil, &CandidateError{Index: i, Err: err})
					continue
				}
				return fmt.Errorf("candidate %d: %w", i, err)
			}
			visit(i, res, nil)
		}
		return nil
	})
}

// NetworkBatch evaluates a whole candidate population across the worker
// pool and returns one Result per candidate, in population order,
// regardless of the worker count. Each contiguous chunk of the worker pool
// owns a pooled NetworkSession, and every cell goes through the coalescing
// memo cache like any other solve, so a cell another candidate already
// solved is a cache hit (CacheStats reports hits and cold solves). An
// infeasible candidate is not an error: its Result has Feasible == false.
// Returned results are deep copies, independent of the pooled sessions.
//
// By default the first candidate error — or context cancellation — aborts
// the batch with a nil slice. With BatchOptions.ContinueOnError the batch
// runs to completion instead: the returned slice holds every successful
// result (failed indices keep the zero Result), and the error is a
// *BatchErrors listing each failure as an indexed CandidateError, ordered
// by index. Cancellation stays terminal either way.
//
// NetworkBatch is NetworkBatchEach plus a Clone per result; callers that
// read a few fields per candidate should visit instead.
func (e *Engine) NetworkBatch(ctx context.Context, cands []NetworkCandidate, opts ...BatchOptions) ([]noc.Result, error) {
	out := make([]noc.Result, len(cands))
	var (
		mu    sync.Mutex
		fails []*CandidateError
	)
	if err := e.NetworkBatchEach(ctx, cands, func(i int, res *noc.Result, cerr *CandidateError) {
		if cerr != nil {
			mu.Lock()
			fails = append(fails, cerr)
			mu.Unlock()
			return
		}
		out[i] = res.Clone()
	}, opts...); err != nil {
		return nil, err
	}
	if len(fails) > 0 {
		be := &BatchErrors{Errors: fails}
		be.sortByIndex()
		return out, be
	}
	return out, nil
}

// NetworkBatchStream is the streaming variant of NetworkBatch: the
// returned iterator evaluates the population on the worker pool
// (NetworkBatchEach) when it is ranged over, and yields one result per
// candidate, detached from the pool's sessions, in population order, each
// as soon as it and all its predecessors have been evaluated: the i-th
// pair is candidate i. An empty population, a strict-mode failure or
// cancellation ends the stream with one pair carrying the error.
//
// With BatchOptions.ContinueOnError a failed candidate occupies its own
// pair, whose error is a *CandidateError (so errors.As distinguishes it
// from a terminal abort), and the stream keeps going; every candidate gets
// exactly one pair. Cancellation still ends the stream early.
//
// When the range statement ends, by a break or at the end of the stream,
// the iterator cancels the pool and waits for it, so no worker or solve
// outlives the range.
func (e *Engine) NetworkBatchStream(ctx context.Context, cands []NetworkCandidate, opts ...BatchOptions) iter.Seq2[noc.Result, error] {
	return func(yield func(noc.Result, error) bool) {
		if len(cands) == 0 {
			yield(noc.Result{}, fmt.Errorf("%w: empty candidate population", ErrInvalidInput))
			return
		}
		inOrder(ctx, len(cands), func(ctx context.Context, visit func(int, *noc.Result, *CandidateError)) error {
			return e.NetworkBatchEach(ctx, cands, visit, opts...)
		}, yield)
	}
}

// inOrder is the body of NetworkBatchStream. each visits items 0..n-1
// exactly once each, in any order and from any goroutine, as
// NetworkBatchEach does; it runs on a goroutine of its own while inOrder
// yields the items in index order, a result clone or a *CandidateError
// each, once their predecessors have been yielded. If each stops early,
// one pair carrying its error, else ctx's, else an abort error, follows
// the last item yielded. On return each's context is cancelled and inOrder
// waits for each to return.
func inOrder(ctx context.Context, n int, each func(context.Context, func(int, *noc.Result, *CandidateError)) error, yield func(noc.Result, error) bool) {
	type item struct {
		i   int
		res noc.Result
		err error
	}
	poolCtx, cancel := context.WithCancel(ctx)
	// Buffered for the whole population, so the workers never block on
	// the consumer.
	items := make(chan item, n)
	var err error
	go func() {
		defer close(items)
		err = each(poolCtx, func(i int, res *noc.Result, cerr *CandidateError) {
			if cerr != nil {
				items <- item{i: i, err: cerr}
			} else {
				items <- item{i: i, res: res.Clone()}
			}
			runtime.Gosched() // pool workers never block: let the consumer run
		})
	}()
	defer func() {
		cancel()
		for range items { // each has returned once items is closed
		}
	}()
	pending := make([]item, n)
	arrived := make([]bool, n)
	next := 0
	for it := range items {
		pending[it.i], arrived[it.i] = it, true
		for ; next < n && arrived[next]; next++ {
			if !yield(pending[next].res, pending[next].err) {
				return
			}
		}
	}
	if next < n {
		// err is visible here: each's goroutine wrote it before closing
		// items, and the range above has seen the close.
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			err = fmt.Errorf("photonoc: network batch aborted at candidate %d", next)
		}
		yield(noc.Result{}, err)
	}
}
