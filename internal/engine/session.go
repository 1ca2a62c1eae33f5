package engine

import (
	"context"
	"fmt"
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
// NetworkSweep and SimulateNetwork run on pooled sessions they invalidate
// first, while the NetworkBatch family keeps its sessions warm across
// candidates. It wraps a noc.EvalSession with the solve lattice of the
// previous candidate, and on each Evaluate diffs the new candidate
// against it by each link's interned configuration ID: a link whose ID
// appeared in the previous candidate (same roster, same target BER) reuses
// that candidate's solved evaluations outright — no pipeline, no
// memo-cache lookup — and only the changed (link, scheme, BER) cells are
// solved, through the engine's coalescing memo cache.
// Results are bit-identical to a cold full evaluation: reused cells carry
// the exact values the same (link, scheme, BER) solve produces, and
// Decide/Aggregate run the identical code either way.
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

	// Previous-candidate state for the diff. prevNet is nil when there is
	// nothing valid to diff against (fresh session, or the last Evaluate
	// failed partway).
	prevNet     *noc.Network
	prevBER     float64
	prevSchemes []uint64       // interned scheme IDs of the roster
	prevIndex   map[uint64]int // interned link ID → link index in prevFlat
	prevFlat    []core.Evaluation
}

// NewNetworkSession returns a fresh session bound to the engine. Buffers
// grow to the largest candidate evaluated through it and are then reused.
func (e *Engine) NewNetworkSession() *NetworkSession {
	return &NetworkSession{
		e:         e,
		eval:      noc.NewEvalSession(),
		prevIndex: make(map[uint64]int, 16),
	}
}

// growSlice resizes buf to n elements, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// invalidate forgets the previous candidate after a failed or partial
// evaluation, so the next Evaluate diffs against nothing.
func (s *NetworkSession) invalidate() {
	s.prevNet = nil
}

// sameRoster reports whether the current roster matches the previous
// candidate's, by interned scheme ID.
func (s *NetworkSession) sameRoster() bool {
	if len(s.schemes) != len(s.prevSchemes) {
		return false
	}
	for i, sp := range s.schemes {
		if sp.id != s.prevSchemes[i] {
			return false
		}
	}
	return true
}

// Evaluate solves one candidate, reusing the previous candidate's solved
// cells for every link configuration the two share. The returned Result
// aliases session storage and is valid until the next call on this
// session; use noc.Result.Clone to detach it.
func (s *NetworkSession) Evaluate(ctx context.Context, cand NetworkCandidate) (*noc.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	built, err := s.solve(ctx, cand)
	if err != nil {
		return nil, err
	}
	net := built.net
	decisions, err := s.eval.Decide(net, s.rows, cand.Opts)
	if err != nil {
		s.invalidate()
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	res, err := s.eval.Aggregate(net, decisions, cand.Opts)
	if err != nil {
		s.invalidate()
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}

	// Roll the lattice into the previous-candidate slot for the next diff.
	s.prevNet = net
	s.prevBER = cand.Opts.TargetBER
	s.prevSchemes = s.prevSchemes[:0]
	for _, sp := range s.schemes {
		s.prevSchemes = append(s.prevSchemes, sp.id)
	}
	clear(s.prevIndex)
	for l := range built.links {
		s.prevIndex[built.links[l].id] = l
	}
	s.flat, s.prevFlat = s.prevFlat, s.flat
	return res, nil
}

// solve builds the candidate's network, interns its roster and fills
// s.rows with every (link, scheme) evaluation at the candidate's target
// BER: cells the previous candidate solved are copied, the rest go through
// the engine's memo cache. It returns the build; the previous-candidate
// state is left for Evaluate to roll over.
func (s *NetworkSession) solve(ctx context.Context, cand NetworkCandidate) (*builtNet, error) {
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
	for l := 0; l < nlinks; l++ {
		s.rows[l] = s.flat[l*nschemes : (l+1)*nschemes : (l+1)*nschemes]
	}

	// The diff is valid only against a lattice solved for the same roster
	// and target BER; the traffic matrix, rate, objective and DAC do not
	// enter the solve cells, so they may differ freely between neighbors.
	diffOK := s.prevNet != nil && s.prevBER == ber && s.sameRoster()
	reusedCells := 0
	for l := range built.links {
		if err := ctx.Err(); err != nil {
			s.invalidate()
			return nil, err
		}
		link := &built.links[l]
		if diffOK {
			if pi, ok := s.prevIndex[link.id]; ok {
				copy(s.rows[l], s.prevFlat[pi*nschemes:(pi+1)*nschemes])
				reusedCells += nschemes
				continue
			}
		}
		for si, sp := range s.schemes {
			if err := s.e.evaluateCompiled(ctx, &s.rows[l][si], link, sp, ber); err != nil {
				s.invalidate()
				return nil, err
			}
		}
	}
	if reusedCells > 0 {
		s.e.sessionReuses.Add(uint64(reusedCells))
		if s.e.obs != nil {
			s.e.obs.SessionReuse(ctx, reusedCells)
		}
	}
	return built, nil
}

// acquireSession takes a pooled session (sessions keep their grown buffers
// and previous-candidate lattice across batches, so repeated batches over
// similar populations stay warm).
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
// so neighboring candidates land on the same session and the link diff
// sees the chain locality autotuner populations have; a strict
// failure cancels the other chunks.
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
// owns a pooled NetworkSession, so within a chunk every candidate is
// solved incrementally against its predecessor; cells no session can reuse
// go through the coalescing memo cache like any other solve
// (CacheStats reports both, plus SessionReuses for the diffed cells). An
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

// NetworkBatchStream is the streaming variant of NetworkBatch: it returns
// immediately with a channel yielding one NetworkResult per candidate, in
// population order, as soon as each candidate (and all its predecessors)
// has been evaluated. The channel is buffered for the whole population, so
// the producer never blocks and abandoning the stream leaks nothing. On
// error or cancellation the stream ends early with a final NetworkResult
// carrying Err; the channel is always closed.
//
// With BatchOptions.ContinueOnError a failed candidate occupies its own
// slot in the stream — a NetworkResult whose Err is a *CandidateError (so
// errors.As distinguishes it from a terminal abort) — and the stream keeps
// going; every candidate gets exactly one item. Cancellation still ends the
// stream early with a terminal Err.
func (e *Engine) NetworkBatchStream(ctx context.Context, cands []NetworkCandidate, opts ...BatchOptions) <-chan NetworkResult {
	if len(cands) == 0 {
		return failed(NetworkResult{Err: fmt.Errorf("%w: empty candidate population", ErrInvalidInput)})
	}
	return ordered(ctx, len(cands), func(emit func(int, NetworkResult)) error {
		return e.NetworkBatchEach(ctx, cands, func(i int, res *noc.Result, cerr *CandidateError) {
			if cerr != nil {
				emit(i, NetworkResult{Index: i, TargetBER: cands[i].Opts.TargetBER, Err: cerr})
				return
			}
			emit(i, NetworkResult{Index: i, TargetBER: res.TargetBER, Result: res.Clone()})
		}, opts...)
	}, func(next int, err error) NetworkResult {
		if err == nil {
			err = fmt.Errorf("photonoc: network batch aborted at candidate %d", next)
		}
		return NetworkResult{Index: next, TargetBER: cands[next].Opts.TargetBER, Err: err}
	})
}
