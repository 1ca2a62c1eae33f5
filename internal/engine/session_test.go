package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// hotspot builds a row-normalized matrix concentrating 60% of every
// source's traffic on tile 0.
func hotspot(tiles int) noc.Matrix {
	m := make(noc.Matrix, tiles)
	for s := range m {
		m[s] = make([]float64, tiles)
		if s == 0 {
			w := 1 / float64(tiles-1)
			for d := 1; d < tiles; d++ {
				m[s][d] = w
			}
			continue
		}
		for d := 0; d < tiles; d++ {
			switch {
			case d == s:
			case d == 0:
				m[s][d] = 0.6
			default:
				m[s][d] = 0.4 / float64(tiles-2)
			}
		}
	}
	return m
}

// candidateChain builds a deterministic mutate-one-knob walk through the
// design space: each step changes exactly one of topology kind, tile
// count, scheme roster, DAC, traffic pattern or target BER — the
// neighboring-candidate structure an autotuner produces.
func candidateChain(codes []ecc.Code, n int, seed int64) []NetworkCandidate {
	rng := rand.New(rand.NewSource(seed))
	dac := manager.PaperDAC()
	topos := []noc.Config{
		{Kind: noc.Crossbar, Tiles: 16},
		{Kind: noc.Crossbar, Tiles: 12},
		{Kind: noc.Mesh, Tiles: 16},
		{Kind: noc.Ring, Tiles: 8},
	}
	rosters := [][]ecc.Code{nil, codes[:2], codes[2:]}
	bers := []float64{1e-9, 1e-11}

	cur := NetworkCandidate{
		Topology: topos[0],
		Opts:     noc.EvalOptions{TargetBER: bers[0], Objective: manager.MinEnergy},
	}
	out := make([]NetworkCandidate, 0, n)
	out = append(out, cur)
	for len(out) < n {
		switch rng.Intn(5) {
		case 0:
			cur.Topology = topos[rng.Intn(len(topos))]
		case 1:
			cur.Schemes = rosters[rng.Intn(len(rosters))]
		case 2:
			if cur.Opts.DAC == nil {
				cur.Opts.DAC = &dac
			} else {
				cur.Opts.DAC = nil
			}
		case 3:
			if cur.Opts.Traffic == nil {
				cur.Opts.Traffic = hotspot(cur.Topology.Tiles)
			} else {
				cur.Opts.Traffic = nil
			}
		case 4:
			cur.Opts.TargetBER = bers[rng.Intn(len(bers))]
		}
		// A hotspot matrix pinned to a previous tile count cannot follow a
		// topology mutation; re-derive it like an autotuner would.
		if cur.Opts.Traffic != nil && len(cur.Opts.Traffic) != cur.Topology.Tiles {
			cur.Opts.Traffic = hotspot(cur.Topology.Tiles)
		}
		out = append(out, cur)
	}
	return out
}

// coldReference evaluates one candidate from scratch on a cache-disabled
// single-worker engine: every link is re-solved through the full compiled
// pipeline, with no memoization and no session. Engines are keyed by
// roster since an Engine's roster is fixed at construction.
type coldReference struct {
	t       *testing.T
	codes   []ecc.Code
	engines map[string]*Engine
}

func newColdReference(t *testing.T, codes []ecc.Code) *coldReference {
	return &coldReference{t: t, codes: codes, engines: make(map[string]*Engine)}
}

func (c *coldReference) engineFor(schemes []ecc.Code) *Engine {
	if schemes == nil {
		schemes = c.codes
	}
	key := ""
	for _, code := range schemes {
		key += code.Name() + "|"
	}
	if e, ok := c.engines[key]; ok {
		return e
	}
	e, err := New(WithConfig(core.DefaultConfig()), WithSchemes(schemes...), WithWorkers(1), WithCache(0))
	if err != nil {
		c.t.Fatal(err)
	}
	c.engines[key] = e
	return e
}

func (c *coldReference) evaluate(cand NetworkCandidate) noc.Result {
	res, err := c.engineFor(cand.Schemes).Network(context.Background(), cand.Topology, cand.Opts)
	if err != nil {
		c.t.Fatal(err)
	}
	return res
}

// TestNetworkSessionMatchesColdEvaluation is the incremental-vs-cold
// property test: a session walking a random mutation sequence (topology
// kind, tile count, roster, DAC, traffic, BER) must produce results
// bit-identical to a from-scratch, cache-disabled full evaluation of each
// candidate, for several seeds.
func TestNetworkSessionMatchesColdEvaluation(t *testing.T) {
	codes := ecc.PaperSchemes()
	ref := newColdReference(t, codes)
	for _, seed := range []int64{1, 2, 3} {
		cands := candidateChain(codes, 24, seed)
		e := newNetEngine(t, codes, WithWorkers(1))
		sess := e.NewNetworkSession()
		for i, cand := range cands {
			got, err := sess.Evaluate(context.Background(), cand)
			if err != nil {
				t.Fatalf("seed %d candidate %d: %v", seed, i, err)
			}
			want := ref.evaluate(cand)
			if !reflect.DeepEqual(got.Clone(), want) {
				t.Fatalf("seed %d candidate %d: incremental result differs from cold evaluation:\n%+v\nvs\n%+v", seed, i, *got, want)
			}
		}
	}
}

// TestNetworkBatchMatchesColdAndIsDeterministic: NetworkBatch over the
// mutation chain equals the cold per-candidate reference, identically at
// Workers = 1, 2, 4 (the -race run of this test is the race-cleanliness
// half of the property).
func TestNetworkBatchMatchesColdAndIsDeterministic(t *testing.T) {
	codes := ecc.PaperSchemes()
	cands := candidateChain(codes, 24, 42)
	ref := newColdReference(t, codes)
	want := make([]noc.Result, len(cands))
	for i, cand := range cands {
		want[i] = ref.evaluate(cand)
	}
	for _, workers := range []int{1, 2, 4} {
		e := newNetEngine(t, codes, WithWorkers(workers))
		got, err := e.NetworkBatch(context.Background(), cands)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch results differ from cold reference", workers)
		}
	}
}

// TestNetworkBatchStreamOrderAndParity: the stream yields every candidate
// in population order with results identical to the batch call.
func TestNetworkBatchStreamOrderAndParity(t *testing.T) {
	codes := ecc.PaperSchemes()
	cands := candidateChain(codes, 12, 7)
	e := newNetEngine(t, codes, WithWorkers(4))
	batch, err := e.NetworkBatch(context.Background(), cands)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for res, err := range e.NetworkBatchStream(context.Background(), cands) {
		if err != nil {
			t.Fatalf("stream item %d: %v", i, err)
		}
		if res.TargetBER != cands[i].Opts.TargetBER {
			t.Fatalf("stream item %d has BER %g, want %g", i, res.TargetBER, cands[i].Opts.TargetBER)
		}
		if !reflect.DeepEqual(res, batch[i]) {
			t.Fatalf("stream item %d differs from batch", i)
		}
		i++
	}
	if i != len(cands) {
		t.Fatalf("stream yielded %d results, want %d", i, len(cands))
	}
}

// TestNetworkBatchErrors: invalid inputs and cancellation surface with the
// typed errors, in both the batch call and the stream's terminal item.
func TestNetworkBatchErrors(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes, WithWorkers(2))
	good := NetworkCandidate{
		Topology: noc.Config{Kind: noc.Crossbar, Tiles: 8},
		Opts:     noc.EvalOptions{TargetBER: 1e-9, Objective: manager.MinEnergy},
	}

	if _, err := e.NetworkBatch(context.Background(), nil); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("empty population error = %v, want ErrInvalidInput", err)
	}
	bad := good
	bad.Opts.TargetBER = 0.7
	if _, err := e.NetworkBatch(context.Background(), []NetworkCandidate{good, bad}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("bad BER error = %v, want ErrInvalidInput", err)
	}
	badTopo := good
	badTopo.Topology = noc.Config{Kind: noc.Ring, Tiles: 99}
	if _, err := e.NetworkBatch(context.Background(), []NetworkCandidate{good, badTopo}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("bad topology error = %v, want ErrInvalidConfig", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cands := []NetworkCandidate{good, good, good, good}
	if _, err := e.NetworkBatch(ctx, cands); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled batch error = %v, want context.Canceled", err)
	}
	var last error
	for _, err := range e.NetworkBatchStream(ctx, cands) {
		last = err
	}
	if !errors.Is(last, context.Canceled) {
		t.Errorf("stream terminal error = %v, want context.Canceled", last)
	}
	var empty error
	for _, err := range e.NetworkBatchStream(context.Background(), nil) {
		empty = err
	}
	if !errors.Is(empty, ErrInvalidInput) {
		t.Errorf("empty-population stream error = %v, want ErrInvalidInput", empty)
	}

	// A failed evaluation leaves nothing behind; the next batch on the
	// same (pooled) sessions must still match a cold evaluation.
	res, err := e.NetworkBatch(context.Background(), []NetworkCandidate{good})
	if err != nil {
		t.Fatal(err)
	}
	want := newColdReference(t, codes).evaluate(good)
	if !reflect.DeepEqual(res[0], want) {
		t.Fatal("post-error batch result differs from cold evaluation")
	}
}

// TestNetworkSessionRepeatsAreMemoHits: repeating one candidate serves every
// solve cell from the memo cache — no new cold solves or misses, and Hits
// advancing by links × schemes per repetition.
func TestNetworkSessionRepeatsAreMemoHits(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes, WithWorkers(1))
	sess := e.NewNetworkSession()
	cand := NetworkCandidate{
		Topology: noc.Config{Kind: noc.Crossbar, Tiles: 16},
		Opts:     noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy},
	}
	if _, err := sess.Evaluate(context.Background(), cand); err != nil {
		t.Fatal(err)
	}
	warm := e.CacheStats()
	const reps = 5
	for i := 0; i < reps; i++ {
		if _, err := sess.Evaluate(context.Background(), cand); err != nil {
			t.Fatal(err)
		}
	}
	stats := e.CacheStats()
	if stats.ColdSolves != warm.ColdSolves {
		t.Errorf("repeats ran %d cold solves, want 0", stats.ColdSolves-warm.ColdSolves)
	}
	if stats.Misses != warm.Misses {
		t.Errorf("repeats missed the memo cache %d times, want 0", stats.Misses-warm.Misses)
	}
	if want := warm.Hits + uint64(reps*16*len(codes)); stats.Hits != want {
		t.Errorf("Hits = %d, want %d", stats.Hits, want)
	}
}

// TestInternNeverAliases drives one engine over more distinct link
// configurations than a registry holds — 4-tile crossbars at 200 pitches,
// four distinct link lengths each — twice over, on two workers, so the
// link registry flushes and meets configurations again while the memo
// cache and the sessions still hold cells keyed by the IDs handed out
// before the flush. Every result must equal a cache-less engine's bit for
// bit: an ID reused after a flush would serve one configuration's cells
// for another.
func TestInternNeverAliases(t *testing.T) {
	codes := ecc.PaperSchemes()
	var cands []NetworkCandidate
	for i := 0; i < 200; i++ {
		cands = append(cands, NetworkCandidate{
			Topology: noc.Config{Kind: noc.Crossbar, Tiles: 4, TilePitchCM: 0.1 + 0.004*float64(i)},
			Opts:     noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy},
		})
	}
	cands = append(cands, cands...)

	e := newNetEngine(t, codes, WithWorkers(2))
	got, err := e.NetworkBatch(context.Background(), cands)
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]bool{}
	for _, c := range cands[:200] {
		net, err := e.BuildNetwork(c.Topology)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range net.Links() {
			fps[core.Fingerprint(l.Config())] = true
		}
	}
	if len(fps) <= registryCap || e.CacheStats().LinkPlans >= len(fps) {
		t.Fatalf("%d distinct link configurations, %d link plans held: the registry never flushed", len(fps), e.CacheStats().LinkPlans)
	}

	ref := newNetEngine(t, codes, WithWorkers(2), WithCache(0))
	want, err := ref.NetworkBatch(context.Background(), cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("candidate %d (pitch %g cm) differs from the cache-less engine", i, cands[i].Topology.TilePitchCM)
		}
	}
}

// TestNetworkSessionZeroAlloc is the allocation-regression pin of the
// autotuner fast path: steady-state session evaluation — cycling through
// warmed candidates, each re-filled from the memo cache, one of them a
// mesh whose lasers a DAC programs from the session's laser memo —
// allocates nothing per evaluation.
func TestNetworkSessionZeroAlloc(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes, WithWorkers(1))
	sess := e.NewNetworkSession()
	ctx := context.Background()
	a := NetworkCandidate{
		Topology: noc.Config{Kind: noc.Crossbar, Tiles: 16},
		Opts:     noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy},
	}
	b := a
	b.Topology.Tiles = 12
	dac := manager.PaperDAC()
	c := NetworkCandidate{
		Topology: noc.Config{Kind: noc.Mesh, Tiles: 16, Columns: 4},
		Opts:     noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, DAC: &dac},
	}
	run := func() {
		for _, cand := range []NetworkCandidate{a, b, c} {
			if _, err := sess.Evaluate(ctx, cand); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm: builds, compiles and caches both shapes
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("steady-state session evaluation allocated %.1f times per run, want 0", allocs)
	}
}

// TestNetworkBatchContinueOnError: partial-failure mode evaluates every
// good candidate to the same bits as a cold reference, records each bad one
// as an indexed CandidateError inside a *BatchErrors, and multi-unwraps so
// errors.Is classification reaches every record.
func TestNetworkBatchContinueOnError(t *testing.T) {
	codes := ecc.PaperSchemes()
	ref := newColdReference(t, codes)
	good := candidateChain(codes, 8, 5)
	badBER := good[0]
	badBER.Opts.TargetBER = 0.7
	badTopo := good[0]
	badTopo.Topology = noc.Config{Kind: noc.Ring, Tiles: 99}
	cands := make([]NetworkCandidate, 0, 10)
	cands = append(cands, good[:3]...)
	cands = append(cands, badBER)
	cands = append(cands, good[3:6]...)
	cands = append(cands, badTopo)
	cands = append(cands, good[6:]...)
	badIdx := map[int]bool{3: true, 7: true}

	for _, workers := range []int{1, 4} {
		e := newNetEngine(t, codes, WithWorkers(workers))
		res, err := e.NetworkBatch(context.Background(), cands, BatchOptions{ContinueOnError: true})
		var be *BatchErrors
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err = %v, want *BatchErrors", workers, err)
		}
		if len(be.Errors) != 2 || be.Errors[0].Index != 3 || be.Errors[1].Index != 7 {
			t.Fatalf("workers=%d: failure records %+v, want indices 3 and 7", workers, be.Errors)
		}
		if !errors.Is(be.Errors[0], ErrInvalidInput) || !errors.Is(be.Errors[1], ErrInvalidConfig) {
			t.Fatalf("workers=%d: record causes %v / %v", workers, be.Errors[0], be.Errors[1])
		}
		// Multi-unwrap: the aggregate matches both sentinels.
		if !errors.Is(err, ErrInvalidInput) || !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("workers=%d: aggregate does not multi-unwrap: %v", workers, err)
		}
		if len(res) != len(cands) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(cands))
		}
		gi := 0
		for i, r := range res {
			if badIdx[i] {
				var zero noc.Result
				if !reflect.DeepEqual(r, zero) {
					t.Fatalf("workers=%d: failed index %d has a non-zero result", workers, i)
				}
				continue
			}
			if want := ref.evaluate(good[gi]); !reflect.DeepEqual(r, want) {
				t.Fatalf("workers=%d: partial-mode result %d differs from cold reference", workers, i)
			}
			gi++
		}
	}
}

// TestNetworkBatchStreamContinueOnError: in partial mode every candidate
// gets exactly one stream slot in order — failures as *CandidateError items
// — while cancellation stays terminal.
func TestNetworkBatchStreamContinueOnError(t *testing.T) {
	codes := ecc.PaperSchemes()
	e := newNetEngine(t, codes, WithWorkers(4))
	good := NetworkCandidate{
		Topology: noc.Config{Kind: noc.Crossbar, Tiles: 8},
		Opts:     noc.EvalOptions{TargetBER: 1e-9, Objective: manager.MinEnergy},
	}
	bad := good
	bad.Opts.TargetBER = 0.7
	cands := []NetworkCandidate{good, bad, good, bad, good}

	batch, berr := e.NetworkBatch(context.Background(), cands, BatchOptions{ContinueOnError: true})
	if berr == nil {
		t.Fatal("batch reported no failures")
	}
	i := 0
	for res, err := range e.NetworkBatchStream(context.Background(), cands, BatchOptions{ContinueOnError: true}) {
		if i == 1 || i == 3 {
			var ce *CandidateError
			if !errors.As(err, &ce) || ce.Index != i || !errors.Is(ce, ErrInvalidInput) {
				t.Fatalf("stream item %d: err = %v, want indexed CandidateError(ErrInvalidInput)", i, err)
			}
		} else {
			if err != nil {
				t.Fatalf("stream item %d: unexpected error %v", i, err)
			}
			if !reflect.DeepEqual(res, batch[i]) {
				t.Fatalf("stream item %d differs from batch result", i)
			}
		}
		i++
	}
	if i != len(cands) {
		t.Fatalf("stream yielded %d items, want %d", i, len(cands))
	}

	// Cancellation is terminal even in partial mode: no CandidateError
	// wrapping, the stream just ends with context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last error
	n := 0
	for _, err := range e.NetworkBatchStream(ctx, cands, BatchOptions{ContinueOnError: true}) {
		last = err
		n++
	}
	var ce *CandidateError
	if !errors.Is(last, context.Canceled) || errors.As(last, &ce) {
		t.Fatalf("canceled partial stream: last err = %v after %d items", last, n)
	}
	if _, err := e.NetworkBatch(ctx, cands, BatchOptions{ContinueOnError: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled partial batch err = %v", err)
	}
}

// TestNetworkBatchStreamMidCancellation: a population whose first
// candidate is cached and whose every other candidate blocks in its cold
// solves until cancellation; cancelling after the first delivered result
// must end the stream early with a Canceled item.
func TestNetworkBatchStreamMidCancellation(t *testing.T) {
	o := &blockingObserver{}
	e := newNetEngine(t, ecc.PaperSchemes(), WithWorkers(4), WithObserver(o))
	cands := make([]NetworkCandidate, 40)
	for i := range cands {
		cands[i] = NetworkCandidate{
			Topology: noc.Config{Kind: noc.Ring, Tiles: 8},
			Opts:     noc.EvalOptions{TargetBER: 1e-11 * float64(i+1)},
		}
	}
	if _, err := e.Network(context.Background(), cands[0].Topology, cands[0].Opts); err != nil {
		t.Fatal(err)
	}
	o.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	var terminal error
	for _, err := range e.NetworkBatchStream(ctx, cands) {
		if err != nil {
			terminal = err
			break
		}
		delivered++
		if delivered == 1 {
			cancel()
		}
	}
	if delivered >= len(cands) {
		t.Fatalf("cancellation did not stop the batch: %d/%d delivered", delivered, len(cands))
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Errorf("terminal stream error = %v, want context.Canceled", terminal)
	}
}

// TestNetworkBatchStreamEarlyBreak: breaking out of a batch stream cancels
// the pool and waits for it. The first candidate is cached and every other
// one parks in its first cold solve until its context ends. The parent
// context ends only after 5 s, so the range returns sooner only if the
// break cancelled the pool, and no worker or solve outlives it.
func TestNetworkBatchStreamEarlyBreak(t *testing.T) {
	o := &blockingObserver{}
	e := newNetEngine(t, ecc.PaperSchemes(), WithWorkers(4), WithObserver(o))
	cands := make([]NetworkCandidate, 40)
	for i := range cands {
		cands[i] = NetworkCandidate{
			Topology: noc.Config{Kind: noc.Ring, Tiles: 8},
			Opts:     noc.EvalOptions{TargetBER: 1e-11 * float64(i+1)},
		}
	}
	if _, err := e.Network(context.Background(), cands[0].Topology, cands[0].Opts); err != nil {
		t.Fatal(err)
	}
	warm := e.CacheStats().ColdSolves
	o.armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	cold := breakAfterFirst(t, e, e.NetworkBatchStream(ctx, cands))
	if d := time.Since(start); d > 4*time.Second {
		t.Fatalf("the range ended after %v: the break did not cancel the pool", d)
	}
	// A session checks its context between links, so each worker solves
	// at most the roster of the link it was parked in.
	if limit := uint64(e.Workers() * len(ecc.PaperSchemes())); cold-warm > limit {
		t.Fatalf("%d cold solves after the first candidate, want at most %d", cold-warm, limit)
	}
}
