package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"photonoc"
	"photonoc/internal/onocd"
)

// serveItem is one request of the serve-warm working set and the
// in-process evaluation its response must equal.
type serveItem struct {
	sweep *onocd.SweepRequest
	noc   *onocd.NoCRequest

	wantSweep []photonoc.Evaluation
	wantNoC   photonoc.NoCResult
}

// serveWorkingSet is the fixed set of requests serve-warm draws from: nine
// single-BER roster sweeps, the three single-scheme sweeps the Section V-C
// headline needs, and five topologies evaluated at two BERs.
func serveWorkingSet() []serveItem {
	var items []serveItem
	for _, ber := range []float64{1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12} {
		items = append(items, serveItem{sweep: &onocd.SweepRequest{TargetBERs: []float64{ber}}})
	}
	for _, c := range photonoc.PaperSchemes() {
		items = append(items, serveItem{sweep: &onocd.SweepRequest{Schemes: []string{c.Name()}, TargetBERs: []float64{1e-11}}})
	}
	topos := []onocd.NoCRequest{
		{Topology: "bus", Tiles: 12},
		{Topology: "ring", Tiles: 16},
		{Topology: "mesh", Tiles: 16, Columns: 4},
		{Topology: "mesh", Tiles: 8, Columns: 2},
		{Topology: "crossbar", Tiles: 8},
	}
	for _, t := range topos {
		for _, ber := range []float64{1e-9, 1e-11} {
			req := t
			req.TargetBER = ber
			req.Objective = "min-energy"
			items = append(items, serveItem{noc: &req})
		}
	}
	return items
}

// serveWarm is the serve-warm workload: an in-process onocd daemon on
// loopback under a closed loop of two clients sharing two connections.
type serveWarm struct {
	cfg   config
	tr    *tracer
	items []serveItem

	hs        *http.Server
	served    chan struct{}
	base      string
	transport *http.Transport
	hc        *http.Client
	client    *onocd.Client

	// Counted by the handler wrapper.
	requests  atomic.Int64
	respBytes atomic.Int64
}

func newServeWarm(cfg config, tr *tracer) workload { return &serveWarm{cfg: cfg, tr: tr} }

// Headers that carry the client's op and span to the handler wrapper.
const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// setup boots a daemon with default options, computes the expected
// evaluations in process, and fills the daemon's cache with one request per
// working-set item, checking each response.
func (w *serveWarm) setup(ctx context.Context) error {
	w.close()
	srv, err := onocd.NewServer(onocd.Options{})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Every run, traced or not, serves through the same wrapper and
	// transport, so an untraced pass costs what a --trace 0 run costs.
	w.hs = &http.Server{Handler: w.wrap(srv.Handler())}
	w.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		hs.Serve(l) //nolint:errcheck // returns ErrServerClosed on close
	}(w.hs, w.served)
	w.base = "http://" + l.Addr().String()

	w.transport = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	w.hc = &http.Client{Transport: opTransport{w.transport}}
	w.client = onocd.NewClient(w.base)
	w.client.HTTP = w.hc

	if w.items, err = w.expected(ctx); err != nil {
		return err
	}
	for i := range w.items {
		if err := w.call(ctx, i); err != nil {
			return fmt.Errorf("cold fill of item %d: %w", i, err)
		}
	}
	return nil
}

// expected evaluates the working set on an in-process Engine with the
// daemon's defaults.
func (w *serveWarm) expected(ctx context.Context) ([]serveItem, error) {
	eng, err := photonoc.New()
	if err != nil {
		return nil, err
	}
	items := serveWorkingSet()
	for i := range items {
		it := &items[i]
		if it.sweep != nil {
			codes, err := onocd.ResolveSchemes(it.sweep.Schemes)
			if err != nil {
				return nil, err
			}
			if it.wantSweep, err = eng.Sweep(ctx, codes, it.sweep.TargetBERs); err != nil {
				return nil, err
			}
			continue
		}
		kind, err := photonoc.ParseNoCKind(it.noc.Topology)
		if err != nil {
			return nil, err
		}
		it.wantNoC, err = eng.Network(ctx,
			photonoc.NoCConfig{Kind: kind, Tiles: it.noc.Tiles, Columns: it.noc.Columns},
			photonoc.NoCEvalOptions{TargetBER: it.noc.TargetBER, Objective: photonoc.MinEnergy})
		if err != nil {
			return nil, err
		}
		if !it.wantNoC.Feasible {
			return nil, fmt.Errorf("working-set topology %s/%d infeasible: %s", it.noc.Topology, it.noc.Tiles, it.wantNoC.InfeasibleReason)
		}
	}
	return items, nil
}

// corrupt perturbs the expected evaluation op 0 is checked against.
func (w *serveWarm) corrupt() {
	it := &w.items[w.item(0)]
	if it.sweep != nil {
		it.wantSweep[0].LaserPowerW *= 1 + 1e-9
	} else {
		it.wantNoC.MeanLatencySec *= 1 + 1e-9
	}
}

// serveResp is the daemon's answer to one working-set item.
type serveResp struct {
	sweep onocd.SweepResponse
	noc   photonoc.NoCResult
}

// call sends working-set item i through the client and checks the
// response against the in-process evaluation.
func (w *serveWarm) call(ctx context.Context, i int) error {
	resp, err := w.fetch(ctx, i)
	if err != nil {
		return err
	}
	return w.verify(i, &resp)
}

// fetch sends working-set item i through the client.
func (w *serveWarm) fetch(ctx context.Context, i int) (resp serveResp, err error) {
	it := &w.items[i]
	if it.sweep != nil {
		resp.sweep, err = w.client.Sweep(ctx, *it.sweep)
	} else {
		resp.noc, err = w.client.NetworkEval(ctx, *it.noc)
	}
	return resp, err
}

// verify checks the daemon's answer to item i against the in-process
// evaluation.
func (w *serveWarm) verify(i int, resp *serveResp) error {
	it := &w.items[i]
	if it.sweep != nil {
		if len(resp.sweep.Evaluations) != len(it.wantSweep) {
			return fmt.Errorf("sweep returned %d evaluations, want %d", len(resp.sweep.Evaluations), len(it.wantSweep))
		}
		for k, wire := range resp.sweep.Evaluations {
			if !sameWireEval(&wire, &it.wantSweep[k]) {
				return fmt.Errorf("sweep evaluation %d (%s at %g) differs from the in-process one", k, wire.Scheme, wire.TargetBER)
			}
		}
		return nil
	}
	if !sameNoC(&resp.noc, &it.wantNoC) {
		return fmt.Errorf("%s/%d evaluation differs from the in-process one", it.noc.Topology, it.noc.Tiles)
	}
	return nil
}

// item maps op i to its working-set entry.
func (w *serveWarm) item(i int) int {
	return int(draw(w.cfg.seed, streamItem, i) % uint64(len(w.items)))
}

// warmup sends every item ten times from two goroutines, which also opens
// both connections.
func (w *serveWarm) warmup(ctx context.Context) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 5 * len(w.items) {
				if err := w.call(ctx, (r+g)%len(w.items)); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// op times the client call alone; the check runs after its span ends.
func (w *serveWarm) op(ctx context.Context, i int) (time.Duration, error) {
	k := w.item(i)
	cctx, sp := w.tr.start(ctx, "onocd.client")
	t0 := time.Now()
	resp, err := w.fetch(cctx, k)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return d, err
	}
	return d, w.verify(k, &resp)
}

// counters scrapes the daemon's engine counters and adds the handler
// wrapper's request and byte counts and the client's retries (a retried
// request hides a failure the benchmark must count).
func (w *serveWarm) counters(ctx context.Context) (map[string]float64, error) {
	pb, err := onocd.ScrapePhases(ctx, w.hc, w.base)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"requests":    float64(w.requests.Load()),
		"resp_bytes":  float64(w.respBytes.Load()),
		"cold_solves": float64(pb.ColdSolves),
		"hits":        float64(pb.CacheHits),
		"coalesced":   float64(pb.CoalescedSolves),
		"retries":     float64(w.client.Stats().Retries),
	}, nil
}

func (w *serveWarm) layers(a analysis, untraced, traced passResult) map[string]float64 {
	c := traced.counters
	n := float64(traced.ops)
	return map[string]float64{
		"onocd.handler_ms":   a.layer("onocd.handler").meanMS(),
		"onocd.wire_ms":      a.layer("onocd.client").meanSelfMS(),
		"onocd.resp_bytes":   ratio(c["resp_bytes"], c["requests"]),
		"onocd.alloc_kib":    ratio(untraced.rt.allocBytes/1024, float64(untraced.ops)),
		"onocd.gc_per_kop":   ratio(untraced.rt.gcCycles*1000, float64(untraced.ops)),
		"engine.hit_ratio":   ratio(c["hits"], c["hits"]+c["cold_solves"]+c["coalesced"]),
		"engine.cold_solves": ratio(c["cold_solves"], n),
	}
}

// recheck replays the first ops sequentially; each must pass its check
// again.
func (w *serveWarm) recheck(ctx context.Context) (int, string, error) {
	const k = 8
	for i := range k {
		if err := w.call(ctx, w.item(i)); err != nil {
			return k, "", fmt.Errorf("op %d: %w", i, err)
		}
	}
	return k, fmt.Sprintf("working set: %d requests", len(w.items)), nil
}

// accuracy takes the headline from the daemon's own answers: the client is
// the evaluator.
func (w *serveWarm) accuracy(ctx context.Context) (float64, float64, error) {
	paperErr, err := paperErrPct(ctx, w.client)
	if err != nil {
		return 0, 0, err
	}
	eng, err := photonoc.New()
	if err != nil {
		return 0, 0, err
	}
	modelGap, err := modelGapPct(ctx, eng)
	return paperErr, modelGap, err
}

func (w *serveWarm) close() {
	if w.hs == nil {
		return
	}
	w.hs.Close()
	<-w.served
	w.transport.CloseIdleConnections()
	w.hs = nil
}

// wrap counts the requests the daemon's root handler serves and the bytes
// it writes (after compression), for the /v1 routes only, and times it
// while tracing. The counting writers are pooled so the wrapper adds no
// allocation to the daemon's.
func (w *serveWarm) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(rw, r)
			return
		}
		var sp openSpan
		if w.tr.on.Load() {
			op, err1 := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
			id, err2 := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			if err1 == nil && err2 == nil {
				_, sp = w.tr.startUnder(r.Context(), spanRef{op, id}, "onocd.handler")
			}
		}
		cw := countingWriters.Get().(*countingWriter)
		cw.ResponseWriter, cw.n = rw, 0
		h.ServeHTTP(cw, r)
		sp.end()
		w.requests.Add(1)
		w.respBytes.Add(cw.n)
		cw.ResponseWriter = nil
		countingWriters.Put(cw)
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

var countingWriters = sync.Pool{New: func() any { return new(countingWriter) }}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// opTransport copies the op and span of the request's context into
// headers, so the handler wrapper can parent its span under the client's.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := refFrom(r.Context()); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatInt(ref.op, 10))
		r.Header.Set(spanHeader, strconv.FormatInt(ref.id, 10))
	}
	return t.base.RoundTrip(r)
}
