package onocd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/faultinject"
	"photonoc/internal/manager"
	"photonoc/internal/mc"
	"photonoc/internal/noc"
	"photonoc/internal/obs"
	"photonoc/internal/tune"
)

// Service defaults.
const (
	// DefaultMaxInFlight is the admission-control concurrency limit: the
	// evaluation routes admit at most this many requests at once and refuse
	// the rest with 429 + Retry-After.
	DefaultMaxInFlight = 64
	// DefaultRequestTimeout bounds one request's work; a request may lower
	// (never raise) it with ?timeout_ms=N.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultMaxBodyBytes bounds a request body.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultSlowRequest is the access-log threshold above which a finished
	// request additionally logs at warn level with its engine attribution.
	DefaultSlowRequest = time.Second
)

// Options configures a Server. The zero value serves the paper's
// configuration with production defaults.
type Options struct {
	// Config is the link configuration; the zero value means the paper's
	// defaults (exactly engine.New without WithConfig).
	Config core.LinkConfig
	// Schemes is the roster; nil means the paper's three schemes.
	Schemes []ecc.Code
	// Workers is the engine worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// CacheEntries is the memo-cache capacity; 0 means the engine default.
	// A service without a cache makes no sense, so there is no disable knob.
	CacheEntries int

	// MaxInFlight is the admission limit (0 = DefaultMaxInFlight).
	MaxInFlight int
	// RequestTimeout is the per-request deadline ceiling
	// (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration

	// FaultInjector, when non-nil, wraps every /v1 route with the seeded
	// chaos middleware (cmd/onocd builds one from -fault-rate/-fault-seed).
	// nil — the default — adds no middleware and no per-request draw: the
	// production hot path is untouched.
	FaultInjector *faultinject.Injector

	// Logger receives the service's structured logs: one access-log line per
	// finished request (trace ID, route, status, bytes, engine attribution),
	// slow-request warnings, admission rejections, reload events. nil
	// discards everything, so embedders and tests opt in explicitly.
	Logger *slog.Logger
	// SlowRequest is the duration from which a finished request also logs a
	// warn-level slow_request line (0 = DefaultSlowRequest; negative
	// disables the slow log).
	SlowRequest time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. The profiling
	// routes bypass admission control — a saturated server is exactly when a
	// profile is needed — so the flag is off by default and cmd/onocd gates
	// it behind -pprof.
	EnablePprof bool
	// GzipMinBytes is the buffered response size from which JSON responses
	// compress when the client accepts gzip (0 = DefaultGzipMinBytes;
	// negative disables compression entirely). NDJSON streams compress from
	// the first line regardless of size.
	GzipMinBytes int
}

// engineState is one immutable generation of the serving engine. Hot
// reload swaps the whole generation atomically; requests in flight keep
// the generation they started with, so a reload never mixes two
// configurations inside one response. The embedded local runs the
// network routes' requests, as the in-process Backend does.
type engineState struct {
	local
	mgr      *manager.Manager
	obs      *engineObserver
	loadedAt time.Time
}

// newEngineState builds one engine generation, instrumented with its own
// observer (its histogram starts cold with the cache).
func newEngineState(opts Options, cfg core.LinkConfig) (*engineState, error) {
	o := newEngineObserver()
	eopts := []engine.Option{engine.WithObserver(o)}
	if !reflect.ValueOf(cfg).IsZero() {
		eopts = append(eopts, engine.WithConfig(cfg))
	}
	if opts.Schemes != nil {
		eopts = append(eopts, engine.WithSchemes(opts.Schemes...))
	}
	if opts.Workers != 0 {
		eopts = append(eopts, engine.WithWorkers(opts.Workers))
	}
	if opts.CacheEntries != 0 {
		eopts = append(eopts, engine.WithCache(opts.CacheEntries))
	}
	eng, err := engine.New(eopts...)
	if err != nil {
		return nil, err
	}
	ecfg := eng.Config()
	mgr, err := manager.NewWithEvaluator(&ecfg, eng.Schemes(), manager.PaperDAC(), eng)
	if err != nil {
		return nil, err
	}
	return &engineState{local: local{eng}, mgr: mgr, obs: o, loadedAt: time.Now()}, nil
}

// Server is the onocd HTTP service: the Engine behind JSON routes, with
// admission control, per-request deadlines, metrics and hot reload. Build
// one with NewServer and mount Handler on an http.Server.
type Server struct {
	opts  Options
	state atomic.Pointer[engineState]
	mux   *http.ServeMux
	sem   chan struct{}
	met   *metrics
	log   *slog.Logger

	started  time.Time
	reloads  atomic.Uint64
	draining atomic.Bool
}

// NewServer builds the service around a fresh Engine.
func NewServer(opts Options) (*Server, error) {
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.MaxInFlight < 1 {
		return nil, fmt.Errorf("%w: max in-flight %d must be positive", apierr.ErrInvalidConfig, opts.MaxInFlight)
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.RequestTimeout < 0 {
		return nil, fmt.Errorf("%w: request timeout %v must be positive", apierr.ErrInvalidConfig, opts.RequestTimeout)
	}
	if opts.SlowRequest == 0 {
		opts.SlowRequest = DefaultSlowRequest
	}
	if opts.Logger == nil {
		opts.Logger = obs.Nop()
	}
	st, err := newEngineState(opts, opts.Config)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, opts.MaxInFlight),
		met:     newMetrics(),
		log:     opts.Logger,
		started: time.Now(),
	}
	s.state.Store(st)
	s.routes()
	return s, nil
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine returns the current engine generation (tests and the self-hosted
// load harness use it to read cache statistics).
func (s *Server) Engine() *engine.Engine { return s.state.Load().eng }

// Reload atomically swaps in a new engine generation built from cfg (the
// zero value reloads the original Options.Config — a roster/limits-only
// restart). In-flight requests finish on the generation they started
// with; the memo cache starts cold because the fingerprint may have
// changed. This is the SIGHUP path of cmd/onocd.
func (s *Server) Reload(cfg core.LinkConfig) error {
	if reflect.ValueOf(cfg).IsZero() {
		cfg = s.opts.Config
	}
	st, err := newEngineState(s.opts, cfg)
	if err != nil {
		return err
	}
	s.state.Store(st)
	s.reloads.Add(1)
	s.log.Info("engine_reloaded",
		"fingerprint", st.eng.ConfigFingerprint(),
		"reloads", s.reloads.Load())
	return nil
}

// SetDraining flips the health signal: a draining server answers
// /healthz with 503 so load balancers stop routing to it, while in-flight
// and even newly arriving requests still complete (http.Server.Shutdown
// does the actual connection draining).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// ListenLocal starts the server on an OS-assigned loopback port and
// returns the base URL. Tests, the self-hosted load harness and the
// benchmark runner share it.
func ListenLocal(opts Options) (*Server, *http.Server, string, error) {
	s, err := NewServer(opts)
	if err != nil {
		return nil, nil, "", err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(l)
	return s, hs, "http://" + l.Addr().String(), nil
}

// routes mounts every endpoint. The /v1 evaluation routes pass through
// admission control and the deadline middleware; the observability routes
// are exempt so a saturated server can still be inspected (and so chaos
// faults never hide the metrics a chaos run is graded on). With a
// FaultInjector configured, the chaos middleware wraps outside instrument:
// injected rejections never consume an admission slot, and truncation
// wraps the response writer under the streaming handlers' flusher.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.v1("GET /v1/config", false, false, s.handleConfig)

	s.v1("POST /v1/sweep", true, false, unary(s.handleSweep))
	s.v1("POST /v1/sweep/stream", true, true, stream(s.handleSweepStream))
	s.v1("POST /v1/decide", true, false, unary(s.handleDecide))
	s.v1("POST /v1/noc/eval", true, false, unary(s.handleNoCEval))
	s.v1("POST /v1/noc/batch", true, true, stream(s.handleNoCBatch))
	s.v1("POST /v1/noc/sweep", true, true, stream(s.handleNoCSweep))
	s.v1("POST /v1/noc/sim", true, false, unary(s.handleNoCSim))
	s.v1("POST /v1/noc/tune", true, true, stream(s.handleNoCTune))
	s.v1("POST /v1/validate", true, false, unary(s.handleValidate))

	// The profiling routes are deliberately outside instrument: no admission
	// slot (a saturated server is exactly when a profile is wanted), no
	// deadline (a 30s CPU profile outlives the request timeout), no gzip
	// (the protobuf profiles are already compressed).
	if s.opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// v1 mounts one evaluation route with the full middleware chain, outermost
// first: gzip (so everything inside writes uncompressed bytes), the chaos
// injector (injected rejections never consume an admission slot; truncation
// budgets count pre-compression bytes), then instrument (tracing, logging,
// admission, deadline, metrics) around the handler body. The route label
// is the pattern's path.
func (s *Server) v1(pattern string, admission, streaming bool, fn handlerFunc) {
	_, route, _ := strings.Cut(pattern, " ")
	s.mux.Handle(pattern, s.withGzip(s.withFaults(s.instrument(route, admission, fn), streaming)))
}

// withFaults wraps a route with the chaos middleware when one is
// configured; streaming routes are additionally eligible for mid-stream
// truncation faults. A nil injector returns the handler unchanged.
func (s *Server) withFaults(h http.Handler, streaming bool) http.Handler {
	if s.opts.FaultInjector == nil {
		return h
	}
	return s.opts.FaultInjector.Middleware(h, streaming)
}

// statusWriter records the status code actually sent and the body bytes
// written (pre-compression), for metrics, the access log, and so the error
// path knows whether headers are already gone (streaming).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying flusher (NDJSON streaming).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handlerFunc is a route body: it runs under the request deadline against
// one engine generation and either writes its own (streaming) response or
// returns an error to be enveloped.
type handlerFunc func(ctx context.Context, st *engineState, w *statusWriter, r *http.Request) error

// instrument wraps a route body with the service middleware: trace identity
// (continue an incoming W3C traceparent or start a fresh trace), the span
// and a stats accumulator in the context, a request-scoped child logger
// for the wrapper's own log lines, the in-flight gauge, admission control, the per-request deadline, error
// enveloping, request accounting, the access log and the slow-request log.
func (s *Server) instrument(route string, admission bool, fn handlerFunc) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()

		// Trace identity: a valid incoming traceparent makes this request's
		// span a child in the caller's trace; anything else roots a new one.
		var sc obs.SpanContext
		if parent, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
			sc = parent.Child()
		} else {
			sc = obs.NewSpanContext()
		}
		// Echo the server's span back so even curl runs can join logs.
		rw.Header().Set("Traceparent", sc.Traceparent())

		w := &statusWriter{ResponseWriter: rw}
		reqLog := s.log.With(
			"trace_id", sc.TraceID.String(),
			"span_id", sc.SpanID.String(),
			"route", route)
		stats := &obs.RequestStats{}

		s.met.inFlight.Add(1)
		defer func() {
			elapsed := time.Since(start)
			s.met.inFlight.Add(-1)
			s.met.observe(route, w.code, elapsed)
			s.met.recordRequest(requestRecord{
				Route:      route,
				TraceID:    sc.TraceID.String(),
				Status:     w.code,
				Duration:   elapsed,
				Bytes:      w.bytes,
				ColdSolves: stats.ColdSolves.Load(),
				Time:       start,
			})
			attrs := []any{
				"method", r.Method,
				"status", w.code,
				"duration_ms", float64(elapsed.Microseconds()) / 1e3,
				"bytes", w.bytes,
				"cold_solves", stats.ColdSolves.Load(),
				"cold_solve_ms", float64(stats.ColdSolveTime().Microseconds()) / 1e3,
				"cache_hits", stats.CacheHits.Load(),
				"shared_solves", stats.SharedSolves.Load(),
			}
			reqLog.Info("request", attrs...)
			if s.opts.SlowRequest > 0 && elapsed >= s.opts.SlowRequest {
				reqLog.Warn("slow_request", attrs...)
			}
		}()

		if admission {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.met.admissionRejected.Add(1)
				reqLog.Warn("admission_rejected", "max_in_flight", s.opts.MaxInFlight)
				w.Header().Set("Retry-After", "1")
				writeError(w, fmt.Errorf("%w: %d requests already in flight", apierr.ErrOverloaded, s.opts.MaxInFlight))
				return
			}
		}

		ctx, cancel, err := s.requestContext(r)
		if err != nil {
			writeError(w, err)
			return
		}
		defer cancel()
		ctx = obs.ContextWithSpan(ctx, sc)
		ctx = obs.ContextWithStats(ctx, stats)

		r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
		if err := fn(ctx, s.state.Load(), w, r.WithContext(ctx)); err != nil {
			// Map context errors through the request deadline: the engine
			// returns ctx.Err() verbatim, and a deadline the server imposed
			// must surface as 504 even when the client also went away.
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				err = ctx.Err()
			}
			reqLog.Warn("request_error", "error", err.Error())
			if w.code != 0 {
				return // headers sent (mid-stream failure); terminal NDJSON line already carries the error
			}
			writeError(w, err)
		}
	})
}

// requestContext derives the request deadline: the server ceiling, lowered
// (never raised) by an explicit ?timeout_ms=N.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := s.opts.RequestTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("%w: timeout_ms %q must be a positive integer", apierr.ErrInvalidInput, v)
		}
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// writeError writes the stable JSON error envelope.
func writeError(w http.ResponseWriter, err error) {
	status, env := apierr.EnvelopeFor(err)
	writeJSON(w, status, env)
}

// writeJSON writes one JSON response body as compact JSON on one line plus
// a newline. Indentation would only add bytes for the encoder to write and
// the gzip writer to compress; a reader pipes the body to jq.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// decodeJSON strictly decodes a request body: unknown fields, trailing
// garbage and oversized bodies are all invalid input.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError(err, "request body")
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after request body", apierr.ErrInvalidInput)
	}
	return nil
}

// bodyError maps a request-body decode failure to invalid input: an
// oversized body names the limit, anything else names what failed to parse.
func bodyError(err error, what string) error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return fmt.Errorf("%w: request body exceeds %d bytes", apierr.ErrInvalidInput, maxErr.Limit)
	}
	return fmt.Errorf("%w: malformed %s: %v", apierr.ErrInvalidInput, what, err)
}

// unary is the pipeline of the single-body routes: decode the request
// strictly, compute the answer against one engine generation, and write
// it as one JSON body. An error from either step goes back to instrument,
// which envelopes it.
func unary[Req any](compute func(context.Context, *engineState, *Req) (any, error)) handlerFunc {
	return func(ctx context.Context, st *engineState, w *statusWriter, r *http.Request) error {
		var req Req
		if err := decodeJSON(r, &req); err != nil {
			return err
		}
		resp, err := compute(ctx, st, &req)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, resp)
		return nil
	}
}

// stream is the pipeline of the resumable NDJSON routes. open validates
// the request and returns the stream's length and a lazy iterator over its
// lines, each paired with the Go error behind it when the line is terminal;
// the engine starts only when the iterator runs, so a refused request
// never reaches it.
//
// ?start_index=N resumes an interrupted stream: the server replays it (the
// prefix re-solves warm through the memo cache) and writes only the items
// from N on, plus a terminal line wherever it falls. A cursor at or past
// the end of a non-empty stream is refused before any solve. The NDJSON
// header goes out with the first written line, so a terminal error that
// arrives before it returns to instrument as a plain HTTP error; after it,
// the error is the stream's last line under the committed 200. Every line
// is flushed, and a failed write ends the stream: the client went away.
func stream[T wireStreamItem](open func(context.Context, *engineState, *http.Request) (int, iter.Seq2[T, error], error)) handlerFunc {
	return func(ctx context.Context, st *engineState, w *statusWriter, r *http.Request) error {
		start := 0
		if v := r.URL.Query().Get("start_index"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("%w: start_index %q must be a non-negative integer", apierr.ErrInvalidInput, v)
			}
			start = n
		}
		n, items, err := open(ctx, st, r)
		if err != nil {
			return err
		}
		if n > 0 && start >= n {
			return fmt.Errorf("%w: start_index %d beyond stream of %d items", apierr.ErrInvalidInput, start, n)
		}
		enc := json.NewEncoder(w)
		for item, err := range items {
			if item.terminal() == nil && item.itemIndex() < start {
				continue // the client already has this item
			}
			if w.code == 0 {
				if item.terminal() != nil {
					return err
				}
				w.Header().Set("Content-Type", "application/x-ndjson")
			}
			if enc.Encode(item) != nil {
				return nil
			}
			w.Flush()
		}
		return nil
	}
}

// lines renders an engine stream as its wire lines, numbering them: the
// i-th pair is item i. line returns a line and, when the line is terminal,
// the Go error behind it.
func lines[R any, T wireStreamItem](results iter.Seq2[R, error], line func(i int, r R, err error) (T, error)) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		i := 0
		for r, err := range results {
			if !yield(line(i, r, err)) {
				return
			}
			i++
		}
	}
}

// --- observability routes ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck
}

// StatusResponse is the body of GET /statusz.
type StatusResponse struct {
	Service          string            `json:"service"`
	UptimeSec        float64           `json:"uptime_sec"`
	Fingerprint      string            `json:"fingerprint"`
	EngineLoadedAt   time.Time         `json:"engine_loaded_at"`
	Reloads          uint64            `json:"reloads"`
	Schemes          []string          `json:"schemes"`
	Workers          int               `json:"workers"`
	MaxInFlight      int               `json:"max_in_flight"`
	InFlight         int64             `json:"in_flight"`
	RequestTimeoutMS int64             `json:"request_timeout_ms"`
	Draining         bool              `json:"draining"`
	Cache            engine.CacheStats `json:"cache"`
	// SlowestRequests are exemplars mined from the recent-request ring: the
	// slowest recent requests per route, each carrying its trace ID so a
	// latency spike links directly into the structured logs.
	SlowestRequests []SlowRequest `json:"slowest_requests,omitempty"`
}

// SlowRequest is one slow-request exemplar on /statusz.
type SlowRequest struct {
	Route      string    `json:"route"`
	TraceID    string    `json:"trace_id"`
	Status     int       `json:"status"`
	DurationMS float64   `json:"duration_ms"`
	Bytes      int64     `json:"bytes"`
	ColdSolves uint64    `json:"cold_solves"`
	Time       time.Time `json:"time"`
}

// slowExemplarsPerRoute bounds how many exemplars each route contributes.
const slowExemplarsPerRoute = 3

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := s.state.Load()
	var slow []SlowRequest
	for _, rec := range s.met.slowestRecent(slowExemplarsPerRoute) {
		slow = append(slow, SlowRequest{
			Route:      rec.Route,
			TraceID:    rec.TraceID,
			Status:     rec.Status,
			DurationMS: float64(rec.Duration.Microseconds()) / 1e3,
			Bytes:      rec.Bytes,
			ColdSolves: rec.ColdSolves,
			Time:       rec.Time,
		})
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		Service:          "onocd",
		UptimeSec:        time.Since(s.started).Seconds(),
		Fingerprint:      st.eng.ConfigFingerprint(),
		EngineLoadedAt:   st.loadedAt,
		Reloads:          s.reloads.Load(),
		Schemes:          schemeNames(st.eng.Schemes()),
		Workers:          st.eng.Workers(),
		MaxInFlight:      s.opts.MaxInFlight,
		InFlight:         s.met.inFlight.Load(),
		RequestTimeoutMS: s.opts.RequestTimeout.Milliseconds(),
		Draining:         s.draining.Load(),
		Cache:            st.eng.CacheStats(),
		SlowestRequests:  slow,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writeTo(w)
	st := s.state.Load()
	cs := st.eng.CacheStats()
	counter(w, "onocd_engine_reloads_total", "Hot configuration reloads.", s.reloads.Load())
	counter(w, "onocd_cache_hits_total", "Memo-cache hits.", cs.Hits)
	counter(w, "onocd_cache_misses_total", "Memo-cache misses.", cs.Misses)
	counter(w, "onocd_cache_cold_solves_total", "Solves that ran the compiled pipeline.", cs.ColdSolves)
	counter(w, "onocd_cache_shared_solves_total", "Evaluations served by joining an in-flight solve.", cs.SharedSolves)
	gauge(w, "onocd_cache_entries", "Memoized operating points.", float64(cs.Entries))
	gauge(w, "onocd_cache_capacity", "Memo-cache capacity.", float64(cs.Capacity))
	gauge(w, "onocd_cache_cold_solve_seconds_total", "Cumulative wall time in cold solves.", cs.ColdSolveTime.Seconds())
	registries := []struct {
		name         string
		entries      int
		hits, misses uint64
	}{
		{"fer_plans", cs.FERPlans, cs.FERPlanHits, cs.FERPlanMisses},
		{"block_plans", cs.BlockPlans, cs.BlockPlanHits, cs.BlockPlanMisses},
		{"link_plans", cs.LinkPlans, cs.LinkPlanHits, cs.LinkPlanMisses},
		{"networks", cs.Networks, cs.NetworkHits, cs.NetworkMisses},
	}
	fmt.Fprint(w, "# HELP onocd_engine_registry_entries Entries in the engine's plan and network registries.\n# TYPE onocd_engine_registry_entries gauge\n")
	for _, reg := range registries {
		fmt.Fprintf(w, "onocd_engine_registry_entries{registry=%q} %d\n", reg.name, reg.entries)
	}
	fmt.Fprint(w, "# HELP onocd_engine_registry_hits_total Registry lookups served from a published entry.\n# TYPE onocd_engine_registry_hits_total counter\n")
	for _, reg := range registries {
		fmt.Fprintf(w, "onocd_engine_registry_hits_total{registry=%q} %d\n", reg.name, reg.hits)
	}
	fmt.Fprint(w, "# HELP onocd_engine_registry_misses_total Registry lookups that built or waited for an entry.\n# TYPE onocd_engine_registry_misses_total counter\n")
	for _, reg := range registries {
		fmt.Fprintf(w, "onocd_engine_registry_misses_total{registry=%q} %d\n", reg.name, reg.misses)
	}
	st.obs.writeTo(w)
	writeRuntimeMetrics(w)
	if inj := s.opts.FaultInjector; inj != nil {
		fc := inj.Counts()
		counter(w, "onocd_fault_requests_total", "Requests seen by the chaos middleware.", fc.Requests)
		counter(w, "onocd_fault_injected_total", "Faults injected, all modes.", fc.Faults())
		counter(w, "onocd_fault_latency_total", "Injected latency faults.", fc.Latencies)
		counter(w, "onocd_fault_reject_total", "Injected 429 rejections.", fc.Rejects)
		counter(w, "onocd_fault_unavailable_total", "Injected 503 responses.", fc.Unavailables)
		counter(w, "onocd_fault_reset_total", "Injected connection resets.", fc.Resets)
		counter(w, "onocd_fault_truncate_total", "Injected mid-stream truncations.", fc.Truncates)
	}
}

func schemeNames(codes []ecc.Code) []string {
	names := make([]string, len(codes))
	for i, c := range codes {
		names[i] = c.Name()
	}
	return names
}

// --- evaluation routes ---

// handleConfig serves the engine configuration with an ETag keyed by the
// generation fingerprint: the response only changes on hot reload, so
// revalidation (Cache-Control: no-cache) lets clients hold a cached copy
// and pay a bodyless 304 per poll.
func (s *Server) handleConfig(ctx context.Context, st *engineState, w *statusWriter, r *http.Request) error {
	etag := `"` + st.eng.ConfigFingerprint() + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	writeJSON(w, http.StatusOK, configOf(st.eng))
	return nil
}

// etagMatches reports whether an If-None-Match header matches etag, using
// the weak comparison of RFC 9110 §8.8.3.2: a W/ prefix is ignored and "*"
// matches any current representation.
func etagMatches(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

func (s *Server) handleSweep(ctx context.Context, st *engineState, req *SweepRequest) (any, error) {
	codes, err := ResolveSchemes(req.Schemes)
	if err != nil {
		return nil, err
	}
	evs, err := st.eng.Sweep(ctx, codes, req.TargetBERs)
	if err != nil {
		return nil, err
	}
	resp := SweepResponse{Evaluations: make([]Evaluation, len(evs))}
	for i, ev := range evs {
		resp.Evaluations[i] = toWireEval(ev)
	}
	return resp, nil
}

// handleSweepStream streams one StreamItem per grid point, in the batch
// sweep's BER-major, then scheme order.
func (s *Server) handleSweepStream(ctx context.Context, st *engineState, r *http.Request) (int, iter.Seq2[StreamItem, error], error) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	codes, err := ResolveSchemes(req.Schemes)
	if err != nil {
		return 0, nil, err
	}
	schemes := len(codes)
	if codes == nil {
		schemes = len(st.eng.Schemes())
	}
	results := st.eng.SweepStream(ctx, codes, req.TargetBERs)
	return schemes * len(req.TargetBERs), lines(results, func(i int, ev core.Evaluation, err error) (StreamItem, error) {
		item := StreamItem{Index: i}
		if err != nil {
			_, body := apierr.EnvelopeFor(err)
			item.Error = &body.Error
			return item, err
		}
		wev := toWireEval(ev)
		item.Evaluation = &wev
		return item, nil
	}), nil
}

func (s *Server) handleDecide(ctx context.Context, st *engineState, req *DecideRequest) (any, error) {
	obj, err := parseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	dec, err := st.mgr.ConfigureCtx(ctx, manager.Requirements{
		TargetBER: req.TargetBER,
		MaxCT:     req.MaxCT,
		Objective: obj,
	})
	if err != nil {
		return nil, err
	}
	return DecideResponse{
		Eval:                 toWireEval(dec.Eval),
		DACCode:              dec.DACCode,
		QuantizedOpticalW:    dec.QuantizedOpticalW,
		QuantizedLaserPowerW: dec.QuantizedLaserPowerW,
		QuantizationWasteW:   dec.QuantizationWasteW,
	}, nil
}

func (s *Server) handleNoCEval(ctx context.Context, st *engineState, req *NoCRequest) (any, error) {
	res, err := st.NetworkEval(ctx, *req)
	if err != nil {
		return nil, err
	}
	return toWireNoC(res), nil
}

// boolParam parses a "0"/"1"/"false"/"true" query parameter (empty means
// false).
func boolParam(r *http.Request, name string) (bool, error) {
	switch v := r.URL.Query().Get(name); v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("%w: %s %q must be 0|1|false|true", apierr.ErrInvalidInput, name, v)
	}
}

// handleNoCBatch evaluates a candidate population: the request body is an
// NDJSON (or concatenated-JSON) stream of NoCBatchItem lines, the response
// one NoCStreamItem per candidate in population order, backed by
// Engine.NetworkBatchStream — every cell goes through the memo cache, so a
// mutate-one-knob autotuner population amortizes both HTTP overhead and
// per-cell solves.
//
// ?continue_on_error=1 switches to partial-failure mode, where a failed
// candidate (including one that failed wire-level conversion) becomes an
// indexed Partial error item instead of ending the stream.
func (s *Server) handleNoCBatch(ctx context.Context, st *engineState, r *http.Request) (int, iter.Seq2[NoCStreamItem, error], error) {
	partial, err := boolParam(r, "continue_on_error")
	if err != nil {
		return 0, nil, err
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var cands []engine.NetworkCandidate
	// convFails maps candidate index → wire-conversion failure. In partial
	// mode a bad candidate keeps its population slot via a placeholder (the
	// zero candidate fails engine validation immediately, without solving
	// anything) and the recorded cause overrides the placeholder's error in
	// the emitted item. Malformed NDJSON framing stays terminal in both
	// modes: once the decoder loses sync, indices after it are meaningless.
	var convFails map[int]error
	for {
		var it NoCBatchItem
		if err := dec.Decode(&it); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return 0, nil, bodyError(err, fmt.Sprintf("candidate %d", len(cands)))
		}
		cand, err := it.candidate()
		if err != nil {
			if !partial {
				return 0, nil, fmt.Errorf("candidate %d: %w", len(cands), err)
			}
			if convFails == nil {
				convFails = make(map[int]error)
			}
			convFails[len(cands)] = fmt.Errorf("candidate %d: %w", len(cands), err)
			cands = append(cands, engine.NetworkCandidate{})
			continue
		}
		cands = append(cands, cand)
	}
	bers := make([]float64, len(cands))
	for i, c := range cands {
		bers[i] = c.Opts.TargetBER
	}
	results := st.eng.NetworkBatchStream(ctx, cands, engine.BatchOptions{ContinueOnError: partial})
	return len(cands), lines(results, nocLine(bers, convFails)), nil
}

// nocLine renders network result i as a NoCStreamItem. An error line
// carries item i's requested BER from bers. A *engine.CandidateError
// becomes a Partial item, its cause replaced by the candidate's
// wire-conversion failure in convFails if it has one; any other error is
// terminal and returned with the line.
func nocLine(bers []float64, convFails map[int]error) func(int, noc.Result, error) (NoCStreamItem, error) {
	return func(i int, res noc.Result, err error) (NoCStreamItem, error) {
		item := NoCStreamItem{Index: i, TargetBER: res.TargetBER}
		if err == nil {
			wr := toWireNoC(res)
			item.Result = &wr
			return item, nil
		}
		if i < len(bers) {
			item.TargetBER = bers[i]
		}
		cause, terminal := err, err
		var ce *engine.CandidateError
		if errors.As(err, &ce) {
			item.Partial, terminal = true, nil
			if oe, ok := convFails[ce.Index]; ok {
				cause = oe
			}
		}
		_, body := apierr.EnvelopeFor(cause)
		item.Error = &body.Error
		return item, terminal
	}
}

// handleNoCSweep streams one NoCStreamItem per target BER, reusing the
// engine's streaming network sweep.
func (s *Server) handleNoCSweep(ctx context.Context, st *engineState, r *http.Request) (int, iter.Seq2[NoCStreamItem, error], error) {
	var req NoCRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	results, err := st.networkSweep(ctx, &req)
	if err != nil {
		return 0, nil, err
	}
	return len(req.TargetBERs), lines(results, nocLine(req.TargetBERs, nil)), nil
}

// errClientGone aborts a campaign whose stream stopped taking lines: the
// client went away.
var errClientGone = errors.New("onocd: client went away mid-stream")

// handleNoCTune runs one autotuner campaign (internal/tune) against the
// daemon's engine, streaming one NoCTuneItem per generation — the archive
// front after that generation's batch evaluation — plus a terminal summary
// item at Index = generations. Campaigns are deterministic from the request
// seed, so a resumed stream replays the campaign warm through the memo
// cache. A campaign error (tune's own option check, cancellation, a
// deadline) is the stream's terminal Error item.
func (s *Server) handleNoCTune(ctx context.Context, st *engineState, r *http.Request) (int, iter.Seq2[NoCTuneItem, error], error) {
	var req NoCTuneRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	opts, err := req.options()
	if err != nil {
		return 0, nil, err
	}
	gens := opts.Generations
	if gens == 0 {
		gens = tune.DefaultGenerations
	}
	return gens + 1, func(yield func(NoCTuneItem, error) bool) {
		done := 0
		opts.OnGeneration = func(gen int, front []tune.Point) error {
			done = gen + 1
			if !yield(NoCTuneItem{Index: gen, Front: toWireTuneFront(front)}, nil) {
				return errClientGone // yield must not be called again
			}
			return nil
		}
		res, err := tune.Run(ctx, st.eng, opts)
		switch {
		case errors.Is(err, errClientGone):
		case err != nil:
			_, body := apierr.EnvelopeFor(err)
			yield(NoCTuneItem{Index: done, Error: &body.Error}, err)
		default:
			sum := TuneSummary(res)
			yield(NoCTuneItem{Index: res.Generations, Summary: &sum}, nil)
		}
	}, nil
}

func (s *Server) handleNoCSim(ctx context.Context, st *engineState, req *NoCRequest) (any, error) {
	res, err := st.NetworkSim(ctx, *req)
	if err != nil {
		return nil, err
	}
	return toWireSim(res), nil
}

func (s *Server) handleValidate(ctx context.Context, st *engineState, req *ValidateRequest) (any, error) {
	code, ok := ecc.SchemeByName(req.Scheme)
	if !ok {
		return nil, fmt.Errorf("%w: unknown scheme %q", apierr.ErrInvalidInput, req.Scheme)
	}
	return st.eng.ValidateMC(ctx, code, req.RawBER, mc.Options{
		Frames:       req.Frames,
		TargetRelErr: req.TargetRelErr,
		Shards:       req.Shards,
		Seed:         req.Seed,
	})
}
