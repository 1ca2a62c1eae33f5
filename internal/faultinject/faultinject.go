// Package faultinject is the deterministic chaos layer of the serving
// stack. One seeded Injector, as onocd middleware, delays, rejects
// (429/503 envelopes), resets, or truncates responses mid-stream. Every
// fault decision is one draw from a single mutex-guarded RNG, so a given
// seed replays the same fault mix — the CI chaos gate depends on that. The injector is never built in
// the default path: onocd only constructs one when -fault-rate > 0.
package faultinject

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"photonoc/internal/apierr"
	"photonoc/internal/obs"
)

// Rates holds per-fault-mode probabilities. They are cumulative in spirit:
// on each request a single uniform draw lands in at most one mode, so the
// total fault probability is the sum (which must stay ≤ 1).
type Rates struct {
	// Latency delays the request by Options.Latency, then serves normally.
	Latency float64
	// Reject answers 429 with an overloaded envelope and a Retry-After.
	Reject float64
	// Unavailable answers 503 with an unavailable envelope.
	Unavailable float64
	// Reset aborts the connection with no usable response.
	Reset float64
	// Truncate serves the real response but cuts the body mid-stream. It
	// only fires on routes marked streaming; elsewhere the draw is a no-op
	// (the request serves normally) so single-shot routes never see a
	// half-written JSON object.
	Truncate float64
}

// Total is the summed fault probability.
func (r Rates) Total() float64 {
	return r.Latency + r.Reject + r.Unavailable + r.Reset + r.Truncate
}

// Spread splits a total fault rate across the modes in the mix the chaos
// harness wants: mostly retryable envelopes and latency, a meaningful slice
// of resets and truncations so resume paths actually run.
func Spread(rate float64) Rates {
	return Rates{
		Latency:     0.30 * rate,
		Reject:      0.25 * rate,
		Unavailable: 0.20 * rate,
		Reset:       0.15 * rate,
		Truncate:    0.10 * rate,
	}
}

// Options configures an Injector; zero fields take defaults.
type Options struct {
	// Seed fixes the fault RNG stream (0 means 1).
	Seed int64
	// Rates are the per-mode probabilities.
	Rates Rates
	// Latency is the injected delay when a latency fault fires (default
	// 5ms — enough to perturb tails without stretching chaos runs).
	Latency time.Duration
	// RetryAfter is the Retry-After header value on injected 429s (default
	// "0" so chaos runs stay fast; production admission control sends "1",
	// and the client's floor parsing has its own unit test).
	RetryAfter string
	// TruncateMinBytes/TruncateSpanBytes bound the body budget of a
	// truncate fault: budget = min + draw(span). Defaults 64 and 4032, so
	// cuts land anywhere from inside the first item to a few KB in.
	TruncateMinBytes  int
	TruncateSpanBytes int
	// Logger, when non-nil, logs every injected fault with the mode, the
	// request path, and the trace ID of the request's traceparent header —
	// the line that lets a chaos run's logs show which trace each fault
	// landed on. nil stays silent (the injector predates the logging layer
	// and every existing test builds it bare).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Latency == 0 {
		o.Latency = 5 * time.Millisecond
	}
	if o.RetryAfter == "" {
		o.RetryAfter = "0"
	}
	if o.TruncateMinBytes == 0 {
		o.TruncateMinBytes = 64
	}
	if o.TruncateSpanBytes == 0 {
		o.TruncateSpanBytes = 4032
	}
	return o
}

// Counts is a point-in-time snapshot of injected faults, keyed the same way
// as the onocd /metrics fault counters.
type Counts struct {
	Requests     uint64 `json:"requests"`
	Latencies    uint64 `json:"latencies"`
	Rejects      uint64 `json:"rejects"`
	Unavailables uint64 `json:"unavailables"`
	Resets       uint64 `json:"resets"`
	Truncates    uint64 `json:"truncates"`
}

// Faults is the total number of injected faults in the snapshot.
func (c Counts) Faults() uint64 {
	return c.Latencies + c.Rejects + c.Unavailables + c.Resets + c.Truncates
}

// kind is the outcome of one fault draw.
type kind int

const (
	none kind = iota
	latency
	reject
	unavailable
	reset
	truncate
)

// String names a fault mode for logs.
func (k kind) String() string {
	switch k {
	case latency:
		return "latency"
	case reject:
		return "reject"
	case unavailable:
		return "unavailable"
	case reset:
		return "reset"
	case truncate:
		return "truncate"
	}
	return "none"
}

// Injector makes seeded fault decisions. Safe for concurrent use; the RNG
// and counters share one mutex, held only for the draw.
type Injector struct {
	opts Options

	mu     sync.Mutex
	rng    *rand.Rand
	counts Counts
}

// New builds an injector (zero option fields defaulted).
func New(opts Options) *Injector {
	opts = opts.withDefaults()
	return &Injector{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// NewSpread is the common construction: one total rate, the standard mix.
func NewSpread(seed int64, rate float64) *Injector {
	return New(Options{Seed: seed, Rates: Spread(rate)})
}

// Counts snapshots the fault counters.
func (inj *Injector) Counts() Counts {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.counts
}

// decide makes the per-request draw: one uniform sample against cumulative
// mode thresholds, plus (for truncate) the body budget from the same
// stream. Counters update under the same lock so Counts is consistent.
func (inj *Injector) decide(streaming bool) (kind, int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.counts.Requests++
	u := inj.rng.Float64()
	r := inj.opts.Rates
	budget := 0
	var k kind
	switch {
	case u < r.Latency:
		k = latency
	case u < r.Latency+r.Reject:
		k = reject
	case u < r.Latency+r.Reject+r.Unavailable:
		k = unavailable
	case u < r.Latency+r.Reject+r.Unavailable+r.Reset:
		k = reset
	case u < r.Latency+r.Reject+r.Unavailable+r.Reset+r.Truncate:
		if streaming {
			k = truncate
			budget = inj.opts.TruncateMinBytes + inj.rng.Intn(inj.opts.TruncateSpanBytes)
		}
	}
	switch k {
	case latency:
		inj.counts.Latencies++
	case reject:
		inj.counts.Rejects++
	case unavailable:
		inj.counts.Unavailables++
	case reset:
		inj.counts.Resets++
	case truncate:
		inj.counts.Truncates++
	}
	return k, budget
}

// envelopeBody renders the injected-fault error envelope for a mode.
func envelopeBody(sentinel error) (int, []byte) {
	status, env := apierr.EnvelopeFor(fmt.Errorf("%w: injected fault", sentinel))
	raw := append(mustMarshal(env), '\n')
	return status, raw
}

func mustMarshal(env apierr.Envelope) []byte {
	// The envelope shape is pinned by apierr's own tests; marshal cannot
	// fail on it.
	raw, err := json.Marshal(env)
	if err != nil {
		panic(err)
	}
	return raw
}

// logFault records one injected fault, joining it to the request's trace
// when the caller sent a traceparent.
func (inj *Injector) logFault(mode, path, traceparent string) {
	if inj.opts.Logger == nil {
		return
	}
	traceID := ""
	if sc, err := obs.ParseTraceparent(traceparent); err == nil {
		traceID = sc.TraceID.String()
	}
	inj.opts.Logger.Warn("fault_injected", "mode", mode, "path", path, "trace_id", traceID)
}

// Middleware wraps an onocd handler. streaming marks NDJSON routes, the
// only ones eligible for truncate faults.
func (inj *Injector) Middleware(next http.Handler, streaming bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k, budget := inj.decide(streaming)
		if k != none {
			inj.logFault(k.String(), r.URL.Path, r.Header.Get("Traceparent"))
		}
		switch k {
		case latency:
			time.Sleep(inj.opts.Latency)
		case reject:
			status, body := envelopeBody(apierr.ErrOverloaded)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", inj.opts.RetryAfter)
			w.WriteHeader(status)
			w.Write(body)
			return
		case unavailable:
			status, body := envelopeBody(apierr.ErrUnavailable)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(body)
			return
		case reset:
			// net/http treats ErrAbortHandler as "tear down the connection
			// quietly": the client sees an unexpected EOF, not a response.
			panic(http.ErrAbortHandler)
		case truncate:
			w = &truncWriter{ResponseWriter: w, remaining: budget}
		}
		next.ServeHTTP(w, r)
	})
}

// truncWriter forwards writes until the byte budget runs out, then flushes
// what was written and aborts the connection — the client observes a
// response cut mid-stream, possibly mid-line.
type truncWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *truncWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	if len(p) > w.remaining {
		w.ResponseWriter.Write(p[:w.remaining])
		w.remaining = 0
		w.Flush()
		panic(http.ErrAbortHandler)
	}
	w.remaining -= len(p)
	return w.ResponseWriter.Write(p)
}

// Flush keeps NDJSON handlers' per-item flushing working through the wrap.
func (w *truncWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
