package onocd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/mc"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
	"photonoc/internal/obs"
	"photonoc/internal/resilience"
	"photonoc/internal/tune"
)

// Client is a typed onocd client. Errors decoded from the daemon's JSON
// envelope round-trip the package's typed sentinels, so errors.Is works on
// a remote failure exactly as it would in process. Client is the remote
// Backend, and so a core.Evaluator: onocsim solves its simulation's scheme
// roster through it.
//
// Every call is resilient by default: retryable failures (429/503/504,
// transport errors, truncated streams) are retried with capped
// exponential backoff and full jitter, honoring the server's Retry-After
// as a delay floor, behind a circuit breaker that fails fast while the
// daemon is down. Every daemon route is a pure, deterministic evaluation,
// so retrying a request that may already have executed is always safe.
// Interrupted NDJSON streams resume from the last delivered item via
// ?start_index. Stats snapshots the counters.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:9137".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Retry is the backoff policy; nil defaults on first use. Set
	// resilience.NewRetrier(resilience.NoRetry()) for fail-fast semantics
	// (a first failure is final, but error typing is unchanged).
	Retry *resilience.Retrier
	// Breaker is the circuit breaker; nil defaults on first use.
	Breaker *resilience.Breaker
	// Logger receives the client's structured resilience logs: one line per
	// failed attempt, retry, breaker fail-fast, and stream resume, each
	// carrying the request's trace ID and the attempt's span ID — the same
	// identifiers the daemon's access log records, so a chaos run is
	// reconstructable from the two logs joined on trace_id. nil discards.
	Logger *slog.Logger

	// mu guards the resilience counters and the revalidation cache below:
	// the last /v1/config body and its ETag, served back on a 304.
	mu        sync.Mutex
	stats     ClientStats
	configTag string
	config    ConfigResponse
}

// NewClient builds a client for a daemon base URL.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.Nop()
}

// setTraceparent propagates the context's current span — the attempt span
// minted by withRetries — onto the outbound request, so the daemon's access
// log joins this attempt under the same trace ID.
func setTraceparent(ctx context.Context, req *http.Request) {
	if sc, ok := obs.SpanFromContext(ctx); ok {
		req.Header.Set("Traceparent", sc.Traceparent())
	}
}

// send issues one HTTP request and returns the response on HTTP success; a
// non-2xx status or a request-level failure comes back as a typed error
// (Retry-After-decorated when the server set a retry horizon).
func (c *Client) send(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	setTraceparent(ctx, req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: %s %s: %v", errTransport, method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		derr := decodeError(resp)
		if floor := retryAfterFloor(resp); floor > 0 && apierr.Retryable(derr) {
			return nil, &retryAfterError{err: derr, floor: floor}
		}
		return nil, derr
	}
	return resp, nil
}

// roundTrip issues one request under the retry/breaker loop and decodes
// either the response body or the error envelope into a typed error.
func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any) error {
	var raw []byte
	contentType := ""
	if in != nil {
		var err error
		if raw, err = json.Marshal(in); err != nil {
			return fmt.Errorf("onocd: encode %s request: %w", path, err)
		}
		contentType = "application/json"
	}
	return c.withRetries(ctx, func(ctx context.Context) error {
		resp, err := c.send(ctx, method, path, contentType, raw)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if out == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			// A 2xx body that does not decode is a torn or corrupted
			// response, not a server verdict — classify as transport.
			return fmt.Errorf("%w: decode %s response: %v", errTransport, path, err)
		}
		return nil
	})
}

// decodeError turns a non-2xx response into a typed error via the stable
// envelope; a body that is not an envelope degrades to a plain error.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env apierr.Envelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		return apierr.FromEnvelope(env)
	}
	return fmt.Errorf("onocd: remote error (HTTP %d): %s", resp.StatusCode, bytes.TrimSpace(raw))
}

// Config fetches the daemon's engine configuration and roster. The client
// revalidates with If-None-Match against the daemon's generation-keyed
// ETag, so steady-state polls cost a bodyless 304 and are served from the
// cached copy; a hot reload changes the fingerprint and refetches.
func (c *Client) Config(ctx context.Context) (ConfigResponse, error) {
	var out ConfigResponse
	err := c.withRetries(ctx, func(ctx context.Context) error {
		c.mu.Lock()
		tag, cached := c.configTag, c.config
		c.mu.Unlock()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/config", nil)
		if err != nil {
			return err
		}
		if tag != "" {
			req.Header.Set("If-None-Match", tag)
		}
		setTraceparent(ctx, req)
		resp, err := c.httpClient().Do(req)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("%w: GET /v1/config: %v", errTransport, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotModified && tag != "" {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			out = cached
			return nil
		}
		if resp.StatusCode/100 != 2 {
			return decodeError(resp)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("%w: decode /v1/config response: %v", errTransport, err)
		}
		if tag := resp.Header.Get("ETag"); tag != "" {
			c.mu.Lock()
			c.configTag, c.config = tag, out
			c.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return ConfigResponse{}, err
	}
	return out, nil
}

// Statusz fetches the daemon status page.
func (c *Client) Statusz(ctx context.Context) (StatusResponse, error) {
	var out StatusResponse
	err := c.roundTrip(ctx, http.MethodGet, "/statusz", nil, &out)
	return out, err
}

// Healthz reports whether the daemon answers its health probe.
func (c *Client) Healthz(ctx context.Context) error {
	return c.roundTrip(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Sweep runs a batch sweep on the daemon.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepResponse, error) {
	var out SweepResponse
	err := c.roundTrip(ctx, http.MethodPost, "/v1/sweep", req, &out)
	return out, err
}

// Decide runs one manager configuration decision on the daemon.
func (c *Client) Decide(ctx context.Context, req DecideRequest) (DecideResponse, error) {
	var out DecideResponse
	err := c.roundTrip(ctx, http.MethodPost, "/v1/decide", req, &out)
	return out, err
}

// NetworkEval evaluates a topology on the daemon and rebuilds the
// in-process result.
func (c *Client) NetworkEval(ctx context.Context, req NoCRequest) (noc.Result, error) {
	var out NoCResult
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/noc/eval", req, &out); err != nil {
		return noc.Result{}, err
	}
	return out.Core()
}

// NetworkSweep streams a network sweep from the daemon, invoking fn per
// NDJSON line in batch (BER) order. A terminal stream error is returned as
// the typed error it carried. An interrupted stream is resumed
// transparently from the last delivered item via ?start_index, so fn sees
// every index exactly once regardless of how many reconnects it took.
func (c *Client) NetworkSweep(ctx context.Context, req NoCRequest, fn func(int, float64, noc.Result) error) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("onocd: encode sweep request: %w", err)
	}
	return streamItems(c, ctx, "/v1/noc/sweep", "application/json", raw, len(req.TargetBERs), nocResults(fn))
}

// nocResults rebuilds each NoCStreamItem of a network stream into its
// noc.Result and hands it to fn. A Partial item is a protocol error here:
// only NetworkBatchPartial asks for them, and it sees them first.
func nocResults(fn func(int, float64, noc.Result) error) func(NoCStreamItem) error {
	return func(item NoCStreamItem) error {
		if item.Partial {
			return fmt.Errorf("onocd: unexpected partial item %d on a strict network stream", item.Index)
		}
		res, err := item.Result.Core()
		if err != nil {
			return err
		}
		return fn(item.Index, item.TargetBER, res)
	}
}

// streamItems runs one resumable NDJSON stream call: POST body to path,
// scan item lines through onItem, and on interruption reconnect with
// ?start_index so the daemon replays only the missing suffix. The stream
// is complete when expect items have been delivered (or a terminal item
// ended it); a clean EOF short of that is a truncation like any other —
// some cuts land exactly on a line boundary.
func streamItems[T wireStreamItem](c *Client, ctx context.Context, path, contentType string, body []byte, expect int, onItem func(T) error) error {
	next := 0
	return c.withRetries(ctx, func(ctx context.Context) error {
		before := next
		p := path
		if next > 0 {
			sep := "?"
			if strings.Contains(path, "?") {
				sep = "&"
			}
			p = path + sep + "start_index=" + strconv.Itoa(next)
		}
		resp, err := c.send(ctx, http.MethodPost, p, contentType, body)
		if err != nil {
			return err
		}
		if next > 0 {
			c.countResume(false)
		}
		err = scanStream(resp.Body, &next, onItem)
		resp.Body.Close()
		if err == nil && next < expect {
			err = &TruncatedStreamError{LastIndex: next - 1, Cause: io.ErrUnexpectedEOF}
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrTruncatedStream) {
			c.countResume(true)
		}
		if next > before {
			return &streamProgressError{err: err}
		}
		return err
	})
}

// scanStream drains an NDJSON stream body starting at item *next: each
// in-order item is dispatched to onItem and advances the cursor; a
// terminal error item surfaces as its typed sentinel. A body that ends
// mid-line — or dies with a read error — is a *TruncatedStreamError
// carrying the last intact index, which the resume loop turns into a
// reconnect.
func scanStream[T wireStreamItem](body io.Reader, next *int, onItem func(T) error) error {
	rd := bufio.NewReaderSize(body, 1<<16)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			if len(bytes.TrimSpace(line)) > 0 || !errors.Is(err, io.EOF) {
				// A partial final line, or the connection died: everything
				// before the last newline was delivered intact.
				cause := err
				if errors.Is(err, io.EOF) {
					cause = io.ErrUnexpectedEOF
				}
				return &TruncatedStreamError{LastIndex: *next - 1, Cause: cause}
			}
			return nil // clean EOF at a line boundary
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var item T
		if err := json.Unmarshal(line, &item); err != nil {
			// The line arrived complete (newline-terminated) but does not
			// parse: a protocol bug, not a truncation — do not resume.
			return fmt.Errorf("onocd: decode stream line: %w", err)
		}
		if body := item.terminal(); body != nil {
			return apierr.FromEnvelope(apierr.Envelope{Error: *body})
		}
		if item.itemIndex() != *next {
			return fmt.Errorf("onocd: stream item index %d, want %d", item.itemIndex(), *next)
		}
		if err := onItem(item); err != nil {
			return err
		}
		*next++
	}
}

// Tune runs one remote autotuner campaign through POST /v1/noc/tune and
// returns the final result. fn, when non-nil, receives each generation's
// archive front as it is solved (gen counts from 0); a fn error aborts the
// campaign. Campaigns are deterministic from the request seed, so an
// interrupted stream resumes with ?start_index and the replayed prefix is
// bit-identical to what was already delivered.
func (c *Client) Tune(ctx context.Context, req NoCTuneRequest, fn func(gen int, front []tune.Point) error) (*tune.Result, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("onocd: encode tune request: %w", err)
	}
	gens := req.Generations
	if gens == 0 {
		gens = tune.DefaultGenerations
	}
	var res *tune.Result
	err = streamItems(c, ctx, "/v1/noc/tune", "application/json", raw, gens+1,
		func(item NoCTuneItem) error {
			if item.Summary != nil {
				front, err := coreTuneFront(item.Summary.Front)
				if err != nil {
					return err
				}
				res = &tune.Result{
					Front:       front,
					Generations: item.Summary.Generations,
					Particles:   item.Summary.Particles,
					Evaluated:   item.Summary.Evaluated,
					Infeasible:  item.Summary.Infeasible,
				}
				return nil
			}
			if fn == nil {
				return nil
			}
			front, err := coreTuneFront(item.Front)
			if err != nil {
				return err
			}
			return fn(item.Index, front)
		})
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("onocd: tune stream ended without a summary item")
	}
	return res, nil
}

// encodeBatchItems renders the NDJSON request body of /v1/noc/batch.
func encodeBatchItems(items []NoCBatchItem) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return nil, fmt.Errorf("onocd: encode batch request: %w", err)
		}
	}
	return buf.Bytes(), nil
}

// NetworkBatch streams a candidate-population evaluation from the daemon:
// the items go up as NDJSON lines of POST /v1/noc/batch, and fn is invoked
// once per candidate in population order with the rebuilt result. One
// request amortizes HTTP overhead over the whole population, and cells
// neighboring candidates share are memo-cache hits on the daemon. A
// terminal stream error is returned as the typed error it carried; an
// interrupted stream resumes transparently from the last delivered item.
// This is the strict mode: the first failing candidate ends the batch. Use
// NetworkBatchPartial to keep going past per-candidate failures.
func (c *Client) NetworkBatch(ctx context.Context, items []NoCBatchItem, fn func(int, float64, noc.Result) error) error {
	body, err := encodeBatchItems(items)
	if err != nil {
		return err
	}
	return streamItems(c, ctx, "/v1/noc/batch", "application/x-ndjson", body, len(items), nocResults(fn))
}

// NetworkBatchPartial is the partial-failure variant of NetworkBatch
// (?continue_on_error=1): a failed candidate — infeasible input, a bad
// scheme name, an invalid topology — becomes an indexed error record
// instead of ending the batch, and fn still runs for every candidate that
// succeeded. The returned error is nil when everything succeeded, a
// *engine.BatchErrors aggregating typed engine.CandidateError records
// (ordered by index, multi-unwrapping for errors.Is) when some candidates
// failed, or the terminal error if the stream itself died unrecoverably.
func (c *Client) NetworkBatchPartial(ctx context.Context, items []NoCBatchItem, fn func(int, float64, noc.Result) error) error {
	body, err := encodeBatchItems(items)
	if err != nil {
		return err
	}
	var fails []*engine.CandidateError
	seen := make(map[int]bool)
	onResult := nocResults(fn)
	err = streamItems(c, ctx, "/v1/noc/batch?continue_on_error=1", "application/x-ndjson", body, len(items),
		func(item NoCStreamItem) error {
			if item.Partial {
				// Defensive dedupe: the server does not replay partial
				// records below start_index, but a record must never be
				// double-counted even if one slips through a resume.
				if !seen[item.Index] {
					seen[item.Index] = true
					fails = append(fails, &engine.CandidateError{
						Index: item.Index,
						Err:   apierr.FromEnvelope(apierr.Envelope{Error: *item.Error}),
					})
				}
				return nil
			}
			return onResult(item)
		})
	if err != nil {
		return err
	}
	if len(fails) > 0 {
		return &engine.BatchErrors{Errors: fails}
	}
	return nil
}

// NetworkSim runs the network discrete-event simulator on the daemon.
func (c *Client) NetworkSim(ctx context.Context, req NoCRequest) (netsim.NetResults, error) {
	var out NoCSimResult
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/noc/sim", req, &out); err != nil {
		return netsim.NetResults{}, err
	}
	return out.Core()
}

// Validate runs a Monte-Carlo validation on the daemon. mc.Result is
// JSON-safe as-is, so it crosses the wire unchanged.
func (c *Client) Validate(ctx context.Context, req ValidateRequest) (mc.Result, error) {
	var out mc.Result
	err := c.roundTrip(ctx, http.MethodPost, "/v1/validate", req, &out)
	return out, err
}

// Evaluate implements core.Evaluator against the daemon: one (scheme,
// target BER) point via a single-cell sweep, answered from the daemon's
// coalescing memo cache.
func (c *Client) Evaluate(ctx context.Context, code ecc.Code, targetBER float64) (core.Evaluation, error) {
	resp, err := c.Sweep(ctx, SweepRequest{Schemes: []string{code.Name()}, TargetBERs: []float64{targetBER}})
	if err != nil {
		return core.Evaluation{}, err
	}
	if len(resp.Evaluations) != 1 {
		return core.Evaluation{}, fmt.Errorf("onocd: %d evaluations for a single-point sweep", len(resp.Evaluations))
	}
	return resp.Evaluations[0].Core()
}
