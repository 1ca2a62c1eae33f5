package faultinject

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"photonoc/internal/apierr"
)

// TestSpreadSumsToRate: the standard mix partitions the total rate.
func TestSpreadSumsToRate(t *testing.T) {
	for _, rate := range []float64{0, 0.05, 0.1, 0.5} {
		if got := Spread(rate).Total(); math.Abs(got-rate) > 1e-12 {
			t.Errorf("Spread(%g).Total() = %g", rate, got)
		}
	}
}

// TestDecideDeterministicPerSeed: two injectors with the same seed make
// identical fault decisions; the chaos gate replays runs on this.
func TestDecideDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []kind {
		inj := NewSpread(seed, 0.5)
		out := make([]kind, 200)
		for i := range out {
			out[i], _ = inj.decide(i%2 == 0)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 drew identical fault streams")
	}
}

// TestFaultRateConverges: over many requests the observed fault fraction
// approaches the configured rate, and counts are self-consistent.
func TestFaultRateConverges(t *testing.T) {
	inj := NewSpread(3, 0.1)
	const n = 20000
	for i := 0; i < n; i++ {
		inj.decide(true)
	}
	c := inj.Counts()
	if c.Requests != n {
		t.Fatalf("requests = %d", c.Requests)
	}
	frac := float64(c.Faults()) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("fault fraction %g, want ≈0.1", frac)
	}
	for name, v := range map[string]uint64{
		"latency": c.Latencies, "reject": c.Rejects, "unavailable": c.Unavailables,
		"reset": c.Resets, "truncate": c.Truncates,
	} {
		if v == 0 {
			t.Errorf("no %s faults in %d requests at rate 0.1", name, n)
		}
	}
}

// TestTruncateOnlyOnStreaming: non-streaming routes never get a truncate
// fault — a half-written single JSON object is not a failure mode we model.
func TestTruncateOnlyOnStreaming(t *testing.T) {
	inj := New(Options{Seed: 5, Rates: Rates{Truncate: 1}})
	for i := 0; i < 50; i++ {
		if k, _ := inj.decide(false); k != none {
			t.Fatalf("non-streaming request %d drew fault %v", i, k)
		}
	}
	k, budget := inj.decide(true)
	if k != truncate || budget < 64 {
		t.Fatalf("streaming draw = %v budget %d", k, budget)
	}
}

// TestMiddlewareRejectEnvelope: an injected 429 is a well-formed apierr
// envelope with the configured Retry-After — indistinguishable from real
// admission control to the client.
func TestMiddlewareRejectEnvelope(t *testing.T) {
	inj := New(Options{Rates: Rates{Reject: 1}, RetryAfter: "1"})
	h := inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Fatal("handler ran through a reject fault")
	}), false)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/sweep", nil))
	if rr.Code != 429 {
		t.Fatalf("status = %d", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q", got)
	}
	var env apierr.Envelope
	if err := decodeBody(rr.Body.String(), &env); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(apierr.FromEnvelope(env), apierr.ErrOverloaded) {
		t.Fatalf("envelope %+v does not map to ErrOverloaded", env)
	}
}

// TestMiddlewareUnavailableEnvelope: 503 maps to ErrUnavailable.
func TestMiddlewareUnavailableEnvelope(t *testing.T) {
	inj := New(Options{Rates: Rates{Unavailable: 1}})
	h := inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Fatal("handler ran through an unavailable fault")
	}), false)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/sweep", nil))
	if rr.Code != 503 {
		t.Fatalf("status = %d", rr.Code)
	}
	var env apierr.Envelope
	if err := decodeBody(rr.Body.String(), &env); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(apierr.FromEnvelope(env), apierr.ErrUnavailable) {
		t.Fatalf("envelope %+v does not map to ErrUnavailable", env)
	}
}

// TestMiddlewareResetAborts: a reset fault panics with http.ErrAbortHandler
// (net/http's quiet connection-teardown contract).
func TestMiddlewareResetAborts(t *testing.T) {
	inj := New(Options{Rates: Rates{Reset: 1}})
	h := inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), false)
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/sweep", nil))
	t.Fatal("no panic")
}

// TestMiddlewareTruncateCutsBody: a truncate fault lets the handler run but
// cuts its output at the drawn budget, then aborts.
func TestMiddlewareTruncateCutsBody(t *testing.T) {
	inj := New(Options{Rates: Rates{Truncate: 1}, TruncateMinBytes: 100, TruncateSpanBytes: 1})
	payload := strings.Repeat("x", 50) + "\n"
	h := inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 10; i++ {
			io.WriteString(w, payload)
		}
	}), true)
	rr := httptest.NewRecorder()
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
			}
		}()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/noc/sweep", nil))
		t.Fatal("stream was not truncated")
	}()
	// Budget is exactly 100 (min 100, span 1): two full lines and a prefix.
	if got := rr.Body.Len(); got != 100 {
		t.Fatalf("delivered %d bytes, want 100", got)
	}
}

// decodeBody unmarshals a JSON body string.
func decodeBody(s string, v any) error {
	return json.Unmarshal([]byte(s), v)
}
