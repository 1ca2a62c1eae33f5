package onocd

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// warmRequestAllocBound caps the mean bytes allocated per warm gzip request
// in TestWarmGzipRequestAllocations. A pooled gzip writer and the built-once
// scheme table keep a request at 150–250 KiB (the spread is the pool
// dropping 1.2 MiB BestSpeed writers at a GC); a gzip writer per response
// and a per-call scheme-table rebuild on the client took it to about
// 1.4 MiB. The headroom covers the race detector, under which sync.Pool
// drops a quarter of the writers it is given (430–600 KiB per request with
// BestSpeed writers).
const warmRequestAllocBound = 640 << 10

// warmGzipRequests builds a server and returns a function that serves the
// i-th of two warm requests, /v1/sweep and /v1/noc/eval, through
// Server.Handler with Accept-Encoding: gzip and decodes the response as the
// client does (gunzip, JSON, Core). Both routes are served twice first, to
// warm the engine cache and the writer pool.
func warmGzipRequests(tb testing.TB) func(i int) {
	s, err := NewServer(Options{Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	type route struct {
		path, body string
		core       func([]byte) error
	}
	routes := []route{
		{"/v1/sweep", `{"target_bers":[1e-11]}`, func(b []byte) error {
			var out SweepResponse
			if err := json.Unmarshal(b, &out); err != nil {
				return err
			}
			for _, ev := range out.Evaluations {
				if _, err := ev.Core(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"/v1/noc/eval", `{"topology":"mesh","tiles":16,"columns":4,"target_ber":1e-11,"objective":"min-energy"}`, func(b []byte) error {
			var out NoCResult
			if err := json.Unmarshal(b, &out); err != nil {
				return err
			}
			_, err := out.Core()
			return err
		}},
	}
	serve := func(i int) {
		r := routes[i%len(routes)]
		req := httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
			tb.Fatalf("%s: status %d, encoding %q", r.path, rec.Code, rec.Header().Get("Content-Encoding"))
		}
		zr, err := gzip.NewReader(rec.Body)
		if err != nil {
			tb.Fatal(err)
		}
		body, err := io.ReadAll(zr)
		if err != nil {
			tb.Fatal(err)
		}
		if err := r.core(body); err != nil {
			tb.Fatalf("%s: %v", r.path, err)
		}
	}
	for i := 0; i < 2*len(routes); i++ {
		serve(i)
	}
	return serve
}

// TestWarmGzipRequestAllocations bounds the mean bytes allocated per warm
// gzip request across server and client.
func TestWarmGzipRequestAllocations(t *testing.T) {
	serve := warmGzipRequests(t)
	const requests = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		serve(i)
	}
	runtime.ReadMemStats(&after)
	mean := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("mean allocation per warm gzip request: %d KiB (bound %d KiB)", mean>>10, warmRequestAllocBound>>10)
	if mean > warmRequestAllocBound {
		t.Errorf("warm gzip requests allocate %d KiB each, want at most %d KiB", mean>>10, warmRequestAllocBound>>10)
	}
}

// BenchmarkWarmGzipRequest measures the served-request wire layer: one warm
// request per op, alternating /v1/sweep and /v1/noc/eval, through the
// handler's JSON encode and gzip, then the client's gunzip, decode and
// Core.
func BenchmarkWarmGzipRequest(b *testing.B) {
	serve := warmGzipRequests(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		serve(i)
		i++
	}
}
