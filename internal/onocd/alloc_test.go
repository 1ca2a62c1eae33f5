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
// scheme table keep a request near 220 KiB; a gzip writer per response and
// a per-call scheme-table rebuild on the client took it to about 1.4 MiB.
// The headroom covers the race detector, under which sync.Pool drops a
// quarter of the writers it is given (about 420 KiB per request).
const warmRequestAllocBound = 640 << 10

// TestWarmGzipRequestAllocations drives warm /v1/sweep and /v1/noc/eval
// requests through Server.Handler with Accept-Encoding: gzip, decodes each
// response as the client does (gunzip, JSON, Core) and bounds the mean
// bytes allocated per request across server and client.
func TestWarmGzipRequestAllocations(t *testing.T) {
	s, err := NewServer(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
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
	serve := func(r route) {
		req := httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s: status %d, encoding %q", r.path, rec.Code, rec.Header().Get("Content-Encoding"))
		}
		zr, err := gzip.NewReader(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.core(body); err != nil {
			t.Fatalf("%s: %v", r.path, err)
		}
	}
	for _, r := range routes { // warm the engine cache and the writer pool
		serve(r)
		serve(r)
	}

	const requests = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		serve(routes[i%len(routes)])
	}
	runtime.ReadMemStats(&after)
	mean := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("mean allocation per warm gzip request: %d KiB (bound %d KiB)", mean>>10, warmRequestAllocBound>>10)
	if mean > warmRequestAllocBound {
		t.Errorf("warm gzip requests allocate %d KiB each, want at most %d KiB", mean>>10, warmRequestAllocBound>>10)
	}
}
