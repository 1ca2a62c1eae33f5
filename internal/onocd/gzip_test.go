package onocd

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"photonoc/internal/faultinject"
	"photonoc/internal/noc"
)

// rawGet fetches a path with compression negotiation fully under the test's
// control: Go's transport-level auto-gzip is disabled so the wire encoding
// is visible.
func rawGet(t *testing.T, base, path string, acceptGzip bool) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acceptGzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestGzipLargeJSONResponse: a JSON body over the threshold compresses, the
// gunzipped payload is the same JSON, and Vary: Accept-Encoding is set so
// caches key on the negotiation.
func TestGzipLargeJSONResponse(t *testing.T) {
	_, c := newTestServer(t, Options{GzipMinBytes: 64})
	resp := rawGet(t, c.Base, "/v1/config", true)
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	if v := resp.Header.Get("Vary"); !strings.Contains(v, "Accept-Encoding") {
		t.Errorf("Vary = %q, want Accept-Encoding", v)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var cfg ConfigResponse
	if err := json.NewDecoder(zr).Decode(&cfg); err != nil {
		t.Fatalf("decoding gunzipped config: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("gzip trailer: %v", err)
	}
	if cfg.Fingerprint == "" {
		t.Error("config fingerprint empty after gunzip")
	}
}

// TestGzipSmallResponseBypassed: a body under the threshold ships identity
// even when the client accepts gzip — compressing a handful of bytes costs
// more than it saves.
func TestGzipSmallResponseBypassed(t *testing.T) {
	_, c := newTestServer(t, Options{GzipMinBytes: 1 << 20})
	resp := rawGet(t, c.Base, "/v1/config", true)
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("Content-Encoding = %q, want identity for a sub-threshold body", ce)
	}
	var cfg ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Fingerprint == "" {
		t.Error("config fingerprint empty after gunzip")
	}
}

// TestGzipNotAcceptedStaysIdentity: no Accept-Encoding means no gzip, no
// matter the size.
func TestGzipNotAcceptedStaysIdentity(t *testing.T) {
	_, c := newTestServer(t, Options{GzipMinBytes: 1})
	resp := rawGet(t, c.Base, "/v1/config", false)
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("Content-Encoding = %q, want identity without Accept-Encoding", ce)
	}
	var cfg ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
}

// TestGzipDisabled: a negative GzipMinBytes turns compression off entirely.
func TestGzipDisabled(t *testing.T) {
	_, c := newTestServer(t, Options{GzipMinBytes: -1})
	resp := rawGet(t, c.Base, "/v1/config", true)
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("Content-Encoding = %q, want identity with gzip disabled", ce)
	}
}

// TestGzipNDJSONStream: a streaming route compresses when accepted, and the
// gunzipped stream is line-for-line the same NDJSON sequence an identity
// request delivers.
func TestGzipNDJSONStream(t *testing.T) {
	_, c := newTestServer(t, Options{GzipMinBytes: 1})
	fetch := func(acceptGzip bool) ([]string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/sweep/stream",
			strings.NewReader(`{"target_bers":[1e-9,1e-10,1e-11,1e-12]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-ndjson")
		if acceptGzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		tr := &http.Transport{DisableCompression: true}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := io.Reader(resp.Body)
		if resp.Header.Get("Content-Encoding") == "gzip" {
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			body = zr
		}
		var lines []string
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var item map[string]any
			if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
				t.Fatalf("line %d is not JSON: %v", len(lines), err)
			}
			lines = append(lines, sc.Text())
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return lines, resp.Header.Get("Content-Encoding")
	}

	gzLines, enc := fetch(true)
	if enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip on the stream", enc)
	}
	idLines, _ := fetch(false)
	if len(gzLines) == 0 || len(gzLines) != len(idLines) {
		t.Fatalf("gzip stream delivered %d lines, identity %d", len(gzLines), len(idLines))
	}
	for i := range gzLines {
		if gzLines[i] != idLines[i] {
			t.Fatalf("line %d differs across encodings:\n gzip: %s\n  raw: %s", i, gzLines[i], idLines[i])
		}
	}
}

// TestClientWorksOverGzip: the stock client (Go's auto-gzip transport) is
// oblivious to server-side compression — streams, resumes and metrics all
// round-trip through a gzip-everything server.
func TestClientWorksOverGzip(t *testing.T) {
	_, c := newTestServer(t, Options{GzipMinBytes: 1})
	ctx := context.Background()
	n := 0
	err := c.NetworkSweep(ctx, NoCRequest{Topology: "crossbar", Tiles: 8, TargetBERs: []float64{1e-9, 1e-10, 1e-11}},
		func(int, float64, noc.Result) error { n++; return nil })
	if err != nil || n != 3 {
		t.Fatalf("sweep over gzip: %d items, %v", n, err)
	}
	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "onocd_requests_total") {
		t.Error("metrics page missing onocd_requests_total after gzip round-trip")
	}
}

// wireTransport returns a transport with Go's transparent decompression
// disabled, so the wire encoding is visible to the test.
func wireTransport(t *testing.T) *http.Transport {
	tr := &http.Transport{DisableCompression: true}
	t.Cleanup(tr.CloseIdleConnections)
	return tr
}

// exchange sends one request (a POST when body is non-empty) and returns
// the wire body, read up to any connection error (returned alongside), and
// its Content-Encoding. A non-2xx status is an error.
func exchange(tr http.RoundTripper, url, body string, acceptGzip bool) (raw []byte, enc string, err error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != "" {
		method, rd = http.MethodPost, strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, "", err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if acceptGzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, "", fmt.Errorf("status %s", resp.Status)
	}
	raw, err = io.ReadAll(resp.Body)
	return raw, resp.Header.Get("Content-Encoding"), err
}

// gunzip decodes exactly one gzip member: a stream cut before its trailer
// fails with io.ErrUnexpectedEOF, a corrupt one with a checksum error.
func gunzip(raw []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	return io.ReadAll(zr)
}

// TestGzipPanicAfterCommitSkipsPool: a handler that panics after its
// response committed to gzip never reaches close, so its writer neither
// gets a trailer nor goes back to the pool, and the client sees a cut
// stream.
func TestGzipPanicAfterCommitSkipsPool(t *testing.T) {
	s := &Server{opts: Options{GzipMinBytes: 1}}
	var gw *gzipResponseWriter
	srv := httptest.NewServer(s.withGzip(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gw = w.(*gzipResponseWriter)
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, strings.Repeat(`{"index":0}`+"\n", 64))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})))
	raw, enc, err := exchange(wireTransport(t), srv.URL, "", true)
	if err == nil {
		t.Error("aborted response read to a clean end")
	}
	if enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	if _, err := gunzip(raw); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("gunzip of the cut stream: %v, want io.ErrUnexpectedEOF (no trailer)", err)
	}
	srv.Close() // waits for the aborted handler to unwind
	if gw == nil || gw.closed || gw.gz == nil {
		t.Error("the panicking handler's writer was closed and returned to the pool")
	}
}

// TestGzipTruncatedChaosThenCleanResponses: chaos truncations cut gzip
// streams without a trailer, and the gzip responses that follow on the same
// server, through whatever writers the pool hands out, decode to exactly
// the identity-encoded bytes.
func TestGzipTruncatedChaosThenCleanResponses(t *testing.T) {
	inj := faultinject.New(faultinject.Options{
		Seed:              1,
		Rates:             faultinject.Rates{Truncate: 1}, // every stream is cut; buffered routes pass
		TruncateMinBytes:  300,
		TruncateSpanBytes: 1,
	})
	_, c := newTestServer(t, Options{GzipMinBytes: 1, FaultInjector: inj})
	tr := wireTransport(t)
	buffered := []struct{ path, body string }{
		{"/v1/sweep", `{"target_bers":[1e-9,1e-12]}`},
		{"/v1/sweep", `{"schemes":["H(7,4)"],"target_bers":[1e-11]}`},
		{"/v1/noc/eval", `{"topology":"mesh","tiles":16,"columns":4,"target_ber":1e-11,"objective":"min-energy"}`},
		{"/v1/config", ""},
	}
	for round := 0; round < 3; round++ {
		raw, enc, err := exchange(tr, c.Base+"/v1/sweep/stream", `{"target_bers":[1e-6,1e-7,1e-8,1e-9,1e-10,1e-11]}`, true)
		if err == nil || enc != "gzip" {
			t.Fatalf("round %d: stream read err %v, encoding %q; want a cut gzip stream", round, err, enc)
		}
		if _, err := gunzip(raw); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("round %d: gunzip of the truncated stream: %v, want io.ErrUnexpectedEOF", round, err)
		}
		for _, b := range buffered {
			want, _, err := exchange(tr, c.Base+b.path, b.body, false)
			if err != nil {
				t.Fatal(err)
			}
			raw, enc, err := exchange(tr, c.Base+b.path, b.body, true)
			if err != nil || enc != "gzip" {
				t.Fatalf("round %d %s: err %v, encoding %q", round, b.path, err, enc)
			}
			got, err := gunzip(raw)
			if err != nil {
				t.Fatalf("round %d %s: gunzip: %v", round, b.path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d %s: gzip body differs from identity:\n gzip: %s\n  raw: %s", round, b.path, got, want)
			}
		}
	}
	if n := inj.Counts().Truncates; n != 3 {
		t.Errorf("injected truncations = %d, want 3", n)
	}
}

// TestGzipConcurrentStreamsAndBuffered: concurrent NDJSON streams and
// buffered responses share the writer pool without crossing bytes — every
// gzip body decodes, trailer included, to its identity-encoded twin.
func TestGzipConcurrentStreamsAndBuffered(t *testing.T) {
	_, c := newTestServer(t, Options{GzipMinBytes: 1})
	tr := wireTransport(t)
	reqs := []struct{ path, body string }{
		{"/v1/sweep/stream", `{"target_bers":[1e-6,1e-8,1e-10,1e-12]}`},
		{"/v1/noc/sweep", `{"topology":"crossbar","tiles":8,"target_bers":[1e-9,1e-11]}`},
		{"/v1/sweep", `{"target_bers":[1e-9]}`},
		{"/v1/noc/eval", `{"topology":"ring","tiles":8,"target_ber":1e-10}`},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if want[i], _, err = exchange(tr, c.Base+r.path, r.body, false); err != nil {
			t.Fatal(err)
		}
	}
	const clients, rounds = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (g + k) % len(reqs)
				raw, enc, err := exchange(tr, c.Base+reqs[i].path, reqs[i].body, true)
				if err == nil && enc != "gzip" {
					err = fmt.Errorf("encoding %q", enc)
				}
				var got []byte
				if err == nil {
					got, err = gunzip(raw)
				}
				if err == nil && !bytes.Equal(got, want[i]) {
					err = fmt.Errorf("body differs from identity:\n gzip: %s\n  raw: %s", got, want[i])
				}
				if err != nil {
					errs <- fmt.Errorf("client %d %s: %w", g, reqs[i].path, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
