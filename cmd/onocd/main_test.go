package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"photonoc/internal/onocd"
)

// update regenerates the golden fixtures:
//
//	go test ./cmd/onocd -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases pin the daemon's HTTP responses byte for byte: status line,
// content type and body. Every case is deterministic — the engine solves
// are pure computation, map-ordered output is sorted, and the deadline
// case expires with certainty (a 2^30-frame Monte-Carlo run against a
// 1 ms budget). TestGolden also holds every application/json body to its
// json.Compact form plus one newline, so indentation cannot return with a
// regenerated fixture.
var goldenCases = []struct {
	name   string
	method string
	path   string
	body   string
}{
	{"sweep", "POST", "/v1/sweep",
		`{"schemes": ["H(7,4)", "w/o ECC"], "target_bers": [1e-12, 1e-9]}`},
	{"sweep_stream", "POST", "/v1/sweep/stream",
		`{"schemes": ["H(7,4)"], "target_bers": [1e-12, 1e-9]}`},
	{"noc_eval", "POST", "/v1/noc/eval",
		`{"topology": "mesh", "tiles": 4, "target_ber": 1e-11, "use_dac": true}`},
	{"decide", "POST", "/v1/decide",
		`{"target_ber": 1e-11, "objective": "min-power"}`},
	{"infeasible", "POST", "/v1/decide",
		`{"target_ber": 1e-12, "max_ct": 1}`},
	{"malformed", "POST", "/v1/sweep", `{"target_bers": [1e-9`},
	{"unknown_field", "POST", "/v1/sweep", `{"target_berz": [1e-9]}`},
	{"deadline", "POST", "/v1/validate?timeout_ms=1",
		`{"scheme": "H(7,4)", "raw_ber": 1e-3, "frames": 1073741824}`},
}

func TestGolden(t *testing.T) {
	srv, err := onocd.NewServer(onocd.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Header.Get("Content-Type") == "application/json" {
				var compact bytes.Buffer
				if err := json.Compact(&compact, body); err != nil {
					t.Fatalf("body is not JSON: %v\n%s", err, body)
				}
				compact.WriteByte('\n')
				if !bytes.Equal(body, compact.Bytes()) {
					t.Errorf("body is not compact JSON plus a newline:\n%s", body)
				}
			}
			var out bytes.Buffer
			fmt.Fprintf(&out, "status: %d\ncontent-type: %s\n\n%s",
				resp.StatusCode, resp.Header.Get("Content-Type"), body)

			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (regenerate with -update): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("response differs from %s (regenerate with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
					path, out.String(), want)
			}
		})
	}
}

// syncBuffer lets the daemon goroutine and the test read/write output
// concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls the buffer until pred(output) or the deadline.
func (s *syncBuffer) waitFor(t *testing.T, what string, pred func(string) bool) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if out := s.String(); pred(out) {
			return out
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; output so far:\n%s", what, s.String())
	return ""
}

// TestDaemonLifecycle drives the real daemon loop: boot on an OS-assigned
// port, serve a request, hot-reload via SIGHUP, then drain gracefully on
// cancellation.
func TestDaemonLifecycle(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "link.json")
	writeDefaultConfig(t, cfgPath)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-config", cfgPath}, &out)
	}()

	boot := out.waitFor(t, "the listening banner", func(s string) bool {
		return strings.Contains(s, "onocd: serving on http://")
	})
	base := strings.TrimSpace(strings.Split(strings.SplitAfter(boot, "serving on ")[1], " ")[0])
	c := onocd.NewClient(base)
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := c.Sweep(ctx, onocd.SweepRequest{TargetBERs: []float64{1e-9}}); err != nil {
		t.Fatalf("sweep: %v", err)
	}

	// SIGHUP re-reads -config and swaps the engine generation.
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	out.waitFor(t, "the reload banner", func(s string) bool {
		return strings.Contains(s, "onocd: reloaded engine")
	})
	st, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reloads != 1 {
		t.Errorf("reloads = %d, want 1", st.Reloads)
	}

	// Cancellation drains and exits cleanly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(out.String(), "onocd: drained, bye") {
		t.Errorf("missing drain banner:\n%s", out.String())
	}
}

// writeDefaultConfig saves the paper's configuration where -config can
// re-read it.
func writeDefaultConfig(t *testing.T, path string) {
	t.Helper()
	srv, err := onocd.NewServer(onocd.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := srv.Engine().Config()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := cfg.SaveConfig(f); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadFlags: flag and configuration errors surface as errors,
// not a half-started daemon.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-config", "/nonexistent/link.json"},
		{"-addr", "999.999.999.999:0"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("onocd %s: no error", strings.Join(args, " "))
		}
	}
}
