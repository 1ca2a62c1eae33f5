package onocd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/mc"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
	"photonoc/internal/resilience"
)

// Client drives netsim, so it must satisfy the evaluator seam.
var _ core.Evaluator = (*Client)(nil)

// newTestServer spins up the daemon on httptest with small limits.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, NewClient(hs.URL)
}

func TestSweepMatchesInProcess(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	bers := []float64{1e-12, 1e-9}

	resp, err := c.Sweep(ctx, SweepRequest{TargetBERs: bers})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Engine().Sweep(ctx, nil, bers)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Evaluations) != len(want) {
		t.Fatalf("%d evaluations, want %d", len(resp.Evaluations), len(want))
	}
	for i, w := range resp.Evaluations {
		back, err := w.Core()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, want[i]) {
			t.Errorf("evaluation %d: remote %+v != local %+v", i, back, want[i])
		}
	}
}

func TestSweepStreamMatchesBatch(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	bers := []float64{1e-11, 1e-9}
	want, err := s.Engine().Sweep(ctx, nil, bers)
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(SweepRequest{TargetBERs: bers})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/sweep/stream", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var items []StreamItem
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var it StreamItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("line %d: %v", len(items), err)
		}
		items = append(items, it)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(items) != len(want) {
		t.Fatalf("%d stream items, want %d", len(items), len(want))
	}
	for i, it := range items {
		if it.Index != i || it.Error != nil || it.Evaluation == nil {
			t.Fatalf("item %d malformed: %+v", i, it)
		}
		back, err := it.Evaluation.Core()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, want[i]) {
			t.Errorf("stream item %d differs from batch", i)
		}
	}
}

func TestDecideRoutes(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()

	dec, err := c.Decide(ctx, DecideRequest{TargetBER: 1e-11, Objective: "min-power"})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Eval.Feasible || dec.Eval.Scheme == "" {
		t.Errorf("decision not feasible: %+v", dec)
	}
	// The remote decision must be the in-process manager's, field for field.
	ev, err := s.Engine().Evaluate(ctx, mustScheme(t, dec.Eval.Scheme), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dec.Eval.Core()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ev) {
		t.Errorf("remote decision eval differs from engine solve")
	}

	// Infeasible requirements surface as a typed 422 the client can match.
	_, err = c.Decide(ctx, DecideRequest{TargetBER: 1e-12, MaxCT: 1})
	if !errors.Is(err, apierr.ErrInfeasible) {
		t.Errorf("want ErrInfeasible across the wire, got %v", err)
	}
}

func TestNoCEvalMatchesInProcess(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	req := NoCRequest{Topology: "mesh", Tiles: 4, TargetBER: 1e-11, UseDAC: true}

	remote, err := c.NetworkEval(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := req.network()
	if err != nil {
		t.Fatal(err)
	}
	local, err := s.Engine().Network(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The reconstructed result loses the full per-link Evaluation (only the
	// scheme survives the wire), so compare the wire projections.
	rw, lw := toWireNoC(remote), toWireNoC(local)
	rj, _ := json.Marshal(rw)
	lj, _ := json.Marshal(lw)
	if !bytes.Equal(rj, lj) {
		t.Errorf("remote NoC eval differs:\nremote %s\nlocal  %s", rj, lj)
	}
	if remote.EnergyPerBitJ <= 0 || !remote.Feasible {
		t.Errorf("implausible result: %+v", remote)
	}
}

func TestNoCSimDeterministicAcrossWire(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	req := NoCRequest{Topology: "bus", Tiles: 4, TargetBER: 1e-11, Messages: 500, Seed: 42}

	remote, err := c.NetworkSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, _ := req.network()
	obj, err := parseObjective("")
	if err != nil {
		t.Fatal(err)
	}
	local, err := s.Engine().SimulateNetwork(ctx, cfg, engine.NetworkSimOptions{
		TargetBER: 1e-11, Messages: 500, Seed: 42, Objective: obj,
	})
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := json.Marshal(toWireSim(remote))
	lj, _ := json.Marshal(toWireSim(local))
	if !bytes.Equal(rj, lj) {
		t.Errorf("remote sim differs from local seeded run:\nremote %s\nlocal  %s", rj, lj)
	}
}

func TestValidateRoute(t *testing.T) {
	_, c := newTestServer(t, Options{})
	res, err := c.Validate(context.Background(), ValidateRequest{
		Scheme: "H(7,4)", RawBER: 1e-2, Frames: 2000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The bit-sliced engine rounds the frame budget up to a word boundary.
	if res.Frames < 2000 || res.Code != "H(7,4)" {
		t.Errorf("result: %+v", res)
	}
}

func TestErrorEnvelopesPerRoute(t *testing.T) {
	_, c := newTestServer(t, Options{})
	post := func(path, body string) (int, apierr.Envelope) {
		t.Helper()
		resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env apierr.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: decoding envelope: %v", path, err)
		}
		return resp.StatusCode, env
	}

	for _, tc := range []struct {
		path, body string
		status     int
		code       string
	}{
		{"/v1/sweep", "{not json", 400, apierr.CodeInvalidInput},
		{"/v1/sweep", `{"surprise_field": 1}`, 400, apierr.CodeInvalidInput},
		{"/v1/sweep", `{"target_bers": []}`, 400, apierr.CodeInvalidInput},
		{"/v1/sweep", `{"schemes": ["nope"], "target_bers": [1e-9]}`, 400, apierr.CodeInvalidInput},
		{"/v1/decide", `{"target_ber": 1e-12, "max_ct": 1}`, 422, apierr.CodeInfeasible},
		{"/v1/decide", `{"target_ber": 1e-9, "objective": "fastest"}`, 400, apierr.CodeInvalidInput},
		{"/v1/noc/eval", `{"topology": "torus", "tiles": 4, "target_ber": 1e-9}`, 400, apierr.CodeInvalidInput},
		{"/v1/noc/eval", `{"topology": "mesh", "tiles": 1, "target_ber": 1e-9}`, 400, apierr.CodeInvalidConfig},
		{"/v1/validate", `{"scheme": "H(7,4)", "raw_ber": 2.0, "frames": 10}`, 400, apierr.CodeInvalidInput},
	} {
		status, env := post(tc.path, tc.body)
		if status != tc.status || env.Error.Code != tc.code {
			t.Errorf("%s %s: got %d/%q, want %d/%q (message %q)",
				tc.path, tc.body, status, env.Error.Code, tc.status, tc.code, env.Error.Message)
		}
		if env.Error.Status != status {
			t.Errorf("%s: envelope status %d != HTTP status %d", tc.path, env.Error.Status, status)
		}
	}
}

// TestTileBoundRefused: a tile count above noc.MaxTiles is refused with a
// typed 400 on every network route, before any network is built.
func TestTileBoundRefused(t *testing.T) {
	s, c := newTestServer(t, Options{})
	huge := 1_000_000_000
	for _, tc := range []struct{ path, body, code string }{
		{"/v1/noc/eval", fmt.Sprintf(`{"topology": "bus", "tiles": %d, "target_ber": 1e-9}`, huge), apierr.CodeInvalidConfig},
		{"/v1/noc/sweep", fmt.Sprintf(`{"topology": "crossbar", "tiles": %d, "target_bers": [1e-9]}`, huge), apierr.CodeInvalidConfig},
		{"/v1/noc/batch", fmt.Sprintf(`{"topology": "mesh", "tiles": %d, "target_ber": 1e-9}`, huge), apierr.CodeInvalidConfig},
		{"/v1/noc/sim", fmt.Sprintf(`{"topology": "bus", "tiles": %d, "target_ber": 1e-9, "messages": 10}`, huge), apierr.CodeInvalidConfig},
		{"/v1/noc/tune", fmt.Sprintf(`{"target_ber": 1e-11, "kinds": ["mesh"], "tiles": [8, %d]}`, huge), apierr.CodeInvalidInput},
		{"/v1/noc/eval", fmt.Sprintf(`{"topology": "bus", "tiles": %d, "target_ber": 1e-9}`, noc.MaxTiles+1), apierr.CodeInvalidConfig},
	} {
		resp, err := http.Post(c.Base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var env apierr.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding envelope: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != tc.code {
			t.Errorf("%s %s: got %d/%q, want 400/%q (message %q)", tc.path, tc.body, resp.StatusCode, env.Error.Code, tc.code, env.Error.Message)
		}
	}
	if n := s.state.Load().eng.CacheStats().Networks; n != 0 {
		t.Errorf("refused requests built %d networks, want 0", n)
	}
}

// TestWireSizeBoundsRefused: a message count above netsim.MaxMessages and
// a shard count above mc.MaxShards, the two wire sizes that allocate up
// front, are refused with a typed 400.
func TestWireSizeBoundsRefused(t *testing.T) {
	_, c := newTestServer(t, Options{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/noc/sim", fmt.Sprintf(`{"topology": "bus", "tiles": 12, "target_ber": 1e-9, "messages": %d}`, netsim.MaxMessages+1)},
		{"/v1/validate", fmt.Sprintf(`{"scheme": "H(7,4)", "raw_ber": 1e-3, "frames": 64, "shards": %d}`, mc.MaxShards+1)},
	} {
		resp, err := http.Post(c.Base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var env apierr.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding envelope: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != apierr.CodeInvalidInput {
			t.Errorf("%s %s: got %d/%q, want 400/%q (message %q)", tc.path, tc.body, resp.StatusCode, env.Error.Code, apierr.CodeInvalidInput, env.Error.Message)
		}
	}
}

// TestBodyBoundRefused: a request body one byte over DefaultMaxBodyBytes is
// refused with a 400 invalid_input that names the limit, before anything
// is solved; the same request padded to exactly the limit is served.
func TestBodyBoundRefused(t *testing.T) {
	s, c := newTestServer(t, Options{})
	body := func(n int) string {
		const head, tail = `{"target_bers": [1e-11]`, `}`
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}

	resp, err := http.Post(c.Base+"/v1/sweep", "application/json", strings.NewReader(body(DefaultMaxBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	var env apierr.Envelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != apierr.CodeInvalidInput {
		t.Errorf("oversized body: got %d/%q, want 400/%q (message %q)", resp.StatusCode, env.Error.Code, apierr.CodeInvalidInput, env.Error.Message)
	}
	if limit := fmt.Sprint(DefaultMaxBodyBytes); !strings.Contains(env.Error.Message, limit) {
		t.Errorf("message %q does not name the %s-byte limit", env.Error.Message, limit)
	}
	if n := s.Engine().CacheStats().ColdSolves; n != 0 {
		t.Errorf("refused body ran %d cold solves, want 0", n)
	}

	resp, err = http.Post(c.Base+"/v1/sweep", "application/json", strings.NewReader(body(DefaultMaxBodyBytes)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("body of exactly the limit: status %d, want 200", resp.StatusCode)
	}
}

// TestNoCStreamStartIndexBounds: on every streaming route, a resume cursor
// at or past the end of the stream is rejected with 400 invalid_input
// before any solve, a cursor that is not a non-negative integer is
// rejected too, and the last valid cursor streams the final item alone.
func TestNoCStreamStartIndexBounds(t *testing.T) {
	s, c := newTestServer(t, Options{})
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(c.Base+path, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}
	for _, route := range []struct {
		path, body string
		items      int
	}{
		{"/v1/sweep/stream", `{"target_bers": [1e-9, 1e-11]}`, 6},
		{"/v1/noc/sweep", `{"topology": "crossbar", "tiles": 8, "target_bers": [1e-9, 1e-11]}`, 2},
		{"/v1/noc/batch", `{"topology": "crossbar", "tiles": 8, "target_ber": 1e-9}` + "\n" +
			`{"topology": "crossbar", "tiles": 8, "target_ber": 1e-11}`, 2},
		{"/v1/noc/tune", `{"target_ber": 1e-11, "seed": 7, "particles": 4, "generations": 2}`, 3},
	} {
		for _, start := range []string{fmt.Sprint(route.items), fmt.Sprint(route.items + 1), "100", "abc", "-1"} {
			before := s.Engine().CacheStats()
			resp, out := post(route.path+"?start_index="+start, route.body)
			var env apierr.Envelope
			if err := json.Unmarshal(out, &env); err != nil {
				t.Fatalf("%s start_index=%s: status %d, body %q is not an error envelope", route.path, start, resp.StatusCode, out)
			}
			want := "start_index " + start + " beyond"
			if start == "abc" || start == "-1" {
				want = "must be a non-negative integer"
			}
			if resp.StatusCode != 400 || env.Error.Code != apierr.CodeInvalidInput || !strings.Contains(env.Error.Message, want) {
				t.Errorf("%s start_index=%s: got %d/%q %q, want 400/%q naming the cursor",
					route.path, start, resp.StatusCode, env.Error.Code, env.Error.Message, apierr.CodeInvalidInput)
			}
			if after := s.Engine().CacheStats(); after != before {
				t.Errorf("%s start_index=%s: rejected request touched the engine (%+v → %+v)", route.path, start, before, after)
			}
		}
		last := route.items - 1
		resp, out := post(route.path+"?start_index="+fmt.Sprint(last), route.body)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var item struct {
			Index int
			Error *apierr.ErrorBody
		}
		if resp.StatusCode != 200 || len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &item) != nil ||
			item.Index != last || item.Error != nil {
			t.Errorf("%s start_index=%d: got %d %q, want 200 and the single item at index %d", route.path, last, resp.StatusCode, out, last)
		}
	}
}

// TestStreamRefusedBeforeFirstLine: a streaming route that refuses its
// request before emitting a line answers with the HTTP error envelope, as
// the batch routes do, while a Partial candidate failure stays a 200 line.
func TestStreamRefusedBeforeFirstLine(t *testing.T) {
	_, c := newTestServer(t, Options{})
	hot := `{"topology": "crossbar", "tiles": 8, "target_ber": 0.9}`
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/sweep/stream", `{"target_bers": []}`, 400},
		{"/v1/sweep/stream", `{"target_bers": [0.9]}`, 400},
		{"/v1/noc/sweep", `{"topology": "crossbar", "tiles": 8, "target_bers": []}`, 400},
		{"/v1/noc/sweep", `{"topology": "crossbar", "tiles": 8, "target_bers": [0.7]}`, 400},
		{"/v1/noc/sweep", `{"topology": "mesh", "tiles": 8, "columns": 3, "target_bers": [1e-9]}`, 400},
		{"/v1/noc/batch", hot, 400},
		{"/v1/noc/batch?continue_on_error=1", hot, 200},
	} {
		resp, err := http.Post(c.Base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d (body %q)", tc.path, tc.body, resp.StatusCode, tc.status, out)
			continue
		}
		if tc.status == 200 {
			var item NoCStreamItem
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &item) != nil || !item.Partial || item.Error == nil {
				t.Errorf("%s: body %q, want one partial error line", tc.path, out)
			}
			continue
		}
		var env apierr.Envelope
		if err := json.Unmarshal(out, &env); err != nil || env.Error.Status != tc.status {
			t.Errorf("%s %s: body %q is not a %d error envelope", tc.path, tc.body, out, tc.status)
		}
	}
}

// brokenPipe is a response writer whose client leaves after the first
// line: every later write fails, while the request context stays live.
// onFail, if set, runs at the first failed write.
type brokenPipe struct {
	header http.Header
	lines  int
	onFail func()
}

func (w *brokenPipe) Header() http.Header { return w.header }
func (w *brokenPipe) WriteHeader(int)     {}

func (w *brokenPipe) Write(p []byte) (int, error) {
	if w.lines > 0 {
		if w.onFail != nil {
			w.onFail()
			w.onFail = nil
		}
		return 0, errors.New("broken pipe")
	}
	w.lines++
	return len(p), nil
}

// TestStreamClientGoneMidStream: a client that leaves after the first line
// of a stream frees its request on every streaming route. Over the wire the
// in-flight gauge returns to zero, with no handler panic. In process, where
// the second line's write fails before the request context ends, the
// stream stops on the failed write itself. On every route the engine does
// no lookup after the handler returns. The sweep streams look up exactly
// the written line and the failed one, and nothing after the failed write.
// The batch's workers run ahead of the stream on their own chunks, so its
// bound counts from the failed write: each worker finishes at most the
// candidate in hand. A tune campaign stops instead of running out its
// remaining generations.
func TestStreamClientGoneMidStream(t *testing.T) {
	s, err := NewServer(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var serveLog syncBuffer
	hs := httptest.NewUnstartedServer(s.Handler())
	hs.Config.ErrorLog = log.New(&serveLog, "", 0)
	hs.Start()
	t.Cleanup(hs.Close)
	// lookups counts the engine's memo lookups: the work requests did.
	lookups := func() uint64 { cs := s.Engine().CacheStats(); return cs.Hits + cs.Misses }

	bers, batch := make([]string, 120), ""
	for i := range bers {
		bers[i] = fmt.Sprintf("%.6g", 1e-12*math.Pow(1e4, float64(i)/float64(len(bers))))
		batch += `{"topology": "mesh", "tiles": 16, "target_ber": ` + bers[i] + "}\n"
	}
	grid := strings.Join(bers, ",")
	// Every tile count from 8 to 64 keeps the swarm finding new designs for
	// hundreds of generations, so a campaign that ran on after its client
	// left would do most of a full campaign's lookups.
	tiles := make([]string, 0, 57)
	for n := 8; n <= 64; n++ {
		tiles = append(tiles, fmt.Sprint(n))
	}
	campaign := `{"target_ber": 1e-11, "seed": 3, "generations": 400, "tiles": [` + strings.Join(tiles, ",") + `]}`
	// A line of the sweep stream is one memo lookup; a line of the network
	// routes is one per (link, scheme) cell of the mesh, as one evaluation
	// of it makes.
	before := lookups()
	s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/noc/eval",
		strings.NewReader(`{"topology": "mesh", "tiles": 16, "target_ber": 1e-11}`)))
	meshCells := lookups() - before

	var left uint64
	for _, route := range []struct {
		path, body string
		perLine    uint64 // lookups per line; 0 leaves tune to the full-campaign check below
		pool       int    // candidates the workers may finish after the failed write
	}{
		{"/v1/sweep/stream", `{"target_bers": [` + grid + `]}`, 1, 0},
		{"/v1/noc/sweep", `{"topology": "mesh", "tiles": 16, "target_bers": [` + grid + `]}`, meshCells, 0},
		{"/v1/noc/batch", batch, meshCells, s.Engine().Workers()},
		{"/v1/noc/tune", campaign, 0, 0},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+route.path, strings.NewReader(route.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		cancel()
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: first line %q, status %d, error %v", route.path, line, resp.StatusCode, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.met.inFlight.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d requests still in flight 5 s after the client left", route.path, s.met.inFlight.Load())
			}
			time.Sleep(time.Millisecond)
		}

		before := lookups()
		var atFail uint64
		w := &brokenPipe{header: http.Header{}, onFail: func() { atFail = lookups() }}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, route.path, strings.NewReader(route.body)))
		if w.lines != 1 || w.header.Get("Content-Type") != "application/x-ndjson" {
			t.Errorf("%s: %d lines written as %q, want the one NDJSON line", route.path, w.lines, w.header.Get("Content-Type"))
		}
		left = lookups() - before
		time.Sleep(20 * time.Millisecond)
		if moved := lookups() - before - left; moved != 0 {
			t.Errorf("%s: %d engine lookups after the handler returned", route.path, moved)
		}
		if route.perLine == 0 {
			continue
		}
		if limit := uint64(w.lines+1) * route.perLine; route.pool == 0 && atFail-before > limit {
			t.Errorf("%s: %d engine lookups for %d line(s) written, want at most %d", route.path, atFail-before, w.lines, limit)
		}
		if after, limit := before+left-atFail, uint64(route.pool)*route.perLine; after > limit {
			t.Errorf("%s: %d engine lookups after the failed write, want at most %d", route.path, after, limit)
		}
	}
	if bytes.Contains(serveLog.Bytes(), []byte("panic")) {
		t.Errorf("a handler panicked:\n%s", serveLog.Bytes())
	}

	before = lookups()
	full := httptest.NewRecorder()
	s.Handler().ServeHTTP(full, httptest.NewRequest(http.MethodPost, "/v1/noc/tune", strings.NewReader(campaign)))
	if !strings.Contains(full.Body.String(), `"summary"`) {
		t.Fatalf("full campaign: status %d, no summary line", full.Code)
	}
	if all := lookups() - before; 2*left > all {
		t.Errorf("a campaign whose client left after its first line made %d engine lookups, a full one %d", left, all)
	}
}

func TestDeadlineExpiryMapsTo504(t *testing.T) {
	_, c := newTestServer(t, Options{})
	// A Monte-Carlo run big enough to outlive a 1 ms budget by orders of
	// magnitude; the engine aborts at a round barrier and returns the
	// context error, which must surface as the 504 envelope.
	body := `{"scheme": "H(7,4)", "raw_ber": 1e-3, "frames": 1073741824}`
	resp, err := http.Post(c.Base+"/v1/validate?timeout_ms=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env apierr.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 504 || env.Error.Code != apierr.CodeDeadline {
		t.Errorf("got %d/%q, want 504/deadline_exceeded", resp.StatusCode, env.Error.Code)
	}
	// And the typed client surfaces it as the context sentinel (fail-fast
	// policy: a 504 is retryable and would otherwise re-run the oversized
	// Monte-Carlo budget several times).
	c.Retry = resilience.NewRetrier(resilience.NoRetry())
	_, err = c.Validate(context.Background(), ValidateRequest{Scheme: "H(7,4)", RawBER: 1e-3, Frames: 1 << 30})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Logf("note: full-budget validate finished: %v", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, c := newTestServer(t, Options{MaxInFlight: 2})
	// Fill the admission semaphore so the next request must be refused.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()

	resp, err := http.Post(c.Base+"/v1/sweep", "application/json",
		strings.NewReader(`{"target_bers": [1e-9]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q", ra)
	}
	var env apierr.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != apierr.CodeOverloaded {
		t.Errorf("code = %q", env.Error.Code)
	}
	// The typed client round-trips the sentinel. Fail-fast policy: the
	// saturation is held for the whole test, so retrying (the default)
	// would only stretch the test by the Retry-After floor per attempt.
	c.Retry = resilience.NewRetrier(resilience.NoRetry())
	_, err = c.Sweep(context.Background(), SweepRequest{TargetBERs: []float64{1e-9}})
	if !errors.Is(err, apierr.ErrOverloaded) {
		t.Errorf("client error = %v, want ErrOverloaded", err)
	}
	// Observability routes stay reachable while the service is saturated.
	if err := c.Healthz(context.Background()); err != nil {
		t.Errorf("healthz under saturation: %v", err)
	}
}

func TestHotReloadSwapsEngine(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	before, err := c.Config(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cfg := s.Engine().Config()
	cfg.FmodHz *= 2
	if err := s.Reload(cfg); err != nil {
		t.Fatal(err)
	}
	after, err := c.Config(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Fingerprint == before.Fingerprint {
		t.Error("fingerprint unchanged after reload with a different config")
	}
	if after.Config.FmodHz != cfg.FmodHz {
		t.Errorf("reloaded FmodHz = %g, want %g", after.Config.FmodHz, cfg.FmodHz)
	}
	st, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reloads != 1 {
		t.Errorf("reloads = %d, want 1", st.Reloads)
	}
	// Reload with the zero config restores the original generation.
	if err := s.Reload(core.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	restored, err := c.Config(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Fingerprint != before.Fingerprint {
		t.Error("zero-config reload did not restore the original fingerprint")
	}
	// A bad config must not tear down the serving generation.
	bad := s.Engine().Config()
	bad.FmodHz = -1
	if err := s.Reload(bad); !errors.Is(err, apierr.ErrInvalidConfig) {
		t.Errorf("bad reload: %v", err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Errorf("service down after rejected reload: %v", err)
	}
}

func TestDrainingHealthz(t *testing.T) {
	s, c := newTestServer(t, Options{})
	s.SetDraining(true)
	resp, err := http.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	// Requests still complete while draining.
	if _, err := c.Sweep(context.Background(), SweepRequest{TargetBERs: []float64{1e-9}}); err != nil {
		t.Errorf("sweep while draining: %v", err)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, c := newTestServer(t, Options{})
	if _, err := c.Sweep(context.Background(), SweepRequest{TargetBERs: []float64{1e-9}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`onocd_requests_total{route="/v1/sweep",code="200"} 1`,
		`onocd_request_duration_seconds_count{route="/v1/sweep"} 1`,
		`onocd_request_duration_seconds_bucket{route="/v1/sweep",le="+Inf"} 1`,
		"onocd_cache_misses_total",
		"onocd_in_flight_requests 0",
		"onocd_admission_rejected_total 0",
		"onocd_engine_reloads_total 0",
		// One sweep over the paper's three schemes compiles each FER plan
		// once and builds no network.
		`onocd_engine_registry_hits_total{registry="fer_plans"} 0`,
		`onocd_engine_registry_misses_total{registry="fer_plans"} 3`,
		`onocd_engine_registry_misses_total{registry="networks"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestServiceStampedeCoalesces(t *testing.T) {
	// The ISSUE's acceptance proof at the service layer: concurrent
	// identical cold requests through the full HTTP stack still cost
	// exactly one compiled solve per grid point.
	s, c := newTestServer(t, Options{MaxInFlight: 64})
	const clients = 16
	ctx := context.Background()
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, err := c.Sweep(ctx, SweepRequest{Schemes: []string{"H(7,4)"}, TargetBERs: []float64{1e-10}})
			errs <- err
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if cs := s.Engine().CacheStats(); cs.ColdSolves != 1 {
		t.Errorf("cold solves = %d, want exactly 1 across %d concurrent HTTP requests", cs.ColdSolves, clients)
	}
}

func TestRunLoadWarmHitRate(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	// Warm the single-point working set, then drive the closed loop.
	if _, err := c.Sweep(ctx, SweepRequest{TargetBERs: []float64{1e-11}}); err != nil {
		t.Fatal(err)
	}
	before := s.Engine().CacheStats()
	stats, err := RunLoad(ctx, c, LoadOptions{Clients: 4, Requests: 60})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 60 || stats.Completed != 60 || stats.Non2xx != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.QPS <= 0 || stats.P50 <= 0 || stats.P99 < stats.P50 {
		t.Errorf("implausible latency stats: %+v", stats)
	}
	after := s.Engine().CacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if rate := float64(hits) / float64(hits+misses); rate < 0.99 {
		t.Errorf("warm phase hit rate %.3f, want ~1 (hits %d, misses %d)", rate, hits, misses)
	}
	var tbl strings.Builder
	stats.WriteTable(&tbl, "warm")
	if !strings.Contains(tbl.String(), "qps") {
		t.Errorf("table: %q", tbl.String())
	}
}

// TestRunLoadZeroCompleted pins the 100%-failure contract behind
// cmd/onocload: when every measured request is rejected the latency sample
// is empty, so the stats must report Completed 0 with zeroed QPS and
// percentiles (never NaN — json.Marshal would refuse it), and WriteTable
// must print an explicit "0 completed" line instead of fabricated
// percentile columns.
func TestRunLoadZeroCompleted(t *testing.T) {
	_, c := newTestServer(t, Options{})
	stats, err := RunLoad(context.Background(), c, LoadOptions{
		Clients:  2,
		Requests: 8,
		// A zero BER is a deterministic 400 — final, never retried — so
		// every request fails without a single completion.
		MakeRequest: func(int) SweepRequest {
			return SweepRequest{TargetBERs: []float64{0}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 8 || stats.Completed != 0 || stats.Non2xx != 8 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.QPS != 0 || stats.P50 != 0 || stats.P99 != 0 || stats.Max != 0 {
		t.Errorf("figures fabricated from an empty sample: %+v", stats)
	}
	if stats.FirstError == "" {
		t.Error("no failure sampled into FirstError")
	}
	var tbl strings.Builder
	stats.WriteTable(&tbl, "warm")
	if !strings.Contains(tbl.String(), "0 completed") || strings.Contains(tbl.String(), "qps") {
		t.Errorf("table: %q", tbl.String())
	}
	if _, err := json.Marshal(stats); err != nil {
		t.Errorf("stats do not survive JSON encoding: %v", err)
	}
}

func TestWFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25e-9, math.Inf(1), math.Inf(-1)} {
		raw, err := json.Marshal(WFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		var back WFloat
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if float64(back) != v {
			t.Errorf("%g → %s → %g", v, raw, float64(back))
		}
	}
	// Finite values must reproduce encoding/json's float notation byte for
	// byte — promoting a float64 wire field to WFloat is invisible until
	// the value goes non-finite.
	for _, v := range []float64{0, 1.5, -2.25e-9, 1e-11, 108169014084.50705, 1e21, 5.4084507042253525e+22} {
		wraw, err := json.Marshal(WFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		fraw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(wraw) != string(fraw) {
			t.Errorf("WFloat(%g) marshals as %s, float64 as %s", v, wraw, fraw)
		}
	}
	raw, _ := json.Marshal(WFloat(math.NaN()))
	if string(raw) != `"NaN"` {
		t.Errorf("NaN marshals as %s", raw)
	}
	var back WFloat
	if err := json.Unmarshal([]byte(`"NaN"`), &back); err != nil || !math.IsNaN(float64(back)) {
		t.Errorf("NaN unmarshal: %v %v", back, err)
	}
	if err := json.Unmarshal([]byte(`"pizza"`), &back); err == nil {
		t.Error("garbage WFloat accepted")
	}
	// A saturated NoC result (Inf queue wait) must cross the wire.
	res := NoCResult{MeanLatencySec: WFloat(math.Inf(1))}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("saturated result does not marshal: %v", err)
	}
}

func mustScheme(t *testing.T, name string) ecc.Code {
	t.Helper()
	c, ok := ecc.SchemeByName(name)
	if !ok {
		t.Fatalf("unknown scheme %q", name)
	}
	return c
}
