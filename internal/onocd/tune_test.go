package onocd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"photonoc/internal/apierr"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
	"photonoc/internal/tune"
)

// tuneTestRequest is a small deterministic campaign the tests share.
func tuneTestRequest() NoCTuneRequest {
	return NoCTuneRequest{
		TargetBER:   1e-11,
		Seed:        7,
		Particles:   4,
		Generations: 3,
	}
}

// TestTuneMatchesLocal runs the same seeded campaign remotely through
// POST /v1/noc/tune and locally through tune.Run against the daemon's own
// engine, and requires the results — final front, accounting, and every
// per-generation front — to round-trip the wire bit for bit.
func TestTuneMatchesLocal(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	req := tuneTestRequest()

	// The wire's empty objective means min-energy (the HTTP default);
	// tune.Options' zero value is min-power, so set it explicitly.
	opts := tune.Options{
		TargetBER:   req.TargetBER,
		Seed:        req.Seed,
		Particles:   req.Particles,
		Generations: req.Generations,
		Objective:   manager.MinEnergy,
	}
	var localFronts [][]tune.Point
	opts.OnGeneration = func(gen int, front []tune.Point) error {
		localFronts = append(localFronts, front)
		return nil
	}
	want, err := tune.Run(ctx, s.Engine(), opts)
	if err != nil {
		t.Fatal(err)
	}

	var remoteFronts [][]tune.Point
	got, err := c.Tune(ctx, req, func(gen int, front []tune.Point) error {
		if gen != len(remoteFronts) {
			t.Errorf("generation callback %d out of order (have %d)", gen, len(remoteFronts))
		}
		remoteFronts = append(remoteFronts, front)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote result differs from local:\n%+v\nvs\n%+v", got, want)
	}
	if !reflect.DeepEqual(remoteFronts, localFronts) {
		t.Errorf("per-generation fronts differ:\n%+v\nvs\n%+v", remoteFronts, localFronts)
	}
	if len(got.Front) == 0 {
		t.Fatal("empty final front")
	}
}

// TestTuneStreamShape reads the raw NDJSON: one front item per generation
// (Index 0..G−1), then the summary at Index G; with ?start_index=N the
// prefix is skipped and the replayed suffix is identical.
func TestTuneStreamShape(t *testing.T) {
	_, c := newTestServer(t, Options{})
	req := tuneTestRequest()
	body, _ := json.Marshal(req)

	fetch := func(path string) []NoCTuneItem {
		t.Helper()
		resp, err := http.Post(c.Base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("Content-Type = %q", ct)
		}
		var items []NoCTuneItem
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var it NoCTuneItem
			if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
				t.Fatalf("decode line: %v", err)
			}
			items = append(items, it)
		}
		return items
	}

	full := fetch("/v1/noc/tune")
	if len(full) != req.Generations+1 {
		t.Fatalf("%d items, want %d", len(full), req.Generations+1)
	}
	for i, it := range full[:req.Generations] {
		if it.Index != i || it.Summary != nil || it.Error != nil || len(it.Front) == 0 {
			t.Fatalf("item %d malformed: %+v", i, it)
		}
	}
	last := full[req.Generations]
	if last.Index != req.Generations || last.Summary == nil {
		t.Fatalf("terminal item malformed: %+v", last)
	}
	if last.Summary.Evaluated != req.Particles*req.Generations {
		t.Errorf("summary evaluated %d, want %d", last.Summary.Evaluated, req.Particles*req.Generations)
	}

	resumed := fetch("/v1/noc/tune?start_index=2")
	if !reflect.DeepEqual(resumed, full[2:]) {
		t.Errorf("resumed suffix differs:\n%+v\nvs\n%+v", resumed, full[2:])
	}
}

// TestTuneBadRequest pins option validation to typed pre-stream errors.
func TestTuneBadRequest(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	for name, req := range map[string]NoCTuneRequest{
		"missing ber":  {},
		"bad pattern":  {TargetBER: 1e-11, Pattern: "bursty"},
		"bad kind":     {TargetBER: 1e-11, Kinds: []string{"torus"}},
		"bad scheme":   {TargetBER: 1e-11, Rosters: [][]string{{"nope"}}},
		"empty roster": {TargetBER: 1e-11, Rosters: [][]string{{}}},
	} {
		if _, err := c.Tune(ctx, req, nil); !errors.Is(err, apierr.ErrInvalidInput) {
			t.Errorf("%s: error = %v, want ErrInvalidInput", name, err)
		}
	}
	// A zero cursor is never out of range: tune's own option check names
	// the bad generation count.
	_, err := c.Tune(ctx, NoCTuneRequest{TargetBER: 1e-11, Generations: -1}, nil)
	if !errors.Is(err, apierr.ErrInvalidInput) || !strings.Contains(err.Error(), "generations -1") {
		t.Errorf("negative generations: error = %v, want ErrInvalidInput naming generations -1", err)
	}
	// Nor does a resume cursor hide it: a stream with no items bounds no
	// cursor.
	resp, err := http.Post(c.Base+"/v1/noc/tune?start_index=1", "application/json",
		strings.NewReader(`{"target_ber": 1e-11, "generations": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env apierr.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusBadRequest ||
		env.Error.Code != apierr.CodeInvalidInput || !strings.Contains(env.Error.Message, "generations -1") {
		t.Errorf("negative generations at start_index=1: got %d %+v (%v), want 400 naming generations -1", resp.StatusCode, env, err)
	}
}

// TestNetworkEvalZeroTrafficCrossWire is the HTTP layer of the all-silent
// traffic contract: the typed ErrZeroTraffic survives the wire envelope,
// so errors.Is works identically against a remote daemon.
func TestNetworkEvalZeroTrafficCrossWire(t *testing.T) {
	_, c := newTestServer(t, Options{})
	silent := make([][]float64, 4)
	for i := range silent {
		silent[i] = make([]float64, 4)
	}
	_, err := c.NetworkEval(context.Background(), NoCRequest{
		Topology:       "bus",
		Tiles:          4,
		TargetBER:      1e-11,
		Traffic:        silent,
		RateBitsPerSec: 1e9,
	})
	if !errors.Is(err, apierr.ErrZeroTraffic) {
		t.Fatalf("error = %v, want ErrZeroTraffic", err)
	}
	if !errors.Is(err, apierr.ErrInvalidInput) {
		t.Fatalf("error = %v, want ErrInvalidInput too", err)
	}
}

// TestNoCResultInfRoundTrip pins the WFloat wire contract for the rate
// figures: ±Inf saturation, injection and delivered rates — and a
// saturated link's +Inf queue wait — survive JSON in both directions.
func TestNoCResultInfRoundTrip(t *testing.T) {
	res := noc.Result{
		Kind:                          noc.Bus,
		Tiles:                         4,
		Links:                         1,
		TargetBER:                     1e-11,
		Feasible:                      true,
		SaturationInjectionBitsPerSec: math.Inf(1),
		InjectionRateBitsPerSec:       math.Inf(1),
		DeliveredBitsPerSec:           math.Inf(-1),
		Saturated:                     true,
		Loads: []noc.LinkLoad{{
			Link:               0,
			CapacityBitsPerSec: 1e9,
			OfferedBitsPerSec:  2e9,
			Utilization:        2,
			QueueWaitSec:       math.Inf(1),
		}},
		MeanLatencySec: math.Inf(1),
		P50LatencySec:  math.Inf(1),
		P95LatencySec:  math.Inf(1),
		P99LatencySec:  math.Inf(1),
		MaxLatencySec:  math.Inf(1),
	}
	raw, err := json.Marshal(toWireNoC(res))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("null")) {
		t.Fatalf("wire JSON lost a non-finite value to null: %s", raw)
	}
	var back NoCResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Core()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip mutated the result:\n%+v\nvs\n%+v", got, res)
	}
}
