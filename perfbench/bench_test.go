package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"photonoc"
)

// smokeOps keeps each workload's smoke run to a fraction of a second.
var smokeOps = map[string]int{"serve-warm": 40, "tune-cold": 4, "referee": 4}

func smoke(t *testing.T, name string, trace, corrupt bool) (report, string) {
	t.Helper()
	var out bytes.Buffer
	rep, err := run(context.Background(), config{
		workload: name, seed: 3, seconds: 1, trace: trace,
		ops: smokeOps[name], setups: 2, spansDir: t.TempDir(), corrupt: corrupt,
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return rep, out.String()
}

// requireMetrics asserts the report carries exactly defs, each with its
// unit.
func requireMetrics(t *testing.T, rep report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: all checks
// pass and every named metric is emitted with its unit. End-to-end metrics
// must never read 0.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, out := smoke(t, w.name, false, false)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < smokeOps[w.name] {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d\n%s", rep.Correct, rep.Failed, rep.Attempted, out)
			}
			requireMetrics(t, rep, endToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			rep, out = smoke(t, w.name, true, false)
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d\n%s", rep.Correct, rep.Failed, out)
			}
			requireMetrics(t, rep, perLayer)
		})
	}
}

// TestCorruptedExpectationFails perturbs one expected value: the op checked
// against it must count as failed and the run as incorrect.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, out := smoke(t, w.name, false, true)
			if rep.Correct || rep.Failed == 0 {
				t.Fatalf("corrupted run passed: correct=%v failed=%d\n%s", rep.Correct, rep.Failed, out)
			}
		})
	}
}

// TestSameSeedRepeats runs every workload's traced run twice with one
// seed: every count labelled exact and the tune-cold front digest repeat
// exactly. Two untraced referee runs repeat the accuracy figures.
func TestSameSeedRepeats(t *testing.T) {
	exact := regexp.MustCompile(`(?m)^# count \S+ exact: .*$`)
	digest := regexp.MustCompile(`front digest over \d+ campaigns: [0-9a-f]+`)
	for _, w := range workloads {
		_, outA := smoke(t, w.name, true, false)
		_, outB := smoke(t, w.name, true, false)
		ca, cb := exact.FindAllString(outA, -1), exact.FindAllString(outB, -1)
		if len(ca) != len(w.exact) || !slices.Equal(ca, cb) {
			t.Errorf("%s: exact counts differ between runs:\n%q\n%q", w.name, ca, cb)
		}
		if da, db := digest.FindString(outA), digest.FindString(outB); da != db || (w.name == "tune-cold" && da == "") {
			t.Errorf("%s: front digests differ: %q vs %q", w.name, da, db)
		}
	}

	a, _ := smoke(t, "referee", false, false)
	b, _ := smoke(t, "referee", false, false)
	for _, name := range []string{"paper_err_pct", "model_gap_pct"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s differs between runs: %v vs %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
}

// TestUtilizationBand pins the referee's utilization band on a deviation a
// correct 20k-message DES run of the bus-12 fixture produced (5.1σ): it
// passes, and a gross one fails.
func TestUtilizationBand(t *testing.T) {
	ana := photonoc.NoCResult{MeanLatencySec: 1, Loads: []photonoc.NoCLinkLoad{{Utilization: 0.5}}}
	sim := photonoc.NoCSimResults{Injected: 20000, Messages: 20000, MeanLatencySec: 1,
		PerLink: []photonoc.NoCLinkSimStats{{Messages: 1877, Utilization: 0.5648}}}
	if err := agree(&ana, &sim); err != nil {
		t.Fatalf("correct run refused: %v", err)
	}
	sim.PerLink[0] = photonoc.NoCLinkSimStats{Messages: 2300, Utilization: 0.69}
	if err := agree(&ana, &sim); err == nil {
		t.Error("a 0.19 utilization gap passed")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names, units and
// workloads in step with BENCHMARK.json at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the catalog %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: %s [%s] in BENCHMARK.json, %s [%s] here", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
