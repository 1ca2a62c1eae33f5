package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units; TestCatalogMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees. Untraced runs
// (--trace 0) report exactly these, on every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"paper_err_pct", "%"},
	{"model_gap_pct", "%"},
}

// perLayer are the metrics of single layers, taken from the traced run
// (--trace 1). Every workload reports every one; a layer a workload never
// calls in its timed phase reads 0.
var perLayer = []metricDef{
	{"onocd.handler_ms", "ms"},
	{"onocd.wire_ms", "ms"},
	{"onocd.resp_bytes", "bytes"},
	{"onocd.alloc_kib", "KiB"},
	{"onocd.gc_per_kop", "count"},
	{"engine.new_ms", "ms"},
	{"engine.hit_ratio", "ratio"},
	{"engine.cold_solves", "count"},
	{"engine.cold_solve_ms", "ms"},
	{"engine.shared_solves", "count"},
	{"engine.session_reuse_cells", "count"},
	{"tune.run_ms", "ms"},
	{"tune.gen0_ms", "ms"},
	{"tune.gen_ms", "ms"},
	{"tune.infeasible_ratio", "ratio"},
	{"tune.alloc_kib", "KiB"},
	{"noc.network_ms", "ms"},
	{"netsim.simulate_ms", "ms"},
	{"netsim.msgs_per_s", "1/s"},
	{"netsim.alloc_kib", "KiB"},
	{"mc.validate_ms", "ms"},
	{"mc.frames_per_s", "1/s"},
	{"trace.ops_per_s_delta", "1/s"},
	{"trace.span_coverage", "ratio"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metric map for defs from values; a name missing from
// values reads 0.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
