package onocd

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"photonoc/internal/faultinject"
)

// This file is a strict parser for the Prometheus text exposition format,
// used only by tests: the daemon writes /metrics by hand (the module stays
// dependency-free), so the format discipline a real Prometheus server would
// enforce at scrape time is enforced here instead — every family declared
// with HELP and TYPE before its samples, labels escaped exactly, histogram
// buckets cumulative with le="+Inf" equal to the count.

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// promFamily is one metric family: its declared metadata plus samples.
type promFamily struct {
	name    string
	help    string
	typ     string
	samples []promSample
}

// parsePromText parses the text exposition format strictly, failing on
// anything a Prometheus scraper would reject: samples before metadata,
// duplicate or misordered HELP/TYPE, unknown types, malformed labels, and
// unparsable values.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	// base maps a sample name to its family name (histogram samples use
	// name_bucket / name_sum / name_count under the family's TYPE).
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.typ == "histogram" {
					return trimmed
				}
			}
		}
		return name
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", lineNo, line)
			}
			if f, dup := fams[name]; dup && f.help != "" {
				t.Fatalf("line %d: duplicate HELP for %s", lineNo, name)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{name: name}
				fams[name] = f
			}
			if len(f.samples) > 0 {
				t.Fatalf("line %d: HELP for %s after its samples", lineNo, name)
			}
			f.help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q for %s", lineNo, typ, name)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{name: name}
				fams[name] = f
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			if len(f.samples) > 0 {
				t.Fatalf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: comment that is neither HELP nor TYPE: %q", lineNo, line)
		}
		s := parsePromSample(t, line, lineNo)
		famName := base(s.name)
		f := fams[famName]
		if f == nil || f.typ == "" || f.help == "" {
			t.Fatalf("line %d: sample %s before its family's HELP and TYPE", lineNo, s.name)
		}
		f.samples = append(f.samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// parsePromSample parses one `name{label="v",...} value` line, unescaping
// label values per the exposition format (\\, \", \n only).
func parsePromSample(t *testing.T, line string, lineNo int) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}, line: lineNo}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		t.Fatalf("line %d: malformed sample: %q", lineNo, line)
	}
	s.name = line[:i]
	if !validPromName(s.name) {
		t.Fatalf("line %d: invalid metric name %q", lineNo, s.name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, "=")
			if eq <= 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed label in %q", lineNo, line)
			}
			lname := rest[:eq]
			if !validPromName(lname) {
				t.Fatalf("line %d: invalid label name %q", lineNo, lname)
			}
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' {
					if j+1 >= len(rest) {
						t.Fatalf("line %d: dangling escape in %q", lineNo, line)
					}
					j++
					switch rest[j] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: invalid escape \\%c in %q", lineNo, rest[j], line)
					}
					continue
				}
				if c == '"' {
					closed = true
					rest = rest[j+1:]
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				t.Fatalf("line %d: unterminated label value in %q", lineNo, line)
			}
			if _, dup := s.labels[lname]; dup {
				t.Fatalf("line %d: duplicate label %s in %q", lineNo, lname, line)
			}
			s.labels[lname] = val.String()
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			t.Fatalf("line %d: expected , or } after label in %q", lineNo, line)
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	if rest == "" || strings.ContainsAny(rest, " \t") {
		t.Fatalf("line %d: expected exactly one value after labels in %q", lineNo, line)
	}
	v, err := parsePromValue(rest)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", lineNo, rest, err)
	}
	s.value = v
	return s
}

func parsePromValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

func validPromName(n string) bool {
	if n == "" {
		return false
	}
	for i, c := range n {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelKey canonicalizes a label set minus the given key, for grouping
// histogram series.
func labelKey(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == drop {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// validateHistogram checks one histogram family: every series has cumulative
// (non-decreasing) buckets ending in le="+Inf", and that final bucket equals
// the series' _count.
func validateHistogram(t *testing.T, fams map[string]*promFamily, f *promFamily) {
	t.Helper()
	type series struct {
		bounds []float64
		counts []float64
	}
	buckets := map[string]*series{}
	counts := map[string]float64{}
	sums := map[string]bool{}
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s line %d: bucket without le label", f.name, s.line)
			}
			bound, err := parsePromValue(le)
			if err != nil {
				t.Fatalf("%s line %d: bad le %q", f.name, s.line, le)
			}
			k := labelKey(s.labels, "le")
			sr := buckets[k]
			if sr == nil {
				sr = &series{}
				buckets[k] = sr
			}
			sr.bounds = append(sr.bounds, bound)
			sr.counts = append(sr.counts, s.value)
		case f.name + "_count":
			counts[labelKey(s.labels, "")] = s.value
		case f.name + "_sum":
			sums[labelKey(s.labels, "")] = true
		default:
			t.Fatalf("%s line %d: unexpected sample %s in histogram family", f.name, s.line, s.name)
		}
	}
	if len(buckets) == 0 {
		t.Fatalf("histogram %s has no buckets", f.name)
	}
	for k, sr := range buckets {
		for i := 1; i < len(sr.bounds); i++ {
			if sr.bounds[i] <= sr.bounds[i-1] {
				t.Errorf("%s{%s}: bucket bounds not increasing: %g after %g", f.name, k, sr.bounds[i], sr.bounds[i-1])
			}
			if sr.counts[i] < sr.counts[i-1] {
				t.Errorf("%s{%s}: bucket counts not cumulative: le=%g has %g < %g", f.name, k, sr.bounds[i], sr.counts[i], sr.counts[i-1])
			}
		}
		last := len(sr.bounds) - 1
		if !math.IsInf(sr.bounds[last], 1) {
			t.Errorf("%s{%s}: final bucket is le=%g, want +Inf", f.name, k, sr.bounds[last])
		}
		cnt, ok := counts[k]
		if !ok {
			t.Errorf("%s{%s}: missing _count series", f.name, k)
		} else if sr.counts[last] != cnt {
			t.Errorf("%s{%s}: le=+Inf bucket %g != _count %g", f.name, k, sr.counts[last], cnt)
		}
		if !sums[k] {
			t.Errorf("%s{%s}: missing _sum series", f.name, k)
		}
	}
}

// TestMetricsStrictFormat drives real traffic through the daemon, then
// parses /metrics with the strict parser above: every family must carry
// HELP and TYPE, every expected series must be present, and both histograms
// must be cumulative with le="+Inf" matching their _count.
func TestMetricsStrictFormat(t *testing.T) {
	inj := faultinject.NewSpread(7, 0) // wired but silent: fault counters emit at zero
	_, c := newTestServer(t, Options{FaultInjector: inj})
	ctx := context.Background()
	if _, err := c.Sweep(ctx, SweepRequest{TargetBERs: []float64{1e-9, 1e-10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NetworkEval(ctx, NoCRequest{Topology: "crossbar", Tiles: 8, TargetBER: 1e-9}); err != nil {
		t.Fatal(err)
	}
	// Repeat for cache hits, so the hit counter moves.
	if _, err := c.Sweep(ctx, SweepRequest{TargetBERs: []float64{1e-9, 1e-10}}); err != nil {
		t.Fatal(err)
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
	fams := parsePromText(t, string(body))

	expected := []string{
		"onocd_admission_rejected_total",
		"onocd_in_flight_requests",
		"onocd_requests_total",
		"onocd_request_duration_seconds",
		"onocd_engine_reloads_total",
		"onocd_cache_hits_total",
		"onocd_cache_misses_total",
		"onocd_cache_cold_solves_total",
		"onocd_cache_shared_solves_total",
		"onocd_cache_entries",
		"onocd_cache_capacity",
		"onocd_cache_cold_solve_seconds_total",
		"onocd_engine_registry_entries",
		"onocd_engine_registry_hits_total",
		"onocd_engine_registry_misses_total",
		"onocd_cold_solve_duration_seconds",
		"onocd_goroutines",
		"onocd_heap_alloc_bytes",
		"onocd_heap_sys_bytes",
		"onocd_next_gc_bytes",
		"onocd_gc_cycles_total",
		"onocd_gc_pause_seconds_total",
		"onocd_build_info",
		"onocd_fault_requests_total",
		"onocd_fault_injected_total",
	}
	for _, name := range expected {
		f := fams[name]
		if f == nil {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if f.help == "" || f.typ == "" {
			t.Errorf("family %s missing HELP or TYPE", name)
		}
		if len(f.samples) == 0 {
			t.Errorf("family %s declared but has no samples", name)
		}
	}

	for name, f := range fams {
		if f.typ == "histogram" {
			validateHistogram(t, fams, f)
		}
		if f.typ == "counter" {
			for _, s := range f.samples {
				if s.value < 0 {
					t.Errorf("counter %s line %d is negative: %g", name, s.line, s.value)
				}
			}
		}
	}

	if fams["onocd_cache_hits_total"].samples[0].value == 0 {
		t.Error("no cache hits recorded; the repeat sweep should have hit the memo cache")
	}
	if fams["onocd_cold_solve_duration_seconds"].samples[len(fams["onocd_cold_solve_duration_seconds"].samples)-1].value == 0 {
		t.Error("cold-solve histogram empty; the first sweep should have solved cold")
	}
	// The sweeps compiled the roster's FER plans and the crossbar request
	// built one network, so those registries must report entries; the
	// repeat sweep found its plans published.
	registry := func(family string) map[string]float64 {
		m := map[string]float64{}
		for _, s := range fams[family].samples {
			m[s.labels["registry"]] = s.value
		}
		return m
	}
	registries := registry("onocd_engine_registry_entries")
	if _, ok := registries["link_plans"]; !ok || registries["fer_plans"] < 1 || registries["networks"] != 1 {
		t.Errorf("onocd_engine_registry_entries = %v, want a link_plans series, fer_plans ≥ 1 and networks = 1", registries)
	}
	hits, misses := registry("onocd_engine_registry_hits_total"), registry("onocd_engine_registry_misses_total")
	if _, ok := hits["link_plans"]; !ok || hits["fer_plans"] < 1 {
		t.Errorf("onocd_engine_registry_hits_total = %v, want a link_plans series and fer_plans ≥ 1", hits)
	}
	if _, ok := misses["link_plans"]; !ok || misses["fer_plans"] < 1 || misses["networks"] != 1 {
		t.Errorf("onocd_engine_registry_misses_total = %v, want a link_plans series, fer_plans ≥ 1 and networks = 1", misses)
	}
	// The 8-tile crossbar's links all ride the full grid: one block plan,
	// compiled by the first link and found by the other seven.
	if registries["block_plans"] != 1 || misses["block_plans"] != 1 || hits["block_plans"] != 7 {
		t.Errorf("block_plans registry: %v entries, %v hits, %v misses; want 1, 7 and 1",
			registries["block_plans"], hits["block_plans"], misses["block_plans"])
	}
	if fams["onocd_build_info"].samples[0].labels["go_version"] == "" {
		t.Error("onocd_build_info missing go_version label")
	}
}
