package netsim

import (
	"context"
	"math"
	"testing"
)

func rowSums(m [][]float64) []float64 {
	out := make([]float64, len(m))
	for s, row := range m {
		for _, w := range row {
			out[s] += w
		}
	}
	return out
}

func TestPatternMatrixStochastic(t *testing.T) {
	for _, p := range []Pattern{Uniform, Hotspot, Permutation, Streaming} {
		m, err := p.Matrix(8, 3, 0.30)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for s, sum := range rowSums(m) {
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%v row %d sums to %g", p, s, sum)
			}
			if m[s][s] != 0 {
				t.Errorf("%v row %d sends to itself", p, s)
			}
		}
	}
	if _, err := Hotspot.Matrix(8, 99, 0.30); err == nil {
		t.Error("hotspot matrix accepted node 99")
	}
	if _, err := Hotspot.Matrix(8, 3, 1.5); err == nil {
		t.Error("hotspot matrix accepted fraction 1.5")
	}
	if _, err := Uniform.Matrix(1, 0, 0); err == nil {
		t.Error("matrix accepted 1 tile")
	}
}

// TestHotspotMatrixMatchesSampler compares the analytic matrix against the
// empirical destination frequencies of a recorded trace: the matrix is the
// sampler's stationary law, so the two must agree within Monte-Carlo noise.
func TestHotspotMatrixMatchesSampler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pattern = Hotspot
	cfg.HotspotNode = 5
	cfg.Messages = 60000
	tr, err := RecordTraceCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Link.Channel.Topo.ONIs
	want, err := Hotspot.Matrix(n, cfg.HotspotNode, cfg.HotspotFraction)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([][]float64, n)
	totals := make([]float64, n)
	for s := range counts {
		counts[s] = make([]float64, n)
	}
	for _, ev := range tr {
		counts[ev.Src][ev.Dst]++
		totals[ev.Src]++
	}
	for s := 0; s < n; s++ {
		if totals[s] < 100 {
			t.Fatalf("source %d emitted only %g messages", s, totals[s])
		}
		for d := 0; d < n; d++ {
			got := counts[s][d] / totals[s]
			// Three-sigma binomial band around the analytic probability.
			sigma := math.Sqrt(want[s][d] * (1 - want[s][d]) / totals[s])
			if math.Abs(got-want[s][d]) > 3*sigma+1e-9 {
				t.Errorf("pair (%d,%d): empirical %g vs analytic %g (±%g)", s, d, got, want[s][d], 3*sigma)
			}
		}
	}
}

func TestTraceMatrixWeightsByBits(t *testing.T) {
	tr := Trace{
		{TimeSec: 0, Src: 0, Dst: 1, Bits: 3000},
		{TimeSec: 1, Src: 0, Dst: 2, Bits: 1000},
		{TimeSec: 2, Src: 2, Dst: 0, Bits: 500},
	}
	m, err := tr.Matrix(3)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 0.75 || m[0][2] != 0.25 {
		t.Errorf("source 0 row = %v, want [0 0.75 0.25]", m[0])
	}
	if m[2][0] != 1 {
		t.Errorf("source 2 row = %v, want [1 0 0]", m[2])
	}
	for d, w := range m[1] {
		if w != 0 {
			t.Errorf("silent source 1 has weight %g to %d", w, d)
		}
	}
	if _, err := tr.Matrix(2); err == nil {
		t.Error("trace matrix accepted out-of-range endpoints")
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range []Pattern{Uniform, Hotspot, Permutation, Streaming} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePattern("tornado"); err == nil {
		t.Error("ParsePattern accepted an unknown workload")
	}
}

func TestHotspotFractionValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pattern = Hotspot
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default hotspot config invalid: %v", err)
	}
	for _, frac := range []float64{0, -0.1, 1, 1.5, math.NaN()} {
		c := cfg
		c.HotspotFraction = frac
		if err := c.Validate(); err == nil {
			t.Errorf("hotspot fraction %g accepted", frac)
		}
		if _, err := Hotspot.Matrix(8, 0, frac); err == nil {
			t.Errorf("hotspot matrix with fraction %g accepted", frac)
		}
	}
	// The fraction is irrelevant — and unchecked — for other patterns.
	c := cfg
	c.Pattern = Uniform
	c.HotspotFraction = 0
	if err := c.Validate(); err != nil {
		t.Errorf("uniform config rejected over unused hotspot fraction: %v", err)
	}
}

func TestPercentileEdges(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"empty q=1", []float64{}, 1, 0},
		{"single q=0", []float64{7}, 0, 7},
		{"single q=0.5", []float64{7}, 0.5, 7},
		{"single q=1", []float64{7}, 1, 7},
		{"q=0 is min", []float64{1, 2, 3, 4}, 0, 1},
		{"q=1 is max", []float64{1, 2, 3, 4}, 1, 4},
		{"q below 0 clamps", []float64{1, 2, 3, 4}, -0.5, 1},
		{"q above 1 clamps", []float64{1, 2, 3, 4}, 1.5, 4},
		{"NaN q floors", []float64{1, 2, 3, 4}, nan, 1},
		{"interior lower nearest rank", []float64{1, 2, 3, 4}, 0.5, 2},
		{"p99 of 4", []float64{1, 2, 3, 4}, 0.99, 3},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: percentile(%v, %g) = %g, want %g", c.name, c.sorted, c.q, got, c.want)
		}
	}
}
