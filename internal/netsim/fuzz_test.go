package netsim

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// FuzzParsePattern: the CLI-facing parser never panics and round-trips
// with String on every accepted spelling.
func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{"uniform", "hotspot", "permutation", "streaming", "", "Uniform", "hotspot ", "\xff"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePattern(s)
		if err != nil {
			return
		}
		if p.String() != s {
			t.Fatalf("ParsePattern(%q) = %v, but %v.String() = %q", s, p, p, p.String())
		}
		if back, err := ParsePattern(p.String()); err != nil || back != p {
			t.Fatalf("round trip %q → %v → %q broke: %v", s, p, p.String(), err)
		}
	})
}

// FuzzTraceValidate: arbitrary traces never panic the validator, and a
// trace it accepts must satisfy the invariants replay relies on (ordering,
// in-range endpoints, positive payloads) — including surviving the
// empirical matrix extraction without division by zero.
func FuzzTraceValidate(f *testing.F) {
	f.Add(12, 0.0, 0, 1, 4096, 1.0, 1, 0, 8192)
	f.Add(2, -1.0, 0, 1, 0, 0.5, 1, 1, 64)
	f.Add(3, 1.0, 2, 2, 64, 0.5, 0, 2, 64)
	f.Add(4, math.NaN(), 0, 1, 64, 1.0, 1, 2, 64)
	f.Add(4, 0.0, 0, 1, 64, math.Inf(1), 1, 2, 64)
	f.Fuzz(func(t *testing.T, n int, t0 float64, s0, d0, b0 int, t1 float64, s1, d1, b1 int) {
		if n < 0 || n > 1024 {
			return
		}
		tr := Trace{
			{TimeSec: t0, Src: s0, Dst: d0, Bits: b0},
			{TimeSec: t1, Src: s1, Dst: d1, Bits: b1},
		}
		if err := tr.Validate(n); err != nil {
			return
		}
		// Accepted ⇒ invariants hold. The finiteness check is what keeps
		// the ordering comparison meaningful (a NaN time satisfies neither
		// side of <), and non-negativity is what the simulators' t = 0
		// server anchor relies on.
		for i, ev := range tr {
			if math.IsNaN(ev.TimeSec) || math.IsInf(ev.TimeSec, 0) || ev.TimeSec < 0 {
				t.Fatalf("accepted non-finite or negative time %g at event %d", ev.TimeSec, i)
			}
		}
		if tr[1].TimeSec < tr[0].TimeSec {
			t.Fatal("accepted an out-of-order trace")
		}
		for i, ev := range tr {
			if ev.Src < 0 || ev.Src >= n || ev.Dst < 0 || ev.Dst >= n || ev.Src == ev.Dst || ev.Bits <= 0 {
				t.Fatalf("accepted invalid event %d: %+v for %d tiles", i, ev, n)
			}
		}
		m, err := tr.Matrix(n)
		if err != nil {
			t.Fatalf("accepted trace fails matrix extraction: %v", err)
		}
		if len(m) != n {
			t.Fatalf("matrix has %d rows for %d tiles", len(m), n)
		}
	})
}

// FuzzReplay: any trace Trace.Validate accepts for 12 ONIs replays through
// the single-link simulator (under a fuzzed manager policy) and the bus-12
// network without panicking, delivers every message with unbounded queues,
// orders its latency percentiles, and keeps every busy fraction and
// utilization at most 1. Each 7-byte chunk of events is one arrival, up to
// 64 of them: a time step in picoseconds (2 bytes), source and destination
// (one byte each, mod 13 so out-of-range endpoints still occur), payload
// bits (2 bytes) and a deadline in units of 10 ns after the arrival
// (0 = none).
func FuzzReplay(f *testing.F) {
	cfg := DefaultConfig()
	c, err := cfg.Link.Compile()
	if err != nil {
		f.Fatal(err)
	}
	ev := c.Evaluator()
	net, decisions, _ := buildNetwork(f, noc.Bus, 12, 1e-11)
	netCfg := NetConfig{Net: net, Decisions: decisions}

	f.Add(uint8(0), []byte{0, 0, 0, 1, 0x80, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 0x80, 0, 3, 0, 0, 2, 1, 0x80, 0, 3, 0, 0, 5, 1, 0xff, 0xff, 1})
	f.Add(uint8(6), []byte{0x10, 0, 11, 0, 0, 1, 0, 0x10, 0, 0, 11, 0, 2, 0})
	f.Fuzz(func(t *testing.T, policy uint8, events []byte) {
		if len(events) > 7*64 {
			return
		}
		var tr Trace
		var now float64
		for b := events; len(b) >= 7; b = b[7:] {
			now += float64(binary.LittleEndian.Uint16(b)) * 1e-12
			e := TraceEvent{TimeSec: now, Src: int(b[2] % 13), Dst: int(b[3] % 13), Bits: int(binary.LittleEndian.Uint16(b[4:]))}
			if b[6] > 0 {
				e.DeadlineSec = now + float64(b[6])*10e-9
			}
			tr = append(tr, e)
		}
		if tr.Validate(12) != nil {
			return
		}
		link := cfg
		link.AdaptToDeadline = policy&1 != 0
		link.IdleLaserOff = policy&2 != 0
		link.Objective = manager.Objective(policy >> 2 % 3)
		res, err := RunTraceCtx(context.Background(), link, tr, ev)
		if err != nil {
			t.Fatalf("single-link replay: %v", err)
		}
		if res.Messages != int64(len(tr)) {
			t.Fatalf("single link delivered %d of %d messages", res.Messages, len(tr))
		}
		checkPercentiles(t, "single link", res.P50LatencySec, res.P95LatencySec, res.P99LatencySec, res.MaxLatencySec)
		if res.ChannelUtilization > 1 {
			t.Fatalf("channel utilization %v > 1", res.ChannelUtilization)
		}
		for _, ch := range res.PerChannel {
			if ch.BusyFraction > 1 {
				t.Fatalf("channel %d busy fraction %v > 1", ch.Channel, ch.BusyFraction)
			}
		}

		nres, err := RunNetworkTrace(context.Background(), netCfg, tr)
		if err != nil {
			t.Fatalf("network replay: %v", err)
		}
		if nres.Messages != int64(len(tr)) || nres.Dropped != 0 {
			t.Fatalf("network delivered %d / dropped %d of %d messages", nres.Messages, nres.Dropped, len(tr))
		}
		checkPercentiles(t, "network", nres.P50LatencySec, nres.P95LatencySec, nres.P99LatencySec, nres.MaxLatencySec)
		if nres.MeanUtilization > 1 || nres.MaxUtilization > 1 {
			t.Fatalf("network utilization mean %v, max %v > 1", nres.MeanUtilization, nres.MaxUtilization)
		}
		for _, l := range nres.PerLink {
			if l.Utilization > 1 {
				t.Fatalf("link %d utilization %v > 1", l.Link, l.Utilization)
			}
		}
	})
}

// FuzzSortNonNegative: the bucket sort of the latencies orders any
// non-negative sample exactly as slices.Sort does. Each 8 bytes of input
// are one key's bit pattern with the sign bit cleared; NaN patterns are
// skipped, since latencies are never NaN. The seeds include a sample of
// every nonNegativeSample shape.
func FuzzSortNonNegative(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for shape := 0; shape < sampleShapes; shape++ {
		var raw []byte
		for _, k := range nonNegativeSample(rng, 32, shape) {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(k))
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-7)), math.Float64bits(3e-9)))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))), 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var keys []float64
		for b := raw; len(b) >= 8; b = b[8:] {
			if k := math.Float64frombits(binary.LittleEndian.Uint64(b) &^ (1 << 63)); !math.IsNaN(k) {
				keys = append(keys, k)
			}
		}
		checkSortNonNegative(t, keys)
	})
}

// FuzzDestinationDraw: a destination table's guide-table search returns
// the index the binary search over its cumulative weights returns, the
// last index standing in for an overshoot. Each 3 input bytes are one
// weight: a zero, a subnormal, or a normal weight between 2^-200 and 2^56,
// so a small weight after a large one is absorbed and leaves two equal
// cumulative values. The draws probed are 0, every cumulative value and
// its two neighbours, the total, and the largest draw the generator makes.
func FuzzDestinationDraw(f *testing.F) {
	f.Add([]byte{2, 200, 0})
	f.Add([]byte{2, 200, 0, 2, 200, 0, 2, 200, 0, 2, 200, 0, 2, 200, 0, 2, 200, 0, 2, 200, 0})
	f.Add([]byte{0, 0, 0, 3, 250, 9, 1, 0, 1, 2, 10, 0, 0, 0, 0, 2, 199, 128})
	f.Add([]byte{1, 0, 1, 1, 255, 255, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var cum []float64
		total := 0.0
		for b := raw; len(b) >= 3 && len(cum) < 512; b = b[3:] {
			var w float64
			switch b[0] % 4 {
			case 1:
				w = math.Float64frombits(uint64(b[1])<<8 | uint64(b[2]))
			case 2, 3:
				w = math.Ldexp(1+float64(b[2])/256, int(b[1])-200)
			}
			total += w
			cum = append(cum, total)
		}
		if len(cum) == 0 {
			return
		}
		tab := newDestTable(cum, nil)
		probe := func(r float64) {
			want := sort.SearchFloat64s(cum, r)
			if want == len(cum) {
				want--
			}
			if got := tab.index(r); got != want {
				t.Fatalf("draw %v over cumulative weights %v: guide index %d, binary search %d", r, cum, got, want)
			}
		}
		probe(0)
		for _, c := range cum {
			probe(math.Nextafter(c, 0))
			probe(c)
			probe(math.Nextafter(c, math.Inf(1)))
		}
		probe(total)
		probe(math.Nextafter(1, 0) * total)
	})
}

// checkPercentiles fails unless P50 ≤ P95 ≤ P99 ≤ Max.
func checkPercentiles(t *testing.T, name string, p50, p95, p99, max float64) {
	t.Helper()
	if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
		t.Fatalf("%s percentiles out of order: P50 %v, P95 %v, P99 %v, max %v", name, p50, p95, p99, max)
	}
}
