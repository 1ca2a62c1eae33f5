package netsim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

func TestRecordTraceShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 1500
	cfg.DeadlineSlack = 2.0
	tr, err := RecordTraceCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 1500 {
		t.Fatalf("trace length %d", len(tr))
	}
	if err := tr.Validate(12); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	// Time-ordered, all deadlines after arrivals.
	for i, ev := range tr {
		if ev.DeadlineSec == 0 {
			t.Fatalf("event %d missing deadline despite slack config", i)
		}
	}
}

func TestRunEqualsRecordPlusReplay(t *testing.T) {
	// The structural guarantee of the refactor: RunCtx == RecordTraceCtx →
	// RunTraceCtx, bit for bit.
	cfg := DefaultConfig()
	cfg.Messages = 2000
	direct, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTraceCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if direct.MeanLatencySec != replayed.MeanLatencySec ||
		direct.TotalEnergyJ != replayed.TotalEnergyJ ||
		direct.Messages != replayed.Messages {
		t.Error("replaying the recorded trace diverged from the direct run")
	}
}

func TestTraceReplayAcrossPolicies(t *testing.T) {
	// The point of traces: the *same* workload compared under different
	// link policies. Latency-optimal must beat power-optimal on latency
	// on the identical arrival sequence.
	cfg := DefaultConfig()
	cfg.Messages = 3000
	tr, err := RecordTraceCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast := cfg
	fast.Objective = 2 // MinLatency
	slow := cfg
	slow.Objective = 0 // MinPower
	fastRes, err := runTrace(fast, tr)
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := runTrace(slow, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.MeanLatencySec >= slowRes.MeanLatencySec {
		t.Errorf("min-latency %g should beat min-power %g on the same trace",
			fastRes.MeanLatencySec, slowRes.MeanLatencySec)
	}
	if fastRes.Messages != slowRes.Messages {
		t.Error("same trace must deliver the same message count")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 200
	cfg.DeadlineSlack = 1.5
	tr, err := RecordTraceCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("roundtrip length %d vs %d", len(back), len(tr))
	}
	for i := range tr {
		if back[i] != tr[i] {
			t.Fatalf("event %d changed in JSON roundtrip", i)
		}
	}
	// Replay of the deserialized trace still works.
	if _, err := runTrace(cfg, back); err != nil {
		t.Fatal(err)
	}
	// Garbage JSON errors out.
	if _, err := ReadTraceJSON(strings.NewReader("{not json")); err == nil {
		t.Error("garbage JSON should error")
	}
}

func TestTraceValidate(t *testing.T) {
	good := Trace{{TimeSec: 0, Src: 0, Dst: 1, Bits: 8}}
	if err := good.Validate(12); err != nil {
		t.Errorf("good trace rejected: %v", err)
	}
	bad := []Trace{
		{{TimeSec: 0, Src: 0, Dst: 99, Bits: 8}},                                       // bad dst
		{{TimeSec: 0, Src: 3, Dst: 3, Bits: 8}},                                        // self-send
		{{TimeSec: 0, Src: 0, Dst: 1, Bits: 0}},                                        // no payload
		{{TimeSec: 5, Src: 0, Dst: 1, Bits: 8}, {TimeSec: 1, Src: 0, Dst: 1, Bits: 8}}, // unordered
		{{TimeSec: 5, Src: 0, Dst: 1, Bits: 8, DeadlineSec: 1}},                        // deadline in the past
	}
	for i, tr := range bad {
		if err := tr.Validate(12); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

// TestDeadlineCapSizedFromMessage: the deadline CT cap comes from the
// event's own payload, not Config.MessageBits. A 4× message whose deadline
// allows 1.5× its uncoded transfer must get CT ≤ 1.5 — H(71,64) under
// MinPower — and meet the deadline; sizing the cap from MessageBits would
// allow CT 6, pick H(7,4) (CT 1.75) and miss.
func TestDeadlineCapSizedFromMessage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptToDeadline = true
	cfg.Objective = manager.MinPower
	topo := cfg.Link.Channel.Topo
	bits := 4 * cfg.MessageBits
	uncoded := float64(bits) / (float64(topo.Wavelengths) * cfg.Link.FmodHz)
	tr := Trace{{Src: 0, Dst: 1, Bits: bits, DeadlineSec: core.TokenOverheadSec + 1.5*uncoded}}
	res, err := runTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 || res.SchemeUse["H(71,64)"] != 1 {
		t.Fatalf("misses %d, schemes %v; want 0 misses on H(71,64)", res.DeadlineMisses, res.SchemeUse)
	}
}

// TestReplayIgnoresGenerationFields: replay reads only the link, roster,
// DAC, BER and policy fields, so zeroing the workload-generation fields
// must neither be rejected nor change a single result.
func TestReplayIgnoresGenerationFields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 2000
	cfg.DeadlineSlack = 1.4
	cfg.AdaptToDeadline = true
	tr, err := RecordTraceCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := runTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	bare := cfg
	bare.Pattern, bare.HotspotNode, bare.HotspotFraction = Hotspot, -1, 0
	bare.Load, bare.Messages, bare.Seed, bare.DeadlineSlack, bare.MessageBits = 0, 0, 0, 0, 0
	got, err := runTrace(bare, tr)
	if err != nil {
		t.Fatalf("replay with zero generation fields rejected: %v", err)
	}
	if !reflect.DeepEqual(full, got) {
		t.Fatal("generation-only fields leaked into the replay results")
	}
}

// TestEmptyTraceReplays: an empty trace is valid and replays to zero
// Results — no transfers, no energy, no time — with no error.
func TestEmptyTraceReplays(t *testing.T) {
	res, err := runTrace(DefaultConfig(), Trace{})
	if err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
	if len(res.SchemeUse) != 0 {
		t.Fatalf("empty trace used schemes %v", res.SchemeUse)
	}
	res.SchemeUse = nil
	if !reflect.DeepEqual(res, Results{}) {
		t.Fatalf("empty trace replayed to %+v, want zero Results", res)
	}
}

// TestGeneratedTracesValidate: at operating-point rates every generated
// trace passes Trace.Validate and holds exactly the configured number of
// arrivals — on every topology kind, under uniform, hotspot and partly
// silent traffic matrices, and on the single link under every pattern with
// and without deadlines, over 20 seeds. Only degenerate rates produce
// invalid traces (TestNonFiniteArrivalsRejected).
func TestGeneratedTracesValidate(t *testing.T) {
	const messages = 3000
	for _, fx := range []struct {
		kind  noc.Kind
		tiles int
	}{{noc.Bus, 12}, {noc.Crossbar, 8}, {noc.Ring, 16}, {noc.Mesh, 16}} {
		net, decisions, opts := buildNetwork(t, fx.kind, fx.tiles, 1e-11)
		hotspot, err := Hotspot.Matrix(fx.tiles, 1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		silent := noc.UniformMatrix(fx.tiles)
		for s := 0; s < fx.tiles; s += 2 {
			silent[s] = make([]float64, fx.tiles) // even sources emit nothing
		}
		for _, traffic := range []struct {
			name string
			m    noc.Matrix
		}{{"uniform", nil}, {"hotspot", hotspot}, {"silent", silent}} {
			for seed := int64(1); seed <= 20; seed++ {
				tr, err := RecordNetworkTrace(context.Background(), NetConfig{
					Net:                     net,
					Decisions:               decisions,
					Traffic:                 traffic.m,
					InjectionRateBitsPerSec: 0.5 * saturationRate(t, net, decisions, opts),
					Messages:                messages,
					Seed:                    seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(tr) != messages {
					t.Fatalf("%v/%s seed %d: %d arrivals, want %d", fx.kind, traffic.name, seed, len(tr), messages)
				}
				if err := tr.Validate(fx.tiles); err != nil {
					t.Fatalf("%v/%s seed %d: %v", fx.kind, traffic.name, seed, err)
				}
			}
		}
	}
	for _, p := range []Pattern{Uniform, Hotspot, Permutation, Streaming} {
		for _, slack := range []float64{0, 2} {
			for seed := int64(1); seed <= 20; seed++ {
				cfg := DefaultConfig()
				cfg.Pattern, cfg.HotspotNode, cfg.DeadlineSlack = p, 3, slack
				cfg.Messages, cfg.Seed = messages, seed
				tr, err := RecordTraceCtx(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(tr) != messages {
					t.Fatalf("%v slack %g seed %d: %d arrivals, want %d", p, slack, seed, len(tr), messages)
				}
				if err := tr.Validate(cfg.Link.Channel.Topo.ONIs); err != nil {
					t.Fatalf("%v slack %g seed %d: %v", p, slack, seed, err)
				}
			}
		}
	}
}

// TestGenerateTieOrder pins the generator's tie rule: arrivals at equal
// times pop in the order of the sources list. Every source ticks on the
// integer grid, one of them every other step, so most steps tie.
func TestGenerateTieOrder(t *testing.T) {
	sources := []int{0, 2, 5, 7}
	position := map[int]int{0: 0, 2: 1, 5: 2, 7: 3}
	next := func(src int, now float64) TraceEvent {
		step := 1.0
		if src == 5 {
			step = 2
		}
		return TraceEvent{TimeSec: now + step, Src: src, Dst: (src + 1) % 8, Bits: 1}
	}
	tr, err := record(context.Background(), 100, sources, next)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tr); i++ {
		a, b := tr[i-1], tr[i]
		if a.TimeSec > b.TimeSec || a.TimeSec == b.TimeSec && position[a.Src] >= position[b.Src] {
			t.Fatalf("arrivals %d (t=%g, src %d) and %d (t=%g, src %d) out of (time, source) order",
				i-1, a.TimeSec, a.Src, i, b.TimeSec, b.Src)
		}
	}
	want := []int{0, 2, 7, 0, 2, 5, 7, 0, 2, 7, 0, 2, 5, 7}
	for i, src := range want {
		if tr[i].Src != src {
			t.Fatalf("arrival %d from source %d, want %d (first arrivals %v)", i, tr[i].Src, src, tr[:len(want)])
		}
	}
}
