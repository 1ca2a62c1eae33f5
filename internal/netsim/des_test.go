package netsim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// update regenerates testdata/des.golden:
//
//	go test ./internal/netsim -run TestDESGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// desSingleLink are the single-link fixtures of the DES golden, each a
// mutation of DefaultConfig at 20k messages.
var desSingleLink = []struct {
	name   string
	mutate func(*Config)
}{
	{"uniform", func(c *Config) {}},
	{"hotspot", func(c *Config) { c.Pattern = Hotspot; c.HotspotNode = 3 }},
	{"permutation", func(c *Config) { c.Pattern = Permutation }},
	{"streaming_adaptive", func(c *Config) { c.Pattern = Streaming; c.DeadlineSlack = 2; c.AdaptToDeadline = true }},
	{"tight_deadlines", func(c *Config) { c.Load = 0.5; c.DeadlineSlack = 1.4; c.AdaptToDeadline = true }},
	{"idle_laser_off", func(c *Config) { c.Load = 0.1; c.IdleLaserOff = true }},
	{"min_power", func(c *Config) { c.Objective = manager.MinPower }},
	{"min_latency", func(c *Config) { c.Objective = manager.MinLatency }},
	{"extended_1e6_deadlines", func(c *Config) {
		c.Schemes = ecc.ExtendedSchemes()
		c.TargetBER = 1e-6
		c.DeadlineSlack = 1.05
		c.AdaptToDeadline = true
	}},
	// Every scheme's laser setting exceeds the DAC's full scale, so the
	// run fails programming its first transfer; the golden holds the error.
	{"dac_ceiling", func(c *Config) { c.DAC = manager.DAC{Bits: 6, MaxOpticalW: 1e-6} }},
}

// desNetwork are the network fixtures of the DES golden: a topology, its
// offered load as a fraction of the analytic saturation rate, and a queue
// bound (0 = unbounded), all at seed 3.
var desNetwork = []struct {
	name     string
	kind     noc.Kind
	tiles    int
	load     float64
	maxQueue int
}{
	{"bus12", noc.Bus, 12, 0.5, 0},
	{"ring16", noc.Ring, 16, 0.5, 0},
	{"mesh16", noc.Mesh, 16, 0.5, 0},
	{"mesh16_q8_overload", noc.Mesh, 16, 1.1, 8},
	{"crossbar8", noc.Crossbar, 8, 0.9, 0},
}

// TestDESGolden pins both simulators on fixed workloads: every count,
// latency, wait, utilization and depth exactly, every energy field within
// 1e-12 relative (energies are sums whose rounding depends on the
// accumulation order, not on the model), and the text of a failed run.
func TestDESGolden(t *testing.T) {
	got := map[string]any{}
	for _, fx := range desSingleLink {
		cfg := DefaultConfig()
		fx.mutate(&cfg)
		res, err := run(cfg)
		if err != nil {
			got["link/"+fx.name] = err.Error()
			continue
		}
		got["link/"+fx.name] = res
	}
	for _, fx := range desNetwork {
		net, decisions, opts := buildNetwork(t, fx.kind, fx.tiles, 1e-11)
		res, err := RunNetwork(context.Background(), NetConfig{
			Net:                     net,
			Decisions:               decisions,
			InjectionRateBitsPerSec: fx.load * saturationRate(t, net, decisions, opts),
			Seed:                    3,
			MaxQueueDepth:           fx.maxQueue,
		})
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		res.Decisions = nil // an echo of the input, not a simulation result
		got["net/"+fx.name] = res
	}

	path := filepath.Join("testdata", "des.golden")
	if *update {
		out, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d fixtures, the test runs %d", len(want), len(got))
	}
	for name, res := range got {
		w := reflect.New(reflect.TypeOf(res))
		dec := json.NewDecoder(bytes.NewReader(want[name]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(w.Interface()); err != nil {
			t.Fatalf("%s: decoding golden: %v", name, err)
		}
		diffDES(t, name, reflect.ValueOf(res), w.Elem())
	}
}

// diffDES reports every field where got departs from want: floats whose
// path names an energy within 1e-12 relative, everything else exactly.
func diffDES(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			diffDES(t, path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i))
		}
	case reflect.Slice:
		if got.Len() != want.Len() {
			t.Errorf("%s: length %d, golden %d", path, got.Len(), want.Len())
			return
		}
		for i := 0; i < got.Len(); i++ {
			diffDES(t, path+"["+strconv.Itoa(i)+"]", got.Index(i), want.Index(i))
		}
	case reflect.Float64:
		g, w := got.Float(), want.Float()
		if strings.Contains(path[strings.LastIndex(path, ".")+1:], "Energy") {
			if math.Abs(g-w) > 1e-12*math.Abs(w) {
				t.Errorf("%s = %v, golden %v (relative %g)", path, g, w, math.Abs(g-w)/math.Abs(w))
			}
		} else if g != w {
			t.Errorf("%s = %v, golden %v", path, g, w)
		}
	default:
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("%s = %v, golden %v", path, got.Interface(), want.Interface())
		}
	}
}

// sampleShapes is the number of shapes nonNegativeSample draws from.
const sampleShapes = 8

// nonNegativeSample draws n non-negative finite floats from one of the
// shapes the latency sort must handle: few distinct values (duplicates),
// mostly zeros, subnormals, values spanning the whole exponent range,
// latency-like values of one magnitude, and three shapes of a DES's
// latencies: a tie block holding half the keys, keys that differ only
// above bit 52 (the exponent), and keys that differ only in their lowest
// 12 bits.
func nonNegativeSample(rng *rand.Rand, n, shape int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch shape {
		case 0:
			x[i] = float64(rng.Intn(4)) * 1e-9
		case 1:
			if rng.Intn(8) == 0 {
				x[i] = rng.Float64()
			}
		case 2:
			x[i] = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		case 3:
			x[i] = math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1074)
		case 5:
			x[i] = 2.5e-7
			if rng.Intn(2) == 0 {
				x[i] += rng.ExpFloat64() * 2e-7
			}
		case 6:
			x[i] = math.Ldexp(1.375, rng.Intn(40)-40)
		case 7:
			x[i] = math.Float64frombits(math.Float64bits(2.5e-7)&^(1<<12-1) | rng.Uint64()&(1<<12-1))
		default:
			x[i] = 1e-8 + rng.ExpFloat64()*2e-7
		}
	}
	if n > 0 && shape == 3 {
		x[rng.Intn(n)] = math.MaxFloat64
		x[rng.Intn(n)] = math.SmallestNonzeroFloat64
	}
	return x
}

// checkSortNonNegative sorts keys with sortNonNegative and slices.Sort and
// fails unless the results agree bit for bit.
func checkSortNonNegative(t *testing.T, keys []float64) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	got := slices.Clone(keys)
	sortNonNegative(got, make([]float64, len(got)))
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: position %d holds %v, slices.Sort gives %v", len(keys), i, got[i], want[i])
		}
	}
}

// TestSortNonNegativeMatchesSort: the bucket sort of the latencies orders
// every non-negative sample exactly as slices.Sort does, over lengths
// 0–5000 and the 20k messages of a default run, and every sample shape.
func TestSortNonNegativeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 2, 3, 255, 256, 257, 5000, 20000}
	for i := 0; i < 40; i++ {
		lengths = append(lengths, rng.Intn(5001))
	}
	for _, n := range lengths {
		for shape := 0; shape < sampleShapes; shape++ {
			checkSortNonNegative(t, nonNegativeSample(rng, n, shape))
		}
	}
}

// TestRunNetworkAllocatedBytes bounds what one 20k-message mesh-4×4 run
// allocates: the trace, the per-message waits and latencies, and little
// else — the per-link occupancy FIFOs stay within twice their live size.
func TestRunNetworkAllocatedBytes(t *testing.T) {
	net, decisions, opts := buildNetwork(t, noc.Mesh, 16, 1e-11)
	cfg := NetConfig{
		Net:                     net,
		Decisions:               decisions,
		InjectionRateBitsPerSec: 0.5 * saturationRate(t, net, decisions, opts),
		Messages:                20000,
		Seed:                    1,
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := RunNetwork(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const limit = 14 << 20 / 10 // 1.4 MiB
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("RunNetwork allocates %d bytes", perRun)
	if perRun > limit {
		t.Errorf("RunNetwork allocates %d bytes, want at most %d", perRun, limit)
	}
}
