package engine

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// update regenerates testdata/network.golden:
//
//	go test ./internal/engine -run TestNetworkGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenTopologies are the network fixtures of the golden: the serve-warm
// shapes, a 64-tile mesh, and a 16-tile crossbar at 1 cm pitch whose 30 cm
// serpentine no scheme can close.
var goldenTopologies = []struct {
	name string
	cfg  noc.Config
}{
	{"bus-12", noc.Config{Kind: noc.Bus, Tiles: 12}},
	{"ring-16", noc.Config{Kind: noc.Ring, Tiles: 16}},
	{"mesh-4x4", noc.Config{Kind: noc.Mesh, Tiles: 16, Columns: 4}},
	{"mesh-64", noc.Config{Kind: noc.Mesh, Tiles: 64}},
	{"crossbar-8", noc.Config{Kind: noc.Crossbar, Tiles: 8}},
	{"crossbar-16-pitch1", noc.Config{Kind: noc.Crossbar, Tiles: 16, TilePitchCM: 1}},
}

// goldenBERs is the sweep grid of the golden.
var goldenBERs = []float64{1e-7, 1e-9, 1e-10, 1e-11, 1e-12}

// TestNetworkGolden pins Network, NetworkSweep, NetworkSweepStream and
// SimulateNetwork on the extended roster: per call a readable summary of
// the result, a SHA-256 digest of every field (every decision, load and
// evaluation, floats exactly), and the engine's cache counters. With one
// worker every counter is recorded; with two, only those no schedule can
// move (lookups, cold solves), since concurrent identical
// misses may split between Hits and SharedSolves.
func TestNetworkGolden(t *testing.T) {
	var b strings.Builder
	dac := manager.PaperDAC()
	for _, workers := range []int{1, 2} {
		for _, topo := range goldenTopologies {
			for _, obj := range []manager.Objective{manager.MinPower, manager.MinEnergy, manager.MinLatency} {
				fmt.Fprintf(&b, "== %s %s workers=%d\n", topo.name, obj, workers)
				goldenDump(t, &b, workers, topo.cfg, obj, &dac)
			}
		}
	}
	goldenErrors(t, &b)
	compareGolden(t, filepath.Join("testdata", "network.golden"), b.String())
}

// goldenDump runs the four calls on a fresh engine and writes one line per
// result and one line of cache counters after each call.
func goldenDump(t *testing.T, w io.Writer, workers int, cfg noc.Config, obj manager.Objective, dac *manager.DAC) {
	t.Helper()
	e, err := New(WithConfig(core.DefaultConfig()), WithSchemes(ecc.ExtendedSchemes()...), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	counters := func() {
		s := e.CacheStats()
		if workers == 1 {
			fmt.Fprintf(w, "  cache hits=%d misses=%d cold=%d shared=%d\n",
				s.Hits, s.Misses, s.ColdSolves, s.SharedSolves)
		} else {
			fmt.Fprintf(w, "  cache lookups=%d cold=%d\n", s.Hits+s.Misses, s.ColdSolves)
		}
	}

	res, err := e.Network(ctx, cfg, noc.EvalOptions{TargetBER: 1e-11, Objective: obj, DAC: dac})
	fmt.Fprintf(w, "  Network %s\n", summarizeNoC(res, err))
	counters()

	sweep, err := e.NetworkSweep(ctx, cfg, goldenBERs, noc.EvalOptions{Objective: obj})
	if err != nil {
		fmt.Fprintf(w, "  NetworkSweep err=%v\n", err)
	}
	for i := range sweep {
		fmt.Fprintf(w, "  NetworkSweep[%d] %s\n", i, summarizeNoC(sweep[i], nil))
	}
	counters()

	i := 0
	for res, err := range e.NetworkSweepStream(ctx, cfg, goldenBERs, noc.EvalOptions{Objective: obj}) {
		fmt.Fprintf(w, "  NetworkSweepStream[%d] ber=%g %s\n", i, goldenBERs[i], summarizeNoC(res, err))
		i++
	}
	counters()

	sim, err := e.SimulateNetwork(ctx, cfg, NetworkSimOptions{
		TargetBER: 1e-11, Objective: obj, DAC: dac, Messages: 2000, Seed: 5,
	})
	if err != nil {
		fmt.Fprintf(w, "  SimulateNetwork err=%v\n", err)
	} else {
		fmt.Fprintf(w, "  SimulateNetwork messages=%d mean=%s p99=%s energy=%s util=%s digest=%s\n",
			sim.Messages, fmtFloat(sim.MeanLatencySec), fmtFloat(sim.P99LatencySec),
			fmtFloat(sim.TotalEnergyJ), fmtFloat(sim.MaxUtilization), digest(sim))
	}
	counters()
}

// goldenErrors pins the boundary errors of the four calls, message text
// included.
func goldenErrors(t *testing.T, w io.Writer) {
	t.Helper()
	e, err := New(WithConfig(core.DefaultConfig()), WithSchemes(ecc.PaperSchemes()...), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bus := noc.Config{Kind: noc.Bus, Tiles: 12}
	badTopo := noc.Config{Kind: noc.Ring, Tiles: 99}
	badTraffic := noc.EvalOptions{TargetBER: 1e-11, Traffic: noc.UniformMatrix(5)}
	fmt.Fprintln(w, "== errors")
	line := func(name string, err error) { fmt.Fprintf(w, "  %s err=%v\n", name, err) }

	_, err = e.Network(ctx, bus, noc.EvalOptions{TargetBER: 0.7})
	line("Network/ber", err)
	_, err = e.Network(ctx, badTopo, noc.EvalOptions{TargetBER: 1e-11})
	line("Network/topology", err)
	_, err = e.Network(ctx, bus, badTraffic)
	line("Network/traffic", err)
	_, err = e.NetworkSweep(ctx, bus, nil, noc.EvalOptions{})
	line("NetworkSweep/empty", err)
	_, err = e.NetworkSweep(ctx, bus, []float64{1e-9, 0}, noc.EvalOptions{})
	line("NetworkSweep/ber", err)
	_, err = e.NetworkSweep(ctx, badTopo, netTestBERs, noc.EvalOptions{})
	line("NetworkSweep/topology", err)
	_, err = e.NetworkSweep(ctx, bus, netTestBERs, badTraffic)
	line("NetworkSweep/traffic", err)
	streams := []struct {
		name string
		topo noc.Config
		bers []float64
		opts noc.EvalOptions
	}{
		{"empty", bus, nil, noc.EvalOptions{}},
		{"ber", bus, []float64{1e-9, 0.5}, noc.EvalOptions{}},
		{"topology", badTopo, netTestBERs, noc.EvalOptions{}},
		{"traffic", bus, netTestBERs, badTraffic},
	}
	for _, s := range streams {
		// An error the up-front request check finds is recorded at BER
		// 0, one found while evaluating at its grid point's BER.
		upFront := e.checkNetworkSweep(s.topo, s.bers) != nil
		i := 0
		for _, err := range e.NetworkSweepStream(ctx, s.topo, s.bers, s.opts) {
			ber := 0.0
			if !upFront {
				ber = s.bers[i]
			}
			fmt.Fprintf(w, "  NetworkSweepStream/%s index=%d ber=%g err=%v\n", s.name, i, ber, err)
			i++
		}
	}
	_, err = e.SimulateNetwork(ctx, bus, NetworkSimOptions{TargetBER: 0})
	line("SimulateNetwork/ber", err)
	_, err = e.SimulateNetwork(ctx, badTopo, NetworkSimOptions{TargetBER: 1e-11})
	line("SimulateNetwork/topology", err)
	_, err = e.SimulateNetwork(ctx, bus, NetworkSimOptions{TargetBER: 1e-11, Traffic: noc.UniformMatrix(5)})
	line("SimulateNetwork/traffic", err)
	_, err = e.SimulateNetwork(ctx, bus, NetworkSimOptions{TargetBER: 1e-11, InjectionRateBitsPerSec: 1e9, Messages: -5})
	line("SimulateNetwork/messages", err)
}

// summarizeNoC renders one network result: headline figures plus a digest
// of every field.
func summarizeNoC(r noc.Result, err error) string {
	if err != nil {
		return "err=" + err.Error()
	}
	names := make([]string, 0, len(r.SchemeUse))
	for k := range r.SchemeUse {
		names = append(names, k+":"+strconv.Itoa(r.SchemeUse[k]))
	}
	sort.Strings(names)
	return fmt.Sprintf("ber=%g feasible=%t reason=%q power=%s epb=%s sat=%s p99=%s use=%s digest=%s",
		r.TargetBER, r.Feasible, r.InfeasibleReason, fmtFloat(r.NetworkPowerW), fmtFloat(r.EnergyPerBitJ),
		fmtFloat(r.SaturationInjectionBitsPerSec), fmtFloat(r.P99LatencySec), strings.Join(names, ","), digest(r))
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// digest hashes a canonical rendering of v: every field by name, floats in
// their shortest exact form, codes by name, maps in key order.
func digest(v any) string {
	h := sha256.New()
	canonical(h, reflect.ValueOf(v))
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func canonical(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		fmt.Fprint(w, "{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			canonical(w, v.Field(i))
			fmt.Fprint(w, ";")
		}
		fmt.Fprint(w, "}")
	case reflect.Slice:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			canonical(w, v.Index(i))
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, "]")
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		fmt.Fprint(w, "map[")
		for _, k := range keys {
			fmt.Fprintf(w, "%s=", k.String())
			canonical(w, v.MapIndex(k))
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, "]")
	case reflect.Interface:
		if v.IsNil() {
			fmt.Fprint(w, "nil")
		} else if c, ok := v.Interface().(ecc.Code); ok {
			fmt.Fprint(w, c.Name())
		} else {
			canonical(w, v.Elem())
		}
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprint(w, "nil")
		} else {
			canonical(w, v.Elem())
		}
	case reflect.Float64, reflect.Float32:
		fmt.Fprint(w, fmtFloat(v.Float()))
	default:
		fmt.Fprint(w, v)
	}
}

// compareGolden checks got against the golden file (or rewrites it with
// -update), reporting the first differing lines.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	g, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	shown := 0
	for i := 0; i < len(g) || i < len(wl); i++ {
		var gi, wi string
		if i < len(g) {
			gi = g[i]
		}
		if i < len(wl) {
			wi = wl[i]
		}
		if gi != wi {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gi, wi)
			if shown++; shown == 10 {
				break
			}
		}
	}
}
