package tune

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// update regenerates testdata/tune.golden:
//
//	go test ./internal/tune -run TestTuneGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestTuneGolden pins the tuner and the DAC step bit for bit. Part one runs
// default-space 16 × 20 campaigns at seeds 1–20 on fresh default engines
// and records each campaign's counts, the engine's cold solves and every
// front point's spec and objective bits. Part two runs a NetworkBatch chain
// over four topologies and DACs of 1, 4, 6 and 8 bits at three full
// scales — the paper's 700 µW, a 150 µW scale that long links request
// above, and a 2 mW scale whose coarse steps land above the laser's
// thermal ceiling — and records every link decision's DAC code, laser
// power and energy bits and its infeasibility reason.
func TestTuneGolden(t *testing.T) {
	var b strings.Builder
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		e, err := engine.New(engine.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(ctx, e, Options{Seed: seed, TargetBER: 1e-11, Particles: 16, Generations: 20})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "== campaign seed=%d evaluated=%d infeasible=%d cold=%d front=%d\n",
			seed, res.Evaluated, res.Infeasible, e.CacheStats().ColdSolves, len(res.Front))
		for i := range res.Front {
			p := &res.Front[i]
			fmt.Fprintf(&b, "  %s %016x %016x %016x\n", p.Spec.String(),
				math.Float64bits(p.EnergyPerBitJ), math.Float64bits(p.P99LatencySec), math.Float64bits(p.SaturationBitsPerSec))
		}
	}

	e, err := engine.New(engine.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	topos := []noc.Config{
		{Kind: noc.Bus, Tiles: 8},
		{Kind: noc.Ring, Tiles: 16},
		{Kind: noc.Mesh, Tiles: 16, Columns: 4},
		{Kind: noc.Crossbar, Tiles: 8},
	}
	var cands []engine.NetworkCandidate
	for _, topo := range topos {
		for _, bits := range []int{1, 4, 6, 8} {
			for _, fullScale := range []float64{manager.PaperDAC().MaxOpticalW, 150e-6, 2e-3} {
				dac := &manager.DAC{Bits: bits, MaxOpticalW: fullScale}
				cands = append(cands, engine.NetworkCandidate{
					Topology: topo,
					Opts:     noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, DAC: dac},
				})
			}
		}
	}
	results, err := e.NetworkBatch(ctx, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		c := &cands[i]
		fmt.Fprintf(&b, "== batch %s/%d dac%d@%gW feasible=%t\n",
			c.Topology.Kind, c.Topology.Tiles, c.Opts.DAC.Bits, c.Opts.DAC.MaxOpticalW, r.Feasible)
		for _, d := range r.Decisions {
			fmt.Fprintf(&b, "  link %d code=%d laser=%016x energy=%016x %q\n",
				d.Link, d.DACCode, math.Float64bits(d.LaserPowerW), math.Float64bits(d.EnergyPerBitJ), d.InfeasibleReason)
		}
	}
	compareGolden(t, filepath.Join("testdata", "tune.golden"), b.String())
}

// compareGolden checks got against the fixture at path, or rewrites the
// fixture under -update.
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
	g, w := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	shown := 0
	for i := 0; i < len(g) || i < len(w); i++ {
		var gi, wi string
		if i < len(g) {
			gi = g[i]
		}
		if i < len(w) {
			wi = w[i]
		}
		if gi != wi {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gi, wi)
			if shown++; shown == 10 {
				t.Fatal("too many differences")
			}
		}
	}
}
