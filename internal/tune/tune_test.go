package tune

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

func newTestEngine(t *testing.T, workers int) *engine.Engine {
	t.Helper()
	e, err := engine.New(
		engine.WithConfig(core.DefaultConfig()),
		engine.WithSchemes(ecc.PaperSchemes()...),
		engine.WithWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// acceptanceOptions is the ISSUE's acceptance campaign: 8 particles × 10
// generations over (bus, ring, mesh) × roster subsets × DAC resolutions.
func acceptanceOptions() Options {
	return Options{
		Seed:        7,
		Particles:   8,
		Generations: 10,
		TargetBER:   1e-11,
	}
}

// TestRunDeterministicAcrossWorkers is the acceptance regression: the same
// seeded campaign produces DeepEqual fronts across repeated runs and across
// Workers=1/2/4, yields a non-trivial front (≥3 mutually non-dominated
// points), and every archived point's metrics are reproduced exactly by an
// independent Engine.Network evaluation of its decoded spec.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var fronts []*Result
	for _, workers := range []int{1, 2, 4, 2} {
		e := newTestEngine(t, workers)
		res, err := Run(context.Background(), e, acceptanceOptions())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fronts = append(fronts, res)
	}
	for i, res := range fronts[1:] {
		if !reflect.DeepEqual(res, fronts[0]) {
			t.Fatalf("run %d differs from run 0:\n%+v\nvs\n%+v", i+1, res, fronts[0])
		}
	}

	res := fronts[0]
	if len(res.Front) < 3 {
		t.Fatalf("front has %d points, want >= 3", len(res.Front))
	}
	for i := range res.Front {
		for j := range res.Front {
			if i != j && dominates(objectives(&res.Front[i]), objectives(&res.Front[j])) {
				t.Fatalf("front point %d dominates point %d — not mutually non-dominated", i, j)
			}
		}
	}
	if res.Evaluated != res.Particles*res.Generations {
		t.Fatalf("evaluated %d candidates, want %d", res.Evaluated, res.Particles*res.Generations)
	}

	// Independent reproduction: rebuild each archived point's candidate by
	// hand from its spec and require the one-shot Engine.Network metrics to
	// match bit for bit.
	e := newTestEngine(t, 2)
	roster := map[string]ecc.Code{}
	for _, c := range e.Schemes() {
		roster[c.Name()] = c
	}
	for i, pt := range res.Front {
		topo := noc.Config{Kind: pt.Spec.Kind, Tiles: pt.Spec.Tiles, Columns: pt.Spec.Columns}
		if pt.Spec.Wavelengths > 0 {
			topo.Base = e.Config()
			topo.Base.Channel.Grid.Count = pt.Spec.Wavelengths
			topo.Base.Channel.Topo.Wavelengths = pt.Spec.Wavelengths
		}
		opts := noc.EvalOptions{TargetBER: 1e-11}
		if pt.Spec.DACBits > 0 {
			dac := manager.DAC{Bits: pt.Spec.DACBits, MaxOpticalW: manager.PaperDAC().MaxOpticalW}
			opts.DAC = &dac
		}
		codes := make([]ecc.Code, len(pt.Spec.Roster))
		for k, name := range pt.Spec.Roster {
			c, ok := roster[name]
			if !ok {
				t.Fatalf("front point %d names unknown scheme %q", i, name)
			}
			codes[k] = c
		}
		sub, err := engine.New(
			engine.WithConfig(core.DefaultConfig()),
			engine.WithSchemes(codes...),
			engine.WithWorkers(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sub.Network(context.Background(), topo, opts)
		if err != nil {
			t.Fatalf("front point %d (%s): %v", i, pt.Spec.String(), err)
		}
		if ref.EnergyPerBitJ != pt.EnergyPerBitJ ||
			ref.P99LatencySec != pt.P99LatencySec ||
			ref.SaturationInjectionBitsPerSec != pt.SaturationBitsPerSec {
			t.Fatalf("front point %d (%s) not reproduced:\narchived (%g, %g, %g)\nnetwork  (%g, %g, %g)",
				i, pt.Spec.String(),
				pt.EnergyPerBitJ, pt.P99LatencySec, pt.SaturationBitsPerSec,
				ref.EnergyPerBitJ, ref.P99LatencySec, ref.SaturationInjectionBitsPerSec)
		}
	}
}

// TestRunFrontNonDegrading pins the archive semantics per generation: with
// an uncapped archive, no point of generation g's front is dominated by any
// point of generation g−1's front — the front never backslides.
func TestRunFrontNonDegrading(t *testing.T) {
	e := newTestEngine(t, 2)
	opts := acceptanceOptions()
	opts.ArchiveCap = 1 << 20
	var prev []Point
	gens := 0
	opts.OnGeneration = func(gen int, front []Point) error {
		if len(front) == 0 {
			return errors.New("empty front")
		}
		for i := range front {
			for j := range prev {
				if dominates(objectives(&prev[j]), objectives(&front[i])) {
					t.Errorf("gen %d: front point %d dominated by previous front point %d", gen, i, j)
				}
			}
		}
		prev = front
		gens++
		return nil
	}
	if _, err := Run(context.Background(), e, opts); err != nil {
		t.Fatal(err)
	}
	if gens != opts.Generations {
		t.Fatalf("callback ran %d times, want %d", gens, opts.Generations)
	}
}

// TestArchiveProperties drives the archive with a deterministic pseudo-
// random point stream and checks its invariants: mutual non-dominance,
// capacity, and rejection of dominated or duplicate offers.
func TestArchiveProperties(t *testing.T) {
	const cap = 12
	a := &archive{cap: cap}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p := Point{
			Spec:                 CandidateSpec{Tiles: i},
			EnergyPerBitJ:        1 + rng.Float64(),
			P99LatencySec:        1 + rng.Float64(),
			SaturationBitsPerSec: 1 + rng.Float64(),
		}
		a.add(p)
		if len(a.points) > cap {
			t.Fatalf("archive grew to %d points past cap %d", len(a.points), cap)
		}
		for x := range a.points {
			for y := range a.points {
				if x != y && dominates(objectives(&a.points[x]), objectives(&a.points[y])) {
					t.Fatalf("after %d adds: archived point %d dominates point %d", i+1, x, y)
				}
			}
		}
	}
	if len(a.points) == 0 {
		t.Fatal("archive is empty after 500 adds")
	}

	// A point dominated by an archived one is rejected outright.
	base := a.points[0].clone()
	worse := base
	worse.EnergyPerBitJ *= 2
	worse.P99LatencySec *= 2
	worse.SaturationBitsPerSec /= 2
	if a.add(worse) {
		t.Fatal("archive accepted a dominated point")
	}
	// An objective-duplicate is rejected (first-come wins).
	dup := base.clone()
	dup.Spec.Tiles = -1
	if a.add(dup) {
		t.Fatal("archive accepted an objective-duplicate point")
	}
	// A dominating point evicts everything it dominates.
	better := base.clone()
	better.EnergyPerBitJ /= 2
	better.P99LatencySec /= 2
	better.SaturationBitsPerSec *= 2
	if !a.add(better) {
		t.Fatal("archive rejected a dominating point")
	}
	for i := range a.points {
		if reflect.DeepEqual(a.points[i].Spec, base.Spec) && objectives(&a.points[i]) == objectives(&base) {
			t.Fatal("dominated incumbent survived the dominating add")
		}
	}
}

// TestWavelengthChoiceSetsGrid: a wavelength choice resizes the grid and
// the topology's wavelength count together, so a 32-wavelength design
// evaluates instead of failing channel validation, and its metrics equal
// an Engine.Network call on a hand-built 32-wavelength topology.
func TestWavelengthChoiceSetsGrid(t *testing.T) {
	ctx := context.Background()
	e := newTestEngine(t, 2)
	res, err := Run(ctx, e, Options{
		TargetBER:   1e-11,
		Particles:   2,
		Generations: 2,
		Kinds:       []noc.Kind{noc.Ring},
		Tiles:       []int{8},
		Wavelengths: []int{32},
		Rosters:     [][]ecc.Code{e.Schemes()},
		DACBits:     []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible != 0 || len(res.Front) != 1 {
		t.Fatalf("evaluated %d, infeasible %d, front %d; want 0 infeasible and a 1-point front", res.Evaluated, res.Infeasible, len(res.Front))
	}
	topo := noc.Config{Kind: noc.Ring, Tiles: 8, Base: e.Config()}
	topo.Base.Channel.Grid.Count = 32
	topo.Base.Channel.Topo.Wavelengths = 32
	ref, err := e.Network(ctx, topo, noc.EvalOptions{TargetBER: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Front[0]
	if pt.Spec.Wavelengths != 32 || ref.EnergyPerBitJ != pt.EnergyPerBitJ || ref.SaturationInjectionBitsPerSec != pt.SaturationBitsPerSec {
		t.Fatalf("front point %s (%g J/b, %g b/s), hand-built 32-wavelength ring (%g J/b, %g b/s)",
			pt.Spec.String(), pt.EnergyPerBitJ, pt.SaturationBitsPerSec, ref.EnergyPerBitJ, ref.SaturationInjectionBitsPerSec)
	}
}

// TestRunRejectsBadOptions pins the typed validation error.
func TestRunRejectsBadOptions(t *testing.T) {
	e := newTestEngine(t, 1)
	for _, opts := range []Options{
		{},                                  // missing BER
		{TargetBER: 0.7},                    // out of range
		{TargetBER: 1e-11, Particles: -1},   // negative swarm
		{TargetBER: 1e-11, Tiles: []int{1}}, // degenerate tiles
		{TargetBER: 1e-11, Tiles: []int{8, noc.MaxTiles + 1}},          // above the tile bound
		{TargetBER: 1e-11, Wavelengths: []int{noc.MaxWavelengths + 1}}, // above the grid bound
		{TargetBER: 1e-11, DACBits: []int{99}},                         // impossible DAC
	} {
		if _, err := Run(context.Background(), e, opts); !errors.Is(err, engine.ErrInvalidInput) {
			t.Errorf("opts %+v: error = %v, want ErrInvalidInput", opts, err)
		}
	}
}

// TestRunEvaluatesEachDesignOnce pins the campaign's design memo: in a
// space of one design, a 16 × 20 campaign reaches the engine exactly as
// often as a 1 × 1 campaign does, while still counting every particle
// evaluation.
func TestRunEvaluatesEachDesignOnce(t *testing.T) {
	run := func(particles, generations int) (*Result, engine.CacheStats) {
		e := newTestEngine(t, 2)
		res, err := Run(context.Background(), e, Options{
			TargetBER:   1e-11,
			Particles:   particles,
			Generations: generations,
			Kinds:       []noc.Kind{noc.Bus},
			Tiles:       []int{8},
			Rosters:     [][]ecc.Code{e.Schemes()},
			DACBits:     []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, e.CacheStats()
	}
	one, oneStats := run(1, 1)
	res, stats := run(16, 20)
	if res.Evaluated != 320 || res.Infeasible != 0 || len(res.Front) != 1 {
		t.Fatalf("evaluated %d, infeasible %d, front %d; want 320, 0, 1", res.Evaluated, res.Infeasible, len(res.Front))
	}
	if !reflect.DeepEqual(res.Front, one.Front) {
		t.Fatalf("front %+v, want the 1 × 1 front %+v", res.Front, one.Front)
	}
	type counts struct{ hits, misses, cold uint64 }
	got := counts{stats.Hits, stats.Misses, stats.ColdSolves}
	want := counts{oneStats.Hits, oneStats.Misses, oneStats.ColdSolves}
	if got != want {
		t.Fatalf("16 × 20 campaign engine counts %+v, want the 1 × 1 campaign's %+v", got, want)
	}
}
