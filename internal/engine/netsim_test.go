package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
)

// TestNetworkDESCrossValidatesAnalytic is the statistical acceptance test:
// on the degenerate 12-tile uniform bus at the analytic default operating
// point (half the saturation rate — inside the M/D/1 validity regime), the
// discrete-event simulator reproduces the analytic aggregates.
//
// Tolerances and why they hold for the documented seed: each link serves
// ≈ 100000/12 ≈ 8300 Poisson arrivals, so the measured busy fraction has a
// relative standard deviation of 1/√8300 ≈ 1.1% — an absolute σ ≈ 0.006 at
// utilization 0.5. The 0.01 absolute utilization tolerance is ≈ 1.8σ and
// the run is seeded (Seed = 1), so the assertion is deterministic, not
// flaky; the 10% mean-latency band is ≈ 10× wider than the observed
// deviation (≈ 1%) and absorbs the open-system effects (token pipeline,
// finite horizon) the M/D/1 abstraction ignores.
func TestNetworkDESCrossValidatesAnalytic(t *testing.T) {
	e := newNetEngine(t, ecc.PaperSchemes())
	topo := noc.Config{Kind: noc.Bus, Tiles: 12}
	const ber = 1e-11

	ana, err := e.Network(context.Background(), topo, noc.EvalOptions{
		TargetBER: ber, Objective: manager.MinEnergy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ana.Feasible {
		t.Fatalf("analytic bus infeasible: %s", ana.InfeasibleReason)
	}
	if ana.InjectionRateBitsPerSec != ana.SaturationInjectionBitsPerSec/2 {
		t.Fatalf("analytic default rate %g is not half the saturation rate %g",
			ana.InjectionRateBitsPerSec, ana.SaturationInjectionBitsPerSec)
	}

	sim, err := e.SimulateNetwork(context.Background(), topo, NetworkSimOptions{
		TargetBER: ber, Objective: manager.MinEnergy,
		Messages: 100000,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Per-link utilization within 1% absolute.
	for i, load := range ana.Loads {
		simUtil := sim.PerLink[i].Utilization
		if diff := math.Abs(simUtil - load.Utilization); diff > 0.01 {
			t.Errorf("link %d utilization: analytic %.4f, simulated %.4f (|Δ| = %.4f > 0.01)",
				i, load.Utilization, simUtil, diff)
		}
	}

	// Mean end-to-end latency within 10% relative.
	if rel := math.Abs(sim.MeanLatencySec-ana.MeanLatencySec) / ana.MeanLatencySec; rel > 0.10 {
		t.Errorf("mean latency: analytic %.4g s, simulated %.4g s (%.1f%% > 10%%)",
			ana.MeanLatencySec, sim.MeanLatencySec, rel*100)
	}

	// The shared power model closes the loop: matched utilizations imply
	// matched energy per bit (standing lasers + activity-scaled dynamic).
	if rel := math.Abs(sim.EnergyPerBitJ-ana.EnergyPerBitJ) / ana.EnergyPerBitJ; rel > 0.05 {
		t.Errorf("energy per bit: analytic %.4g J, simulated %.4g J (%.1f%% > 5%%)",
			ana.EnergyPerBitJ, sim.EnergyPerBitJ, rel*100)
	}

	// Nothing dropped, everything delivered: the comparison is apples to
	// apples.
	if sim.Dropped != 0 || sim.Messages != sim.Injected {
		t.Fatalf("lossy run (%d dropped of %d) cannot cross-validate the lossless analytic model",
			sim.Dropped, sim.Injected)
	}
}

// TestSimulateNetworkDeterministicAcrossWorkers is the determinism half of
// the acceptance criteria: a fixed seed produces bit-identical results —
// event counts, percentiles, energy — at Workers = 1, 2, 4 (the lattice
// solves fan out differently, the sequential simulation must not care), and
// repeated runs on one engine are bit-identical too. The -race run of this
// test is the race-cleanliness check.
func TestSimulateNetworkDeterministicAcrossWorkers(t *testing.T) {
	codes := ecc.PaperSchemes()
	topo := noc.Config{Kind: noc.Mesh, Tiles: 16}
	dac := manager.PaperDAC()
	opts := NetworkSimOptions{
		TargetBER: 1e-11, Objective: manager.MinEnergy, DAC: &dac,
		Messages: 5000,
		Seed:     9,
	}

	var ref *netsim.NetResults
	for _, workers := range []int{1, 2, 4} {
		e := newNetEngine(t, codes, WithWorkers(workers))
		res, err := e.SimulateNetwork(context.Background(), topo, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		again, err := e.SimulateNetwork(context.Background(), topo, opts)
		if err != nil {
			t.Fatalf("workers=%d rerun: %v", workers, err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("workers=%d: rerun with the same seed differs", workers)
		}
		if ref == nil {
			ref = &res
			continue
		}
		if !reflect.DeepEqual(res, *ref) {
			t.Fatalf("workers=%d: simulation differs from workers=1", workers)
		}
	}
}

// TestSimulateNetworkDecisionsMatchDecide pins the decision-identity
// acceptance criterion: the scheme/DAC decisions the simulator runs on are
// bit-identical to the analytic Network's — byte for byte, quantized laser
// power and DAC code included — because both come from one
// noc.EvalSession.Decide over the lattice solved through the engine's
// shared memo cache.
func TestSimulateNetworkDecisionsMatchDecide(t *testing.T) {
	e := newNetEngine(t, ecc.PaperSchemes())
	topo := noc.Config{Kind: noc.Mesh, Tiles: 16}
	dac := manager.PaperDAC()
	evalOpts := noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, DAC: &dac}

	ana, err := e.Network(context.Background(), topo, evalOpts)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := e.SimulateNetwork(context.Background(), topo, NetworkSimOptions{
		TargetBER: 1e-11, Objective: manager.MinEnergy, DAC: &dac,
		Messages: 500,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim.Decisions, ana.Decisions) {
		t.Fatal("simulator decisions differ from the analytic Network's")
	}
	for i := range sim.Decisions {
		if sim.Decisions[i].DACCode < 0 {
			t.Fatalf("link %d decision carries no DAC code", i)
		}
	}
}

// TestSimulateNetworkSharesCache: solving the degenerate bus for the
// simulator is served from the memo cache a plain single-link sweep already
// primed — zero additional cold solves, the decisions literally come out
// of the same cache entries as every other engine path.
func TestSimulateNetworkSharesCache(t *testing.T) {
	e := newNetEngine(t, ecc.PaperSchemes(), WithWorkers(1))
	const ber = 1e-11
	if _, err := e.Sweep(context.Background(), nil, []float64{ber}); err != nil {
		t.Fatal(err)
	}
	cold := e.CacheStats().ColdSolves
	if _, err := e.SimulateNetwork(context.Background(), noc.Config{Kind: noc.Bus, Tiles: 12}, NetworkSimOptions{
		TargetBER: ber, Objective: manager.MinEnergy, Messages: 500, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheStats().ColdSolves; after != cold {
		t.Fatalf("network simulation re-solved %d points the single-link sweep already cached", after-cold)
	}
}

// TestSimulateNetworkErrors: typed boundary errors, including the
// infeasible topology (unlike the analytic path, there is nothing to
// simulate without a configured scheme on every link).
func TestSimulateNetworkErrors(t *testing.T) {
	e := newNetEngine(t, ecc.PaperSchemes())
	good := noc.Config{Kind: noc.Bus, Tiles: 12}

	if _, err := e.SimulateNetwork(context.Background(), good, NetworkSimOptions{TargetBER: 0.7}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("BER 0.7 error = %v, want ErrInvalidInput", err)
	}
	if _, err := e.SimulateNetwork(context.Background(), good, NetworkSimOptions{
		TargetBER: 1e-11, Traffic: noc.UniformMatrix(5),
	}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("wrong-shape traffic error = %v, want ErrInvalidInput", err)
	}
	// With an explicit rate the analytic aggregation is skipped, so the
	// rejection must come typed out of the simulator boundary too.
	if _, err := e.SimulateNetwork(context.Background(), good, NetworkSimOptions{
		TargetBER: 1e-11, Traffic: noc.UniformMatrix(5), InjectionRateBitsPerSec: 1e9,
	}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("wrong-shape traffic (explicit rate) error = %v, want ErrInvalidInput", err)
	}
	if _, err := e.SimulateNetwork(context.Background(), good, NetworkSimOptions{
		TargetBER: 1e-11, InjectionRateBitsPerSec: 1e9, Messages: -5,
	}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative message count error = %v, want ErrInvalidInput", err)
	}
	// A subnormal rate passes the option checks, but its inter-arrival
	// times overflow to +Inf: the generated trace fails validation.
	if _, err := e.SimulateNetwork(context.Background(), good, NetworkSimOptions{
		TargetBER: 1e-11, InjectionRateBitsPerSec: 1e-310,
	}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("subnormal rate error = %v, want ErrInvalidInput", err)
	}
	// A 16-tile crossbar at 1 cm pitch carries a 30 cm serpentine no paper
	// scheme can close at BER 1e-11.
	infeasible := noc.Config{Kind: noc.Crossbar, Tiles: 16, TilePitchCM: 1}
	if _, err := e.SimulateNetwork(context.Background(), infeasible, NetworkSimOptions{TargetBER: 1e-11}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible crossbar error = %v, want ErrInfeasible", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SimulateNetwork(ctx, good, NetworkSimOptions{TargetBER: 1e-11}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled simulation error = %v, want context.Canceled", err)
	}
}

// TestSimulateNetworkCountsRefusedBeforeSolving: a message count above
// netsim.MaxMessages, a negative one and a negative queue bound are
// refused as invalid input with netsim's wording before the lattice is
// solved, so a fresh engine reports no cold solve.
func TestSimulateNetworkCountsRefusedBeforeSolving(t *testing.T) {
	topo := noc.Config{Kind: noc.Crossbar, Tiles: 16}
	for _, c := range []struct {
		name string
		opts NetworkSimOptions
		want string
	}{
		{"too many messages", NetworkSimOptions{Messages: netsim.MaxMessages + 1}, "1048577 messages exceed the bound of 1048576"},
		{"negative messages", NetworkSimOptions{Messages: -1}, "message count -1 must be positive"},
		{"negative queue bound", NetworkSimOptions{MaxQueueDepth: -1}, "negative max queue depth -1"},
	} {
		e := newNetEngine(t, ecc.PaperSchemes())
		c.opts.TargetBER = 1e-11
		_, err := e.SimulateNetwork(context.Background(), topo, c.opts)
		if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), "netsim: "+c.want) {
			t.Errorf("%s: err = %v, want ErrInvalidInput naming %q", c.name, err, c.want)
		}
		if cold := e.CacheStats().ColdSolves; cold != 0 {
			t.Errorf("%s: %d cold solves before the refusal, want 0", c.name, cold)
		}
	}
}
