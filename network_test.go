package photonoc

import (
	"context"
	"reflect"
	"testing"
)

// TestNetworkFacade exercises the network layer end to end through the
// public API: topology construction, pattern-extracted traffic, a streamed
// sweep, and the cache-reuse contract.
func TestNetworkFacade(t *testing.T) {
	eng, err := New(WithSchemes(PaperSchemes()...))
	if err != nil {
		t.Fatal(err)
	}
	topo := NoCConfig{Kind: NoCMesh, Tiles: 16}
	net, err := eng.BuildNetwork(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.VerifyAllocation(); err != nil {
		t.Fatal(err)
	}

	pattern, err := ParsePattern("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := pattern.Matrix(16, 5, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	opts := NoCEvalOptions{Objective: MinEnergy, Traffic: TrafficMatrix(traffic)}

	bers := []float64{1e-9, 1e-11}
	batch, err := eng.NetworkSweep(context.Background(), topo, bers, opts)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for res, err := range eng.NetworkSweepStream(context.Background(), topo, bers, opts) {
		if err != nil {
			t.Fatal(err)
		}
		if res.EnergyPerBitJ != batch[i].EnergyPerBitJ {
			t.Fatalf("stream/batch energy mismatch at BER %g", res.TargetBER)
		}
		i++
	}
	if i != len(bers) {
		t.Fatalf("stream yielded %d results", i)
	}
	for _, res := range batch {
		if !res.Feasible {
			t.Fatalf("mesh infeasible at BER %g: %s", res.TargetBER, res.InfeasibleReason)
		}
		if res.SaturationInjectionBitsPerSec <= 0 || res.EnergyPerBitJ <= 0 {
			t.Fatalf("degenerate aggregates at BER %g: %+v", res.TargetBER, res)
		}
	}
	if stats := eng.CacheStats(); stats.HitRate() < 0.5 {
		t.Errorf("network sweep hit rate %.2f — per-link plan sharing broken?", stats.HitRate())
	}
}

// TestSimulateNetworkFacade exercises the network discrete-event simulator
// through the public API and ties it back to the analytic result: same
// decisions, bit for bit, and deterministic replays under a fixed seed.
func TestSimulateNetworkFacade(t *testing.T) {
	eng, err := New(WithSchemes(PaperSchemes()...))
	if err != nil {
		t.Fatal(err)
	}
	topo := NoCConfig{Kind: NoCMesh, Tiles: 16}
	dac := PaperDAC()
	var sim NoCSimResults
	opts := NoCSimOptions{
		TargetBER: 1e-11, Objective: MinEnergy, DAC: &dac,
		Messages: 2000, Seed: 4,
	}
	if sim, err = eng.SimulateNetwork(context.Background(), topo, opts); err != nil {
		t.Fatal(err)
	}
	if sim.Messages != 2000 || sim.Dropped != 0 {
		t.Fatalf("delivered %d / dropped %d of 2000", sim.Messages, sim.Dropped)
	}
	if sim.MeanLatencySec <= 0 || sim.EnergyPerBitJ <= 0 || sim.P99LatencySec < sim.P50LatencySec {
		t.Fatalf("degenerate simulation statistics: %+v", sim)
	}

	ana, err := eng.Network(context.Background(), topo, NoCEvalOptions{
		TargetBER: 1e-11, Objective: MinEnergy, DAC: &dac,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Decisions) != len(ana.Decisions) {
		t.Fatalf("%d simulated decisions, %d analytic", len(sim.Decisions), len(ana.Decisions))
	}
	if !reflect.DeepEqual(sim.Decisions, ana.Decisions) {
		t.Fatal("simulated decisions differ from the analytic ones")
	}

	again, err := eng.SimulateNetwork(context.Background(), topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.SimTimeSec != sim.SimTimeSec || again.MeanLatencySec != sim.MeanLatencySec {
		t.Fatal("same seed did not reproduce the run through the facade")
	}
}
