// Meshnoc: scale the paper's single MWSR channel to an 8×8 mesh
// network-on-chip and walk the network-level energy/performance trade-off
// the paper defers to future work — per-link scheme decisions, wavelength
// allocation across shared row/column buses, saturation throughput and
// latency percentiles under uniform and hotspot traffic.
//
//	go run ./examples/meshnoc
package main

import (
	"context"
	"fmt"
	"log"

	"photonoc"
)

func main() {
	ctx := context.Background()

	eng, err := photonoc.New(
		photonoc.WithConfig(photonoc.DefaultConfig()),
		photonoc.WithSchemes(photonoc.PaperSchemes()...),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 64 tiles in an 8×8 mesh: every row and every column is a
	// wavelength-routed MWSR bus, XY routing crosses at most two links.
	topo := photonoc.NoCConfig{Kind: photonoc.NoCMesh, Tiles: 64}
	net, err := eng.BuildNetwork(topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8×8 mesh: %d links over %d waveguides, %d wavelengths each\n",
		net.NumLinks(), len(net.Waveguides()), len(net.Links()[0].Lambdas))

	// Sweep the BER target across the paper's range, one BER after the
	// other; links sharing a compiled plan (every row/column position
	// repeats) hit the memo cache.
	bers := []float64{1e-6, 1e-9, 1e-11, 1e-12}
	results, err := eng.NetworkSweep(ctx, topo, bers, photonoc.NoCEvalOptions{
		Objective: photonoc.MinEnergy,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("%-8s %-14s %14s %10s %10s %10s\n",
		"BER", "schemes", "sat Gb/s/tile", "pJ/bit", "p50 µs", "p99 µs")
	for _, res := range results {
		if !res.Feasible {
			fmt.Printf("%-8.0e infeasible: %s\n", res.TargetBER, res.InfeasibleReason)
			continue
		}
		mix := ""
		for name, count := range res.SchemeUse {
			mix = fmt.Sprintf("%s×%d", name, count)
			if len(res.SchemeUse) > 1 {
				mix = "mixed"
				break
			}
		}
		fmt.Printf("%-8.0e %-14s %14.2f %10.2f %10.3f %10.3f\n",
			res.TargetBER, mix,
			res.SaturationInjectionBitsPerSec/1e9,
			res.EnergyPerBitJ*1e12,
			res.P50LatencySec*1e6,
			res.P99LatencySec*1e6)
	}

	// Hotspot traffic: concentrate 30% of every tile's traffic on tile 27
	// (extracted from the netsim workload patterns) and watch the network
	// saturate early on the hot column while energy per bit rises with the
	// idle-laser share.
	pattern, err := photonoc.ParsePattern("hotspot")
	if err != nil {
		log.Fatal(err)
	}
	traffic, err := pattern.Matrix(64, 27, 0.30)
	if err != nil {
		log.Fatal(err)
	}
	hot, err := eng.Network(ctx, topo, photonoc.NoCEvalOptions{
		TargetBER: 1e-11,
		Objective: photonoc.MinEnergy,
		Traffic:   traffic,
	})
	if err != nil {
		log.Fatal(err)
	}
	uniform := results[2] // BER 1e-11 under uniform traffic
	if !hot.Feasible || !uniform.Feasible {
		log.Fatalf("mesh infeasible at BER 1e-11 (hotspot: %q, uniform: %q)",
			hot.InfeasibleReason, uniform.InfeasibleReason)
	}
	fmt.Println()
	fmt.Printf("hotspot on tile 27 @ BER 1e-11:\n")
	fmt.Printf("  saturation  %6.2f Gb/s/tile  (uniform %6.2f)\n",
		hot.SaturationInjectionBitsPerSec/1e9, uniform.SaturationInjectionBitsPerSec/1e9)
	fmt.Printf("  energy/bit  %6.2f pJ         (uniform %6.2f)\n",
		hot.EnergyPerBitJ*1e12, uniform.EnergyPerBitJ*1e12)
	fmt.Printf("  p99 latency %6.3f µs         (uniform %6.3f)\n",
		hot.P99LatencySec*1e6, uniform.P99LatencySec*1e6)

	// The busiest link under the hotspot is the hot tile's column bus.
	worst := hot.Loads[0]
	for _, load := range hot.Loads {
		if load.Utilization > worst.Utilization {
			worst = load
		}
	}
	links := net.Links()
	fmt.Printf("  busiest link: #%d into tile %d at %.0f%% utilization\n",
		worst.Link, links[worst.Link].Reader, worst.Utilization*100)

	stats := eng.CacheStats()
	fmt.Println()
	fmt.Printf("engine cache: %d cold solves for %d link-scheme-BER points (%.0f%% hit rate)\n",
		stats.ColdSolves, stats.Hits+stats.Misses, stats.HitRate()*100)
}
