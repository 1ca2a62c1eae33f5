// Adaptivelink: the paper's Section III-C scenario — a runtime manager
// receives per-transfer requirements (target BER, deadline pressure) and
// jointly configures the ECC scheme and the laser DAC. The manager and the
// traffic simulator both evaluate through one shared photonoc.Engine; each
// simulation below solves its roster once, from points already cached.
//
//	go run ./examples/adaptivelink
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"photonoc"
)

func main() {
	ctx := context.Background()
	eng, err := photonoc.New() // paper configuration, paper schemes
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := eng.Manager(photonoc.PaperDAC())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- per-request configuration (manager protocol) ---")
	requests := []struct {
		label string
		req   photonoc.Requirements
	}{
		{"bulk transfer, energy-first", photonoc.Requirements{TargetBER: 1e-11, Objective: photonoc.MinEnergy}},
		{"real-time, deadline CT<=1.2", photonoc.Requirements{TargetBER: 1e-11, MaxCT: 1.2, Objective: photonoc.MinPower}},
		{"hard real-time, CT<=1.05", photonoc.Requirements{TargetBER: 1e-9, MaxCT: 1.05, Objective: photonoc.MinPower}},
		{"ultra-reliable 1e-12", photonoc.Requirements{TargetBER: 1e-12, Objective: photonoc.MinPower}},
	}
	for _, r := range requests {
		d, err := mgr.ConfigureCtx(ctx, r.req)
		if err != nil {
			// The API boundary types the failure: errors.Is distinguishes
			// "nothing feasible" from bad input.
			if errors.Is(err, photonoc.ErrInfeasible) {
				fmt.Printf("%-30s -> no feasible configuration (%v)\n", r.label, err)
				continue
			}
			log.Fatal(err)
		}
		fmt.Printf("%-30s -> %-9s DAC=%2d (%.1f µW, +%.0f µW waste) Plaser=%.2f mW CT=%.3f\n",
			r.label, d.Eval.Code.Name(), d.DACCode,
			d.QuantizedOpticalW*1e6,
			(d.QuantizedOpticalW-d.Eval.Op.LaserOpticalW)*1e6,
			d.QuantizedLaserPowerW*1e3, d.Eval.CT)
	}

	fmt.Println("\n--- traffic simulation: static vs adaptive policies ---")
	base := photonoc.DefaultSimConfig()
	base.Messages = 8000
	base.Load = 0.5
	base.DeadlineSlack = 1.4

	type variant struct {
		label  string
		mutate func(*photonoc.SimConfig)
	}
	for _, v := range []variant{
		{"static min-energy (always H(71,64))", func(c *photonoc.SimConfig) {}},
		{"static min-latency (always uncoded)", func(c *photonoc.SimConfig) { c.Objective = photonoc.MinLatency }},
		{"adaptive deadline-aware", func(c *photonoc.SimConfig) { c.AdaptToDeadline = true }},
		{"adaptive + idle lasers off", func(c *photonoc.SimConfig) { c.AdaptToDeadline = true; c.IdleLaserOff = true }},
	} {
		sim := base
		v.mutate(&sim)
		res, err := eng.Simulate(ctx, sim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s  p95=%.3fµs  misses=%4d/%d  energy/bit=%.2f pJ  mix=%v\n",
			v.label, res.P95LatencySec*1e6, res.DeadlineMisses, res.Messages,
			res.EnergyPerBitJ*1e12, res.SchemeUse)
	}

	stats := eng.CacheStats()
	fmt.Printf("\nengine cache across all variants: %d solves, %d reuses (%.1f%% hit rate)\n",
		stats.Misses, stats.Hits, stats.HitRate()*100)
}
