// Paretoexplorer: stream a (scheme × BER) sweep over the paper's schemes
// plus the extended code families and render each trade-off plane
// incrementally as the engine solves it, marking which configurations
// survive on the power/performance Pareto front (the Figure 6b analysis,
// generalized).
//
//	go run ./examples/paretoexplorer
package main

import (
	"context"
	"fmt"
	"log"

	"photonoc"
)

func main() {
	ctx := context.Background()
	schemes := photonoc.ExtendedSchemes()
	bers := []float64{1e-6, 1e-9, 1e-12}

	eng, err := photonoc.New(
		photonoc.WithSchemes(schemes...),
		photonoc.WithWorkers(4),
	)
	if err != nil {
		log.Fatal(err)
	}

	// SweepStream delivers results in deterministic BER-major order, so
	// each plane renders as its rows arrive; the Pareto verdict prints
	// once the group is complete.
	var group []photonoc.Evaluation
	for ev, err := range eng.SweepStream(ctx, schemes, bers) {
		if err != nil {
			log.Fatal(err)
		}
		if len(group) == 0 {
			fmt.Printf("\nTrade-off plane @ BER %.0e (extended scheme pool)\n", ev.TargetBER)
			fmt.Printf("%-14s %6s %12s %8s\n", "scheme", "CT", "Pchannel mW", "pJ/bit")
		}
		power, pj := "-", "-"
		if ev.Feasible {
			power = fmt.Sprintf("%.2f", ev.ChannelPowerW*1e3)
			pj = fmt.Sprintf("%.2f", ev.EnergyPerBitJ*1e12)
		}
		fmt.Printf("%-14s %6.3f %12s %8s\n", ev.Code.Name(), ev.CT, power, pj)
		group = append(group, ev)

		if len(group) == len(schemes) {
			fmt.Print("PARETO: ")
			for i, p := range photonoc.ParetoFront(group) {
				if i > 0 {
					fmt.Print(" → ")
				}
				fmt.Print(p.Code.Name())
			}
			fmt.Println()
			group = group[:0]
		}
	}
	fmt.Println("\nNote how BCH(31,21) dominates the paper's H(7,4): the ablation result of DESIGN.md A3.")
}
